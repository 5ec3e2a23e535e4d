"""Truncated Taylor series arithmetic at the origin.

This is the series-extraction backbone: coefficients are produced by exact
recurrences (generalized binomial through the J.C.P. Miller power recurrence,
logarithm through its first-order ODE), never by floating-point
differentiation. All operations truncate at a fixed order K and use
compensated summation for the inner products, so coefficient error stays at
rounding level even for K in the hundreds.

Only what the closed forms of this family need is implemented: affine seeds,
ring operations, real powers, logarithms, differentiation and argument
scaling.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np

from .errors import UnsupportedFormError

__all__ = ["Series"]


class Series:
    """Polynomial truncation of a power series: coeffs[k] multiplies s**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        arr = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise UnsupportedFormError("coefficients must form a nonempty 1-D sequence")
        self.coeffs = arr

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value: float, order: int) -> "Series":
        arr = np.zeros(order + 1)
        arr[0] = value
        return cls(arr)

    @classmethod
    def identity(cls, order: int) -> "Series":
        arr = np.zeros(order + 1)
        if order >= 1:
            arr[1] = 1.0
        return cls(arr)

    @classmethod
    def affine(cls, c0: float, c1: float, order: int) -> "Series":
        """The polynomial c0 + c1*s, padded to the requested order."""
        arr = np.zeros(order + 1)
        arr[0] = c0
        if order >= 1:
            arr[1] = c1
        return cls(arr)

    # -- basic ring operations -----------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __add__(self, other: "Series | float") -> "Series":
        if isinstance(other, Series):
            self._check_order(other)
            return Series(self.coeffs + other.coeffs)
        arr = self.coeffs.copy()
        arr[0] += float(other)
        return Series(arr)

    __radd__ = __add__

    def __sub__(self, other: "Series | float") -> "Series":
        if isinstance(other, Series):
            self._check_order(other)
            return Series(self.coeffs - other.coeffs)
        arr = self.coeffs.copy()
        arr[0] -= float(other)
        return Series(arr)

    def __rsub__(self, other: float) -> "Series":
        arr = -self.coeffs
        arr[0] += float(other)
        return Series(arr)

    def __mul__(self, other: "Series | float") -> "Series":
        if not isinstance(other, Series):
            return Series(self.coeffs * float(other))
        self._check_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = np.empty(n + 1)
        for k in range(n + 1):
            out[k] = math.fsum(a[j] * b[k - j] for j in range(k + 1))
        return Series(out)

    __rmul__ = __mul__

    def _check_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise UnsupportedFormError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    # -- analytic operations -------------------------------------------

    def pow(self, alpha: float) -> "Series":
        """Real power via the Miller recurrence; needs a positive constant term.

        With v = u**alpha the identity u*v' = alpha*u'*v pins every
        coefficient:  m*u0*v_m = sum_{j=1..m} (j*(alpha+1) - m) * u_j * v_{m-j}.
        Only the nonzero u_j enter the sum, so an affine base costs O(order).
        """
        u = self.coeffs
        if u[0] <= 0.0:
            raise UnsupportedFormError(
                f"series**{alpha} needs a positive constant term, got {u[0]}"
            )
        n = self.order
        v = np.zeros(n + 1)
        v[0] = u[0] ** alpha
        nz = (np.flatnonzero(u[1:]) + 1).tolist()  # zero terms leave an exact sum as it is
        for m in range(1, n + 1):
            acc = math.fsum(
                (j * (alpha + 1.0) - m) * u[j] * v[m - j] for j in nz[: bisect_right(nz, m)]
            )
            v[m] = acc / (m * u[0])
        return Series(v)

    def log(self) -> "Series":
        """Logarithm via (log u)' * u = u'; needs a positive constant term."""
        u = self.coeffs
        if u[0] <= 0.0:
            raise UnsupportedFormError(
                f"log(series) needs a positive constant term, got {u[0]}"
            )
        n = self.order
        out = np.zeros(n + 1)
        out[0] = math.log(u[0])
        nz = (np.flatnonzero(u[1:]) + 1).tolist()
        for k in range(1, n + 1):
            acc = math.fsum((k - i) * out[k - i] * u[i] for i in nz[: bisect_left(nz, k)])
            out[k] = (k * u[k] - acc) / (k * u[0])
        return Series(out)

    def deriv(self) -> "Series":
        """Coefficients of the derivative, truncated at order - 1."""
        n = self.order
        if n == 0:
            return Series(np.zeros(1))
        k = np.arange(1, n + 1, dtype=float)
        return Series(self.coeffs[1:] * k)

    def scale_arg(self, r: float) -> "Series":
        """Substitute s -> r*s."""
        powers = np.power(float(r), np.arange(self.order + 1, dtype=float))
        return Series(self.coeffs * powers)

    def mul_s(self) -> "Series":
        """Multiply by s, dropping the top coefficient to keep the order."""
        arr = np.empty_like(self.coeffs)
        arr[0] = 0.0
        arr[1:] = self.coeffs[:-1]
        return Series(arr)

    def eval(self, x: float) -> float:
        """Horner evaluation of the truncated polynomial."""
        acc = 0.0
        for ck in self.coeffs[::-1]:
            acc = acc * x + ck
        return acc

    def __repr__(self) -> str:  # pragma: no cover
        head = ", ".join(f"{v:.6g}" for v in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series([{head}{tail}], order={self.order})"
