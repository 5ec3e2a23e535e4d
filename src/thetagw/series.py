"""Truncated Taylor series arithmetic at the origin.

This is the series-extraction backbone: coefficients are produced by exact
recurrences (generalized binomial through the J.C.P. Miller power recurrence,
logarithm through its first-order ODE), never by floating-point
differentiation. All operations truncate at a fixed order K. Products and
powers form each row's terms with numpy, in the order of a term-by-term loop,
and take one math.fsum per row: fsum rounds the exact sum correctly, so the
coefficients are bitwise the loop's and their error stays at rounding level
even for K in the hundreds.

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

# Pow rows this short (all of an affine base) stay a generator: 1.5 us a row at
# 1 term against 4-7 us in numpy; the two cross at 5-10 terms (2-core Xeon).
_SCALAR_TERMS = 8


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
        """Cauchy product: row k is one fsum of all the terms a_j * b_(k-j),
        j = 0..k, formed in numpy (zeros kept); bitwise equal to a generator."""
        if not isinstance(other, Series):
            return Series(self.coeffs * float(other))
        self._check_order(other)
        n = self.order
        a, rb = self.coeffs, other.coeffs[::-1]
        out = np.empty(n + 1)
        for k in range(n + 1):
            out[k] = math.fsum((a[: k + 1] * rb[n - k :]).tolist())
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
        coefficient:  m*u0*v_m = sum_{j=1..m} (j*alpha + (j - m)) * u_j * v_{m-j}.
        Spelled this way the factor at j = m is m*alpha rounded once, so it
        keeps its digits however small alpha is.
        Only the nonzero u_j enter the sum, so an affine base costs O(order).
        A row of more than _SCALAR_TERMS terms forms them in numpy, left to
        right as written, and takes one fsum: bitwise equal to a generator.
        """
        u = self.coeffs
        if not u[0] > 0.0:
            raise UnsupportedFormError(
                f"series**{alpha} needs a positive constant term, got {u[0]}"
            )
        n = self.order
        v = np.zeros(n + 1)
        v[0] = u[0] ** alpha
        nz = np.flatnonzero(u[1:]) + 1  # zero terms leave an exact sum as it is
        ja, uz, js = nz * alpha, u[nz], nz.tolist()
        for m in range(1, n + 1):
            c = bisect_right(js, m)
            if c <= _SCALAR_TERMS:
                acc = math.fsum((j * alpha + (j - m)) * u[j] * v[m - j] for j in js[:c])
            else:
                acc = math.fsum(((ja[:c] + (nz[:c] - m)) * uz[:c] * v[m - nz[:c]]).tolist())
            v[m] = acc / (m * u[0])
        return Series(v)

    def log(self) -> "Series":
        """Logarithm via (log u)' * u = u'; needs a positive constant term."""
        u = self.coeffs
        if not u[0] > 0.0:
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
