"""Truncated Taylor series arithmetic at the origin.

This is the series-extraction backbone: coefficients are produced by exact
recurrences (generalized binomial through the J.C.P. Miller power recurrence,
logarithm through its first-order ODE), never by floating-point
differentiation. All operations truncate at a fixed order K. Each coefficient
of a product or power is math.fsum of its row's terms, formed as a
term-by-term loop forms them: fsum rounds the exact sum correctly, so the
coefficients are bitwise the loop's and their error stays at rounding level
even for K in the hundreds. A product takes one fsum of its k + 1 terms per
row. A dense power's rows first go 32 at a time through _exact_rows, which
leaves fsum a few floats a row with the same exact sum. A row of one term
(an affine base's power or logarithm) is that term + 0.0, its fsum: -0.0
turns +0.0, inf and nan pass. Every row is formed on Python floats; a row
past the float range (** or fsum overflowing, inf - inf, or a coefficient
that is not finite) raises NumericError (_formed).

Only what the closed forms of this family need is implemented: affine seeds,
ring operations, real powers, logarithms, differentiation and argument
scaling.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .errors import NumericError, UnsupportedFormError

__all__ = ["Series"]

# A base with 2 to this many nonzero terms takes its power as a generator, 0.6-1.4 us
# a row (one term: 0.2 us, as term + 0.0); a denser one goes through _exact_rows.
_SCALAR_TERMS = 8
# rows per block of _exact_rows: its temporaries are _BLOCK * K floats
_BLOCK = 32


def _exact_rows(terms: np.ndarray) -> list[list[float]] | None:
    """Per row of terms, a few floats with the row's exact sum; None if a term
    is not finite or at least 2**(1000 - M), or if 60 passes leave a residual.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008)
    189-224): for sigma a power of two >= 2**M * max|r| and 2**M >= width + 2,
    q = (sigma + r) - sigma and r - q are exact and a row's q add up exactly.
    Each pass keeps that sum and leaves residuals at least 2**(52 - M) times smaller.
    The passes share one q and one residual array; terms is left as it is.
    """
    shift = (terms.shape[1] + 1).bit_length()  # M
    big = np.maximum(terms.max(axis=1), -terms.min(axis=1))  # max|term|, nan on a nan
    if not (big < 2.0 ** (1000 - shift)).all():
        return None
    parts, r, q = [], terms, np.empty_like(terms)
    while big.any():
        if len(parts) == 60:
            return None
        sigma = np.ldexp(1.0, np.frexp(big)[1] + shift)[:, None]
        np.add(sigma, r, out=q)
        q -= sigma
        r = terms - q if r is terms else np.subtract(r, q, out=r)  # terms stay as they are
        parts.append(q.sum(axis=1))
        big = np.maximum(r.max(axis=1), -r.min(axis=1))
    return np.transpose(parts).tolist() if parts else [[]] * len(terms)


def _formed(rows, what: str) -> list[float]:
    """rows(), the coefficients of what, with numpy's inf and nan left to this
    check: NumericError if forming them overflows or one is not finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v = rows()
    except (OverflowError, ValueError):  # ** or fsum past the float range, or inf - inf
        v = None
    if v is None or not all(map(math.isfinite, v)):
        raise NumericError(f"a coefficient of {what} passes the float range")
    return v


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
        """Cauchy product: row k is the fsum of all the terms a_j * b_(k-j),
        j = 0..k (zeros kept), formed on Python floats bitwise as a generator
        forms them; a row past the float range raises NumericError."""
        if not isinstance(other, Series):
            return Series(self.coeffs * float(other))
        self._check_order(other)
        a, b = self.coeffs, other.coeffs

        def rows():
            return [math.fsum((a[: k + 1] * b[k::-1]).tolist()) for k in range(a.size)]

        return Series(_formed(rows, "a product"))

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
        With one nonzero u_j, as an affine base has, row m is its one term
        + 0.0, which is that term's fsum. Up to _SCALAR_TERMS nonzero u_j
        enter a generator. A denser base works in blocks of rows m0..m0+31: row m0 + r
        hands its terms j = r+1..r+m0 (on v_(m0-1)..v_0, zeros kept) to
        _exact_rows and adds its terms j <= r in its one fsum. The rows are
        formed on Python floats, bitwise as a generator forms them; a row past
        the float range raises NumericError.
        """
        u = self.coeffs
        if not u[0] > 0.0:
            raise UnsupportedFormError(f"series**{alpha} needs a positive constant term, got {u[0]}")
        n, alpha, js, ul = self.order, float(alpha), (np.flatnonzero(u[1:]) + 1).tolist(), u.tolist()

        def rows():
            v = [ul[0] ** alpha]
            if len(js) == 1:  # one term a row, which fsum returns as term + 0.0
                (j,), u0 = js, ul[0]
                v += [0.0] * (j - 1)  # rows m < j: fsum of no terms
                for m in range(j, n + 1):
                    v.append(((j * alpha + (j - m)) * ul[j] * v[m - j] + 0.0) / (m * u0))
                return v
            for m0 in range(1, n + 1, _BLOCK):
                stop, parts = min(m0 + _BLOCK, n + 1), None  # parts: terms on v_0..v_(m0-1)
                if len(js) > _SCALAR_TERMS:  # _exact_rows refuses inf and nan
                    # row m0 + r, column i: j = r + 1 + i, j - m = i + 1 - m0, m - j = m0 - 1 - i
                    t = _windows(np.arange(1, stop) * alpha, m0) + np.arange(1 - m0, 1)
                    t *= _windows(u[1:stop], m0)
                    t *= v[::-1]
                    parts = _exact_rows(t)
                for m in range(m0, stop):
                    c = bisect_right(js, m - m0 if parts else m)  # zero u_j leave an exact sum as it is
                    terms = ((j * alpha + (j - m)) * ul[j] * v[m - j] for j in js[:c])
                    terms = itertools.chain(parts[m - m0], terms) if parts else terms
                    v.append(math.fsum(terms) / (m * ul[0]))
            return v

        return Series(_formed(rows, f"series**{alpha}"))

    def log(self) -> "Series":
        """Logarithm via (log u)' * u = u', rows formed on Python floats, a
        row of one term (an affine base) as that term + 0.0 without fsum;
        needs a positive constant term, NumericError past the float range."""
        u = self.coeffs
        if not u[0] > 0.0:
            raise UnsupportedFormError(f"log(series) needs a positive constant term, got {u[0]}")
        nz, ul = (np.flatnonzero(u[1:]) + 1).tolist(), u.tolist()

        def rows():
            out = [math.log(ul[0])]
            for k in range(1, len(ul)):
                if len(nz) == 1:  # as in pow: at most one term, its fsum is term + 0.0
                    i = nz[0]
                    acc = (k - i) * out[k - i] * ul[i] + 0.0 if k > i else 0.0
                else:
                    acc = math.fsum((k - i) * out[k - i] * ul[i] for i in nz[: bisect_left(nz, k)])
                out.append((k * ul[k] - acc) / (k * ul[0]))
            return out

        return Series(_formed(rows, "log(series)"))

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

    def __repr__(self) -> str:  # pragma: no cover
        head = ", ".join(f"{v:.6g}" for v in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series([{head}{tail}], order={self.order})"
