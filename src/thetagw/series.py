"""Truncated Taylor series arithmetic at the origin.

This is the series-extraction backbone: coefficients are produced by exact
recurrences (generalized binomial through the J.C.P. Miller power recurrence,
logarithm through its first-order ODE), never by floating-point
differentiation. All operations truncate at a fixed order K. Each coefficient
of a product or power is math.fsum of its row's terms, formed as a
term-by-term loop forms them: fsum rounds the exact sum correctly, so the
coefficients are bitwise the loop's and their error stays at rounding level
even for K in the hundreds. A product takes one fsum of its k + 1 terms per
row. A power forms its rows 32 at a time: _exact_rows splits a row's terms on
earlier blocks, sliced from Hankel views, into a few floats with the same exact
sum, and the block's own terms reach fsum through map. A row of one term
(an affine base's power, any logarithm's) is that term + 0.0, its fsum: -0.0
turns +0.0, inf and nan pass; one numpy pass forms the factors of all such
rows, and only the chain through earlier coefficients loops. Every row has a
Python float loop's bits. The rows come back as one float64 array, which
Series keeps uncopied and numpy checks for finiteness in one pass; a row past
the float range (** or fsum overflowing, inf - inf, or a coefficient that is
not finite) raises NumericError (_formed).
A private hook may end a power's blocks early: pgf's mass extraction stops
once its masses hold f_t(1).

Only what the closed forms of this family need is implemented: affine seeds,
ring operations (subtraction adds the negation), real powers, logarithms of a
base with at most one nonzero term past the constant, differentiation and
argument scaling.
"""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .errors import NumericError, UnsupportedFormError

__all__ = ["Series"]

# rows per block of Series.pow: its views and _exact_rows's temporaries are _BLOCK * K floats
_BLOCK = 32


def _exact_rows(terms: np.ndarray) -> list[list[float]] | None:
    """Per row of terms, a few floats with the row's exact sum; None if a term
    is not finite or at least 2**(1000 - M), or if 60 passes leave a residual.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008)
    189-224): for sigma a power of two >= 2**M * max|r| and 2**M >= width + 2,
    q = (sigma + r) - sigma and r - q are exact and a row's q add up exactly.
    One sigma a pass, from the block's largest |r|, bounds every row and shrinks
    residuals at least 2**(52 - M)-fold; passes share one q and r, terms untouched.
    """
    shift = (terms.shape[1] + 1).bit_length()  # M
    big = max(terms.max(), -terms.min())  # max|term|, nan on a nan
    if not big < 2.0 ** (1000 - shift):
        return None
    parts, r, q = [], terms, np.empty_like(terms)
    while big:
        if len(parts) == 60:
            return None
        sigma = math.ldexp(1.0, math.frexp(big)[1] + shift)
        np.add(r, sigma, out=q)
        q -= sigma
        r = terms - q if r is terms else np.subtract(r, q, out=r)  # terms stay as they are
        parts.append(q.sum(axis=1))
        big = max(r.max(), -r.min())
    return np.transpose(parts).tolist() if parts else [[]] * len(terms)


def _formed(rows, what: str) -> np.ndarray:
    """rows(), the coefficients of what, as one fresh float64 array checked in one
    np.isfinite pass: NumericError if forming them overflows or one is not finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.array(rows(), dtype=float)
    except (OverflowError, ValueError):  # ** or fsum past the float range, or inf - inf
        v = None
    if v is None or not np.isfinite(v).all():
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

    def __neg__(self) -> "Series":
        return Series(-self.coeffs)

    # x - y is x + (-y) in IEEE arithmetic, signed zeros included
    def __sub__(self, other: "Series | float") -> "Series":
        return self + (-other)

    def __rsub__(self, other: float) -> "Series":
        return (-self) + other

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

    def pow(self, alpha: float, _done=None) -> "Series":
        """Real power via the Miller recurrence; needs a positive constant term.

        With v = u**alpha the identity u*v' = alpha*u'*v pins every
        coefficient:  m*u0*v_m = sum_{j=1..m} (j*alpha + (j - m)) * u_j * v_{m-j}.
        Spelled this way the factor at j = m is m*alpha rounded once, so it
        keeps its digits however small alpha is.
        With one nonzero u_j, as an affine base has, row m is its one term
        + 0.0, its fsum; one numpy pass forms all the (j*alpha + (j - m)) * u_j
        and m*u0. Any other base works in blocks of rows m0..m0+31: row m0 + r
        adds in one fsum _exact_rows's split of its terms j = r+1..r+m0 (on
        v_(m0-1)..v_0, from Hankel views made once a call; the terms if it
        refuses) and its terms j <= r, through map on factors made once a block,
        0.0 at a zero u_j. Rows get a Python float generator's bits;
        NumericError past the range. _done(v) at a block end but the last may
        end the rows: the rest read 0.0.
        """
        u = self.coeffs
        if not u[0] > 0.0:
            raise UnsupportedFormError(f"series**{alpha} needs a positive constant term, got {u[0]}")
        n, alpha, js, u0 = self.order, float(alpha), (np.flatnonzero(u[1:]) + 1).tolist(), float(u[0])

        def rows():
            v = [u0 ** alpha]
            if not js:  # a constant: rows m >= 1 are fsums of no terms
                return v + [0.0] * n
            if len(js) == 1:  # one term a row, which fsum returns as term + 0.0
                (j,), m = js, np.arange(js[0], n + 1.0)
                f = ((j * alpha + (j - m)) * u[j]).tolist()  # (j*alpha + (j - m)) * u_j, as floats form it
                v += [0.0] * (j - 1)  # rows m < j: fsum of no terms
                for fm, dm, w in zip(f, (m * u0).tolist(), v):  # w = v_(m-j), appended as the rows go
                    v.append((fm * w + 0.0) / dm)
                return v
            # history views: row r, column i of a block holds the term j = r + 1 + i
            up, ja = np.concatenate((u[1:], np.zeros(_BLOCK - 1))), np.arange(1, n + _BLOCK) * alpha
            hja, hu, jm, vf = _windows(ja, n), _windows(up, n), np.arange(1.0 - n, 1.0), np.full(n + 1, v[0])
            # in-block factors (j*alpha + (j - m)) * u_j, 0.0 where u_j = 0: row r, column j - 1
            uin, jin = up[: _BLOCK - 1], ja[: _BLOCK - 1]
            dj = np.arange(1, _BLOCK) - np.arange(_BLOCK)[:, None]  # j - r, and j - m = j - r - m0
            for m0 in range(1, n + 1, _BLOCK):
                stop = min(m0 + _BLOCK, n + 1)
                t = hja[: stop - m0, :m0] + jm[n - m0 :]
                t *= hu[: stop - m0, :m0]
                t *= vf[m0 - 1 :: -1]  # v_(m0-1)..v_0
                cin = np.where(uin == 0.0, 0.0, (jin + (dj[: stop - m0] - m0)) * uin).tolist()
                if (parts := _exact_rows(t)) is None:  # then all terms in one fsum, zero u_j out
                    hist = np.where(hu[: stop - m0, :m0] == 0.0, 0.0, t).tolist()
                for r, m in enumerate(range(m0, stop)):
                    ins = map(operator.mul, cin[r], v[m - 1 : m0 - 1 : -1])  # j = 1..r
                    v.append(math.fsum([*parts[r], *ins] if parts else [*ins, *hist[r]]) / (m * u0))
                vf[m0:stop] = v[m0:stop]
                if stop <= n and _done is not None and _done(v):
                    return v + [0.0] * (n + 1 - stop)
            return v

        return Series(_formed(rows, f"series**{alpha}"))

    def log(self) -> "Series":
        """Logarithm via (log u)' * u = u' of a base with at most one nonzero u_i
        past u_0: row k subtracts its one term (k - i) * log(u)_(k-i) * u_i,
        formed as that term + 0.0 (its fsum), from k * u_k; one numpy pass forms
        all the k * u_k and k * u_0. Needs a positive constant term; NumericError
        past the float range."""
        u = self.coeffs
        if not u[0] > 0.0:
            raise UnsupportedFormError(f"log(series) needs a positive constant term, got {u[0]}")
        nz, u0 = (np.flatnonzero(u[1:]) + 1).tolist(), float(u[0])
        if len(nz) > 1:
            raise UnsupportedFormError(f"log(series) takes one nonzero term past u_0, got {len(nz)}")

        def rows():
            (i,) = nz or [u.size]  # a constant: no term (i = order + 1)
            k, ui = np.arange(float(u.size)), float(u[i]) if nz else 0.0
            ku, kd = (k * u).tolist(), (k * u0).tolist()
            out = [math.log(u0), *map(operator.truediv, ku[1 : i + 1], kd[1 : i + 1])]  # k <= i: no term
            for a, b, d, w in zip(ku[i + 1 :], (k[i + 1 :] - i).tolist(), kd[i + 1 :], islice(out, 1, None)):
                out.append((a - (b * w * ui + 0.0)) / d)  # w = log(u)_(k-i), appended as the rows go
            return out

        return Series(_formed(rows, "log(series)"))

    def deriv(self) -> "Series":
        """Coefficients of the derivative, truncated at order - 1."""
        n = self.order
        return Series(self.coeffs[1:] * np.arange(1.0, n + 1) if n else np.zeros(1))

    def scale_arg(self, r: float) -> "Series":
        """Substitute s -> r*s."""
        powers = np.power(float(r), np.arange(self.order + 1, dtype=float))
        return Series(self.coeffs * powers)

    def mul_s(self) -> "Series":
        """Multiply by s, dropping the top coefficient to keep the order."""
        return Series(np.concatenate(([0.0], self.coeffs[:-1])))

    def __repr__(self) -> str:  # pragma: no cover
        head = ", ".join(f"{v:.6g}" for v in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series([{head}{tail}], order={self.order})"
