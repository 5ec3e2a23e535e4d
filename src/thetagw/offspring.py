"""Offspring distribution: exact masses, the coefficient triangle, sampling.

Four disjoint pmf routes, dispatched on theta:

- theta in (-1, 0) or (0, 1] generally: p_0 and p_1 in closed form, then
  p_n = a * A^(1-n) * (a + c*A^theta)^(-(1+theta)/theta) / n! *
        sum_i (c*A^theta / (a + c*A^theta))^i * B_{i,n}
  where B is the triangle B_{i,n} = (n-2-i*theta) B_{i,n-1}
  + (1+i*theta) B_{i-1,n-1}, seeded with B_{1,2} = 1+theta. The recursion is
  run on row-scaled values B_{i,n} x^i A^{1-n} / n! so nothing overflows even
  for tables of length 10^4. For theta < 0 the rows change sign and their
  sums cancel; pmf warns (ConditioningWarning) from the first order whose
  error estimate passes 1e-9.
- theta = -1/m for integer m >= 2: the pgf is A minus the m-th power of
  a*(A-s)^(1/m) + c, a finite binomial sum of fractional-power series; each
  series has a two-term coefficient ratio, so the whole pmf costs O(m*K) and
  tables can reach 10^6 entries (needed: these laws have k^(-2+1/m) tails).
- theta = 0: closed p_0, p_1, then the two-term ratio
  p_n = p_{n-1} * (n-a-1) / (n*A), giving the A^(-n) * n^(-1-a) tail.
- theta = -1: the exact two-point law p_0 = (1-a)q, p_1 = a.

The independent oracle for all of them is series extraction of the pgf
(pmf_oracle). Sampling is inverse-CDF on an OffspringTable of masses, an
escape mass and a cap. _pmf_table(p), a fresh table of escape 1 - f(1) and
the largest order pmf computes (10^6 for the O(K) routes, 10^4 for the
triangle), doubles on demand and raises TruncationError for a draw uncovered
at the cap; simulate.py caches one per law, up to 2^21 boundaries in all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, DomainError, NumericError, TruncationError
from .params import ThetaParams, _integer, case_of, scalar_summary
from .pgf import _clamp_masses, series_coeffs

__all__ = [
    "BTriangle",
    "b_triangle",
    "pmf",
    "pmf_oracle",
    "theta0_scaled_tail",
    "OffspringTable",
    "sample_offspring",
    "INFINITE",
]

#: value returned for an explosive offspring draw
INFINITE = math.inf

#: largest pmf order per route
K_MAX_RATIO = 10**6  # theta = 0, -1 and -1/m (O(K))
K_MAX_TRIANGLE = 10**4  # the triangle route (O(K^2))


@dataclass(frozen=True)
class BTriangle:
    """Raw triangle values B_{i,n} for 1 <= i <= n-1, 2 <= n <= n_max.

    Entries grow factorially and are allowed to overflow to +/-inf for large
    n; the sign, which is what the nonnegativity property inspects, survives
    overflow. The pmf route never uses this raw table.
    """

    theta: float
    n_max: int
    table: np.ndarray  # table[n, i]

    def value(self, i: int, n: int) -> float:
        if not (2 <= n <= self.n_max and 1 <= i <= n - 1):
            raise DomainError(f"B_{{{i},{n}}} outside the triangle (n_max={self.n_max})")
        return float(self.table[n, i])

    def row(self, n: int) -> np.ndarray:
        if not 2 <= n <= self.n_max:
            raise DomainError(f"row {n} outside 2..{self.n_max}")
        return self.table[n, 1:n].copy()


def b_triangle(theta: float, n_max: int) -> BTriangle:
    """Full triangle on explicit request; pmf uses a scaled streaming row."""
    if not -1.0 < theta <= 1.0 or theta == 0.0:
        raise DomainError(f"triangle is defined for theta in (-1,0) or (0,1], got {theta}")
    _integer("n_max", n_max, 2)
    t = np.zeros((n_max + 1, n_max + 1))
    t[2, 1] = 1.0 + theta
    idx = np.arange(n_max + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(3, n_max + 1):
            t[n, 1:n] = (n - 2.0 - idx[1:n] * theta) * t[n - 1, 1:n] + (
                1.0 + idx[1:n] * theta
            ) * t[n - 1, 0 : n - 1]
    return BTriangle(theta=theta, n_max=n_max, table=t)


def _pmf_triangle(p: ThetaParams, order: int) -> np.ndarray:
    theta, a, c, big_a = p.theta, p.a, p.c, p.big_a
    probs = np.zeros(order + 1)
    probs[0] = big_a - (a * big_a ** (-theta) + c) ** (-1.0 / theta)
    if order >= 1:
        denom = a + c * big_a**theta
        probs[1] = a * denom ** (-1.0 - 1.0 / theta)
    if order >= 2:
        x = c * big_a**theta / denom
        pref = a * denom ** (-(1.0 + theta) / theta)
        # w[i] = B_{i,n} * x^i * A^(1-n) / n!, advanced one n at a time
        w = np.zeros(order + 1)
        w[1] = (1.0 + theta) * x / (2.0 * big_a)
        probs[2] = pref * w[1]
        idx = np.arange(order + 1, dtype=float)
        grow = 1.0 + idx * theta
        watch = theta < 0.0  # for theta > 0 every w is >= 0, so nothing cancels
        for n in range(3, order + 1):
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                w[1:n] = ((n - 2.0 - idx[1:n] * theta) * w[1:n] + grow[1:n] * x * w[0 : n - 1]) / (
                    n * big_a
                )
            try:
                probs[n] = pref * math.fsum(w[1:n])
            except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
                probs[n] = math.inf
            if not math.isfinite(probs[n]):
                raise NumericError(f"the triangle's scaled rows overflow at order {n}")
            # each w carries about n rounding errors of its own size
            if watch and pref * math.fsum(np.abs(w[1:n])) * n * 2.0**-53 > 1e-9:
                warnings.warn(
                    f"the triangle cancels from order {n} on: masses may be off by over 1e-9",
                    ConditioningWarning,
                    stacklevel=3,
                )
                watch = False
    return probs


def _pmf_theta0(p: ThetaParams, order: int) -> np.ndarray:
    a, big_a, q = p.a, p.big_a, p.q
    probs = np.zeros(order + 1)
    probs[0] = big_a - (big_a - q) ** (1.0 - a) * big_a**a
    if order >= 1:
        probs[1] = (big_a - q) ** (1.0 - a) * a * big_a ** (a - 1.0)
    if order >= 2:
        n = np.arange(2, order + 1, dtype=float)
        probs[2:] = probs[1] * np.cumprod((n - a - 1.0) / (n * big_a))
    return probs


def _neg_recip_m(theta: float) -> int | None:
    """m >= 2 when theta = -1/m exactly (within float noise), else None."""
    if not -1.0 < theta < 0.0:
        return None
    m = round(-1.0 / theta)
    if m >= 2 and abs(theta + 1.0 / m) < 1e-12:
        return int(m)
    return None


def _pmf_neg_recip(p: ThetaParams, order: int, m: int) -> np.ndarray:
    a, c, big_a = p.a, p.c, p.big_a
    probs = np.zeros(order + 1)
    probs[0] = big_a - (a * big_a ** (1.0 / m) + c) ** m
    if order == 0:
        return probs
    # in place, in the order of the plain expressions, so the bits match them
    k = np.arange(1.0, order + 1.0)
    acc = probs[1:]
    w = np.empty(order)
    for j in range(1, m + 1):
        beta = j / m
        try:
            pref = math.comb(m, j) * a**j * c ** (m - j)
        except OverflowError:
            raise NumericError(f"the theta = -1/{m} route overflows at term {j}") from None
        if pref == 0.0:
            continue
        # [s^k](A-s)^beta via the ratio (beta-k)/(k+1) * (-1/A)
        w[0] = -beta * big_a ** (beta - 1.0)
        ratio = w[1:]
        np.subtract(beta, k[:-1], out=ratio)
        ratio /= k[1:]
        ratio *= -1.0 / big_a
        np.cumprod(ratio, out=ratio)
        ratio *= w[0]
        w *= pref
        acc += w
    np.negative(acc, out=acc)
    return probs


def _k_max_of(p: ThetaParams) -> int:
    """The largest order pmf computes for p: its route's cap."""
    ratio = p.theta in (0.0, -1.0) or _neg_recip_m(p.theta) is not None
    return K_MAX_RATIO if ratio else K_MAX_TRIANGLE


def pmf(p: ThetaParams, order: int) -> np.ndarray:
    """Offspring masses p_0..p_order up to the route's cap; clamped at 1e-12."""
    _integer("order", order, 0)
    case_of(p)
    if order > _k_max_of(p):
        raise DomainError(f"order {order} exceeds {_k_max_of(p)}, the largest this route computes")
    m = _neg_recip_m(p.theta)
    if p.theta == -1.0:
        probs = np.zeros(order + 1)
        probs[0] = (1.0 - p.a) * p.q
        if order >= 1:
            probs[1] = p.a
    elif p.theta == 0.0:
        probs = _pmf_theta0(p, order)
    elif m is not None:
        probs = _pmf_neg_recip(p, order, m)
    else:
        probs = _pmf_triangle(p, order)
    return _clamp_masses(probs, "p")


def pmf_oracle(p: ThetaParams, order: int) -> np.ndarray:
    """Independent pmf route: series extraction of the pgf coefficients."""
    return series_coeffs(p, order).coeffs


def theta0_scaled_tail(p: ThetaParams, n_lo: int, n_hi: int) -> np.ndarray:
    """p_n * A^n for n in [n_lo, n_hi], theta = 0 only.

    The raw masses underflow for A > 1 at large n; the A-free product
    p_n A^n = p_1 A * prod_{k=2..n} (k-1-a)/k stays representable and is what
    the n^(-1-a) tail statement is about.
    """
    if p.theta != 0.0:
        raise DomainError("scaled tail is a theta = 0 diagnostic")
    _integer("n_hi", n_hi, _integer("n_lo", n_lo, 1))
    a = p.a
    p1_scaled = (p.big_a - p.q) ** (1.0 - a) * a * p.big_a**a
    k = np.arange(2, n_hi + 1, dtype=float)
    scaled = np.concatenate(([p1_scaled], p1_scaled * np.cumprod((k - 1.0 - a) / k)))
    return scaled[n_lo - 1 :]


def _cumulative(escape: float, masses: np.ndarray) -> np.ndarray:
    """Inverse-CDF cells: [escape, escape + m_0, escape + m_0 + m_1, ...]."""
    bounds = np.empty(masses.size + 1)
    bounds[0] = escape
    np.cumsum(masses, out=bounds[1:])
    bounds[1:] += escape
    return bounds


def _counts(bounds: np.ndarray, u):
    """The inverse-CDF map: the count k of the cell holding each uniform u,
    -1 in the escape cell and bounds.size - 1 beyond the table."""
    return np.searchsorted(bounds, u, side="right") - 1


class OffspringTable:
    """Sampling table: cumulative masses with the escape mass in front.

    masses(order) gives the masses m_0..m_order, escape the mass of an
    Infinite draw (p_inf) and k_max the largest order masses takes.
    boundaries[0] = p_inf and boundaries[k+1] = p_inf + m_0 + ... + m_k, so a
    uniform draw u maps to Infinite when u < boundaries[0] and to the count k
    whose cell contains it otherwise. The table starts at 256 entries;
    extension doubles its length up to k_max. Row k of masses(order) must not
    depend on order (true of pmf and of h_coeffs), so extension reproduces
    the existing prefix bit for bit and draws are stable under it.
    """

    def __init__(self, masses, escape: float, k_max: int):
        self._masses, self.p_inf, self.k_max = masses, escape, k_max
        self._rebuild(min(256, k_max))

    order = property(lambda self: self.boundaries.size - 2)  # a build that raises keeps it

    def _rebuild(self, order: int) -> None:
        self.boundaries = _cumulative(self.p_inf, self._masses(order))

    @property
    def coverage(self) -> float:
        """Total mass the table resolves exactly: the escape plus m_0..m_order."""
        return float(self.boundaries[-1])

    def ensure_coverage(self, u: float) -> bool:
        """Extend by doubling until u falls inside the table; False if capped."""
        while u >= self.boundaries[-1]:
            if self.order >= self.k_max:
                return False
            self._rebuild(min(2 * self.order, self.k_max))
        return True

    def lookup(self, u: float) -> float:
        """Map one uniform draw to a count, Infinite, or raise TruncationError."""
        if not self.ensure_coverage(u):
            raise TruncationError(
                f"draw lands beyond k_max={self.k_max} "
                f"(covered mass {self.coverage:.17g})"
            )
        k = int(_counts(self.boundaries, u))
        return INFINITE if k < 0 else k


def _pmf_table(p: ThetaParams) -> OffspringTable:
    """The sampling table of p's offspring law, capped at its pmf route's cap."""
    return OffspringTable(lambda k: pmf(p, k), scalar_summary(p).p_inf, _k_max_of(p))


def sample_offspring(table: OffspringTable, rng: np.random.Generator) -> float:
    """One offspring draw: a nonnegative integer count, or INFINITE.

    Consumes exactly one uniform. Draws beyond the covered mass extend the
    table (doubling up to k_max) and abort loudly with TruncationError rather
    than silently truncating.
    """
    return table.lookup(float(rng.random()))
