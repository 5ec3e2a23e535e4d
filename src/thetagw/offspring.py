"""Offspring distribution: exact masses, the coefficient triangle, sampling.

Four disjoint pmf routes; _route(p) picks p's route, dispatched on theta, and
its cap, the largest order that route computes:

- theta in (0, 1]: p_0 and p_1 in closed form, then
  p_n = a * A^(1-n) * (a + c*A^theta)^(-(1+theta)/theta) / n! *
        sum_i (c*A^theta / (a + c*A^theta))^i * B_{i,n}
  where B is the triangle B_{i,n} = (n-2-i*theta) B_{i,n-1}
  + (1+i*theta) B_{i-1,n-1}, seeded with B_{1,2} = 1+theta. The recursion is
  run on row-scaled values B_{i,n} x^i A^{1-n} / n! so nothing overflows even
  for tables of length 10^4. Every term is >= 0, so the row sums keep their
  digits.
- theta in [-1, 0) off the lattice below: series extraction of the pgf
  (fn_series), whose rows are exact sums. The triangle's rows change sign
  here and their sums cancel. At theta = -1 fn_series is the affine series
  of the two-point law p_0 = (1-a)q, p_1 = a, which costs O(K).
- theta = -1/m for integer 2 <= m <= 1029 (C(m, m/2) is a float): the pgf is
  A minus the m-th power of a*(A-s)^(1/m) + c, a finite binomial sum of
  fractional-power series; each series has a two-term coefficient ratio, so
  the whole pmf costs O(m*K) and tables can reach 10^6 entries (needed: these
  laws have k^(-2+1/m) tails). A larger m takes the series route.
- theta = 0: closed p_0, p_1, then the two-term ratio
  p_n = p_{n-1} * (n-a-1) / (n*A), giving the A^(-n) * n^(-1-a) tail.

pmf_oracle is series extraction for every theta: an independent check of the
other routes, and the series route itself. Sampling is inverse-CDF on an
OffspringTable of masses, an escape mass and a cap. _pmf_table(p), a fresh
table of escape 1 - f(1) capped at _route's cap (10^6 for the O(K) laws:
theta = 0, -1 and -1/m; 10^4 for the rest), doubles on demand and raises
TruncationError for a draw uncovered at the cap; simulate.py caches one per
law, up to 2^21 boundaries in all.

_counts maps uniforms through a table's boundaries, splitting a big map across
the cores the process may run on (see its docstring). estimate_tails's pool
workers each map on their share of the cores (_share_cores), so the workers'
threads do not outnumber the cores.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, NumericError, TruncationError
from .params import K_MAX_RATIO, ThetaParams, _integer, _power, case_of, scalar_summary
from .pgf import _clamp_masses, eval_fn, fn_series, series_coeffs

__all__ = [
    "BTriangle",
    "b_triangle",
    "pmf",
    "pmf_oracle",
    "theta0_scaled_tail",
    "OffspringTable",
    "INFINITE",
]

#: value returned for an explosive offspring draw
INFINITE = math.inf

#: largest pmf order per route; K_MAX_RATIO, in params, caps the O(K) ones
K_MAX_TRIANGLE = 10**4  # the triangle, and the series route off theta = -1 (O(K^2))

try:  # the cores this process may run on: its pool's clamp and its map's threads
    _cores = len(os.sched_getaffinity(0))
except AttributeError:  # a platform with no affinity mask
    _cores = os.cpu_count() or 1
_SPLIT = 2**15  # keys per map thread: a map of fewer than 2 * _SPLIT runs on one
_CHUNK = 2**14  # keys a map thread maps at a time


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
        i = _integer("i", i, 1)
        if _integer("n", n, i + 1) > self.n_max:
            raise DomainError(f"B_{{{i},{n}}} outside the triangle (n_max={self.n_max})")
        return float(self.table[n, i])

    def row(self, n: int) -> np.ndarray:
        if _integer("n", n, 2) > self.n_max:
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
    """m >= 2 when theta = -1/m exactly (within float noise), else None; m stops
    at 1029, the last m whose C(m, j) are all floats."""
    if not -1.0 < theta < 0.0:
        return None
    m = round(-1.0 / theta)
    if 2 <= m <= 1029 and abs(theta + 1.0 / m) < 1e-12:
        return int(m)
    return None


def _pmf_neg_recip(p: ThetaParams, order: int, m: int) -> np.ndarray:
    a, c, big_a = p.a, p.c, p.big_a
    probs = np.zeros(order + 1)
    probs[0] = big_a - _power(a * big_a ** (1.0 / m) + c, m)
    if order == 0:
        return probs
    # in place, in the order of the plain expressions, so the bits match them
    k = np.arange(1.0, order + 1.0)
    acc = probs[1:]
    w = np.empty(order)
    for j in range(1, m + 1):
        beta = j / m
        pref = math.comb(m, j) * a**j * c ** (m - j)
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


def _route(p: ThetaParams):
    """p's pmf route, masses(p, order) before the clamp, and its cap."""
    if p.theta == 0.0:
        return _pmf_theta0, K_MAX_RATIO
    if (m := _neg_recip_m(p.theta)) is not None:
        return partial(_pmf_neg_recip, m=m), K_MAX_RATIO
    if p.theta < 0.0:  # theta = -1 included: fn_series is the affine (1-a)q + a*s, O(K)
        cap = K_MAX_RATIO if p.theta == -1.0 else K_MAX_TRIANGLE
        return (lambda p, order: fn_series(p, 1.0, order, _total=eval_fn(p, 1.0, 1.0)).coeffs), cap
    return _pmf_triangle, K_MAX_TRIANGLE


def pmf(p: ThetaParams, order: int) -> np.ndarray:
    """Offspring masses p_0..p_order up to the route's cap; clamped at 1e-12."""
    _integer("order", order, 0)
    case_of(p)
    masses, cap = _route(p)
    if order > cap:
        raise DomainError(f"order {order} exceeds {cap}, the largest this route computes")
    return _clamp_masses(masses(p, order), "p")


def pmf_oracle(p: ThetaParams, order: int) -> np.ndarray:
    """Series extraction of the pgf coefficients: independent of every pmf route
    but the series one (theta in [-1, 0) off the -1/m lattice), which is it.
    Masses past those that hold all of f(1) but 2**-41 are not formed (series_coeffs)."""
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


def _share_cores(n: int) -> None:
    """Pool initializer: a worker maps on its share n of the cores."""
    global _cores
    _cores = n


def _counts(bounds: np.ndarray, u) -> np.ndarray:
    """The inverse-CDF map: the count k of the cell holding each uniform u,
    -1 in the escape cell and bounds.size - 1 beyond the table.

    With n = min(_cores, u.size // _SPLIT) >= 2, u (1-D or 2-D) is split
    along axis 0 into n parts: a pool of n - 1 threads and the caller each
    write their part of one result, since searchsorted releases the GIL.
    Each maps at most _CHUNK keys (or one row) at a time, which keeps the
    threads' malloc arenas, and so the peak memory, small. The pool is shut
    down, every thread joined, before the call returns, so no thread
    outlives it and a later fork is safe, and a helper's exception is raised
    in the caller. A smaller map is one searchsorted call on the caller's
    thread, where a thread's start would cost more than it saves.
    """
    n = min(_cores, np.size(u) // _SPLIT)
    if n < 2:
        return np.searchsorted(bounds, u, side="right") - 1
    from concurrent.futures import ThreadPoolExecutor
    out = np.empty(u.shape, dtype=np.intp)
    rows = len(u)
    step = max(1, _CHUNK * rows // u.size)  # rows a chunk maps
    edges = [rows * i // n for i in range(n + 1)]

    def run(lo: int, hi: int) -> None:
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            np.subtract(np.searchsorted(bounds, u[a:b], side="right"), 1, out=out[a:b])

    with ThreadPoolExecutor(n - 1) as pool:
        parts = [pool.submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
        run(edges[0], edges[1])
    for part in parts:  # the pool is shut down: a helper's exception, if any, is raised here
        part.result()
    return out


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
        """Map one uniform u in [0, 1) to a count, Infinite, or raise TruncationError."""
        if not 0.0 <= u < 1.0:  # NaN fails too, before the table grows
            raise DomainError(f"a uniform draw must lie in [0, 1), got {u}")
        if not self.ensure_coverage(u):
            raise TruncationError(
                f"draw lands beyond k_max={self.k_max} "
                f"(covered mass {self.coverage:.17g})"
            )
        k = int(_counts(self.boundaries, u))
        return INFINITE if k < 0 else k


def _pmf_table(p: ThetaParams) -> OffspringTable:
    """The sampling table of p's offspring law, capped at its pmf route's cap."""
    return OffspringTable(lambda k: pmf(p, k), scalar_summary(p).p_inf, _route(p)[1])

