"""Absorption-time distributions: extinction, explosion, and their minimum.

T_0 is the first generation with no particles, T_1 the first with infinitely
many, T = min(T_0, T_1). All three tails P(n < . < infinity) have closed
forms obtained by evaluating the n-th pgf iterate at 0 and 1. Both ends go
through pgf's gap, gap(n, s) = f_n(s) - q: P(n < T_0 < infinity) = -gap(n, 0)
and P(n < T_1 < infinity) = gap(n, 1). The gap is written in expm1/log1p form
so that tails of size 1e-300 keep full relative precision. It needs a < 1, so
case1 and case2 (where A - q = 0) keep power forms of their own for T_0. The
n-fold composition is exposed as an independent oracle.

Expected absorption times are tail sums E = sum_{n>=0} P(. > n). The case
says which diverge: the critical T_0 tail (1 + cn)^(-1/theta) at theta = 1,
and T for a regular law with q < 1 (survival forever). Every other tail
decays like a^n or a power; its sum closes geometrically below 1e-13 or, still
alive at n = 2^14, with an Euler-Maclaurin integral completion. The package's
port of QUADPACK's QAGS computes its integral, and the error estimate must
stay below 1e-9 * max(1, sum), else NumericError.

The late-explosion limit law: when the one-step escape mass is small the
conditional law of T_1, shifted by log_a(eps), approaches the curve
exp(-w a^y). gumbel_limit packages eps, the regime parameter r and the weight
w; GumbelLimit.lattice sets the exact law against the limit on the lattice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quadpack import quad
from .errors import ConditioningWarning, DomainError, NumericError, RegimeError
from .params import CaseTag, ThetaParams, _integer, case_of, validate_classify
from .pgf import _g, _gap, compose_iterate

__all__ = [
    "AbsorptionTails",
    "absorption_tails",
    "ExpectedAbsorption",
    "expected_absorption",
    "conditional_t1_cdf",
    "GumbelLimit",
    "gumbel_limit",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015329


def _as_n(n):
    arr = np.asarray(n, dtype=float)
    if not np.all(arr >= 0.0):  # NaN fails too
        raise DomainError("generation index must be >= 0")
    return arr


def _ret(n, value):
    return float(value) if np.ndim(n) == 0 else value


class AbsorptionTails:
    """Per-case closed-form tails, plus the composition oracle.

    t0_tail(n) = q - f_n(0) = P(n < T_0 < infinity)
    t1_tail(n) = f_n(1) - q, the mass still above the extinction limit. For
    explosive laws this is P(n < T_1 < infinity); for proper supercritical
    laws it is the constant surviving mass 1 - q (explosion never happens,
    so nothing to condition on there).
    t_tail(n)  = f_n(1) - f_n(0) = P(process still alive at n)

    t0_tail is -gap(n, 0) outside case1 and case2, and t1_tail of an explosive
    law is gap(n, 1), with pgf's gap(n, s) = f_n(s) - q; t_tail reads pgf's _g.

    Each method takes a scalar or array n; real-valued n is accepted because
    the closed forms interpolate smoothly, which is what the integral
    completion of the expectation sums relies on.
    """

    def __init__(self, p: ThetaParams):
        self.params = p
        self.tag: CaseTag = case_of(p)
        self.explosion_mass = 0.0 if self.tag.regular else 1.0 - p.q

    def t0_tail(self, n):
        nn = _as_n(n)
        p = self.params
        cid = self.tag.case_id
        with np.errstate(divide="ignore", over="ignore"):
            if cid == "case1":
                theta, a, d = p.theta, p.a, p.d
                val = a ** (-nn / theta) * (1.0 + d - d * a ** (-nn)) ** (-1.0 / theta)
            elif cid == "case2":
                val = (1.0 + p.c * nn) ** (-1.0 / p.theta)
            else:
                val = -_gap(p, nn, 0.0)
        return _ret(n, val)

    def t1_tail(self, n):
        nn = _as_n(n)
        val = np.full_like(nn, 1.0 - self.params.q) if self.tag.regular else _gap(self.params, nn, 1.0)
        return _ret(n, val)

    def t_tail(self, n):
        nn = _as_n(n)
        p = self.params
        theta, a, q, big_a = p.theta, p.a, p.q, p.big_a
        cid = self.tag.case_id
        if self.tag.regular:
            val = (1.0 - q) + np.asarray(self.t0_tail(n), dtype=float)
            return _ret(n, val)
        if cid == "case6":
            val = a**nn
        elif theta == 0.0:
            an = a**nn
            val = (big_a - q) ** (1.0 - an) * (big_a**an - (big_a - 1.0) ** an)
        else:
            g0, g1 = _g(p, 0.0), _g(p, 1.0)
            an = a**nn
            with np.errstate(divide="ignore"):
                val = (big_a - q) * (
                    (1.0 - an * g0) ** (-1.0 / theta) - (1.0 - an * g1) ** (-1.0 / theta)
                )
        return _ret(n, val)

    # -- oracle ----------------------------------------------------------

    def via_iteration(self, n: int) -> tuple[float, float]:
        """(q - f_n(0), f_n(1) - q) by n actual compositions of f."""
        n = _integer("n", n, 0)
        p = self.params
        return p.q - compose_iterate(p, n, 0.0), compose_iterate(p, n, 1.0) - p.q


def absorption_tails(p: ThetaParams) -> AbsorptionTails:
    return AbsorptionTails(p)


# -- expected absorption times ------------------------------------------


@dataclass(frozen=True)
class ExpectedAbsorption:
    """E(T_0 | extinct), E(T_1 | explodes), E(T); nan marks conditioning on a
    null event, inf with the matching flag marks a sum the case makes diverge."""

    e_t0_given_finite: float
    e_t1_given_finite: float
    e_t: float
    t0_divergent: bool
    t1_divergent: bool
    t_divergent: bool

    def __iter__(self):
        yield from (self.e_t0_given_finite, self.e_t1_given_finite, self.e_t)


_BLOCK = 1 << 10
_N_SWITCH = 1 << 14
_TINY = 1e-13


def _tail_sum(tail_fn) -> float:
    """sum_{n>=0} tail_fn(n) of a convergent tail: closed with the last ratio
    once terms drop below 1e-13, else at n = 2^14 by the integral completion,
    whose quad error estimate must stay below 1e-9 * max(1, sum) (NumericError)."""
    total = 0.0
    for n0 in range(0, _N_SWITCH, _BLOCK):
        nn = np.arange(n0, n0 + _BLOCK, dtype=float)
        vals = np.asarray(tail_fn(nn), dtype=float)
        if np.any(vals < -1e-12):
            raise NumericError("negative tail value in expectation sum")
        total += math.fsum(vals)
        if vals[-1] < _TINY:
            ratio = vals[-1] / vals[-2] if vals[-2] > 0.0 else 0.0
            if 0.0 < ratio < 1.0:
                total += vals[-1] * ratio / (1.0 - ratio)
            return float(total)
    n_sw = float(_N_SWITCH)
    t_full = float(tail_fn(n_sw))
    if t_full <= 0.0:
        return total
    integral, err = quad(
        lambda u: float(tail_fn(1.0 / u)) / u**2,
        0.0,
        1.0 / n_sw,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    h = max(1e-3 * n_sw, 1.0)
    deriv = (float(tail_fn(n_sw + h)) - float(tail_fn(n_sw - h))) / (2.0 * h)
    total += integral + t_full / 2.0 - deriv / 12.0
    if err > 1e-9 * max(1.0, total):
        raise NumericError(f"tail-sum completion: quad error {err:.3g} on a sum of {total:.17g}")
    return total


def expected_absorption(p: ThetaParams) -> ExpectedAbsorption:
    tails = absorption_tails(p)
    tag, q = tails.tag, p.q

    if tag.case_id == "case6":
        exact = 1.0 / (1.0 - p.a)
        e0 = exact if q > 0.0 else _null_conditioning("extinction")
        e1 = exact if tails.explosion_mass > 0.0 else _null_conditioning("explosion")
        return ExpectedAbsorption(e0, e1, exact, False, False, False)

    d0 = tag.case_id == "case2" and p.theta == 1.0  # the harmonic tail 1/(1 + cn)
    if q > 0.0:
        e0 = math.inf if d0 else _tail_sum(tails.t0_tail) / q
    else:
        e0 = _null_conditioning("extinction")

    if tails.explosion_mass > 0.0:
        e1 = _tail_sum(tails.t1_tail) / tails.explosion_mass
    else:
        e1 = _null_conditioning("explosion")

    if tag.regular:  # T = T_0 when q = 1; else it is infinite with mass 1 - q
        et = e0 if q == 1.0 else math.inf
    else:
        et = _tail_sum(tails.t_tail)
    return ExpectedAbsorption(e0, e1, et, d0, False, et == math.inf)


def _null_conditioning(event: str) -> float:
    warnings.warn(
        f"conditioning on {event}, which has probability 0; reporting nan",
        ConditioningWarning,
        stacklevel=3,
    )
    return math.nan


# -- explosion-time conditional law and its limit -----------------------


def conditional_t1_cdf(p: ThetaParams, n) -> float:
    """P(T_1 <= n | T_1 < infinity) for laws with positive escape mass."""
    tails = absorption_tails(p)
    if tails.explosion_mass <= 0.0:
        raise RegimeError(
            f"{tails.tag.case_id} has explosion probability 0; the conditional law is undefined"
        )
    nn = np.asarray(n, dtype=float)
    val = np.where(nn < 0.0, 0.0, 1.0 - tails.t1_tail(np.maximum(nn, 0.0)) / (1.0 - p.q))
    return _ret(n, val)


@dataclass(frozen=True)
class GumbelLimit:
    """Limit-law record for late explosions along a (theta, A) -> (0, 1) path.

    r = lim |theta| * ln(1/(A-1)) classifies the path; eps is |theta| when
    r > 0 and 1/ln(1/(A-1)) when r = 0; the limit cdf of T_1 - log_a(eps)
    given explosion is exp(-w a^y).
    """

    a: float
    q: float
    theta: float | None
    big_a: float
    eps: float
    r: float
    w: float
    mean: float
    shift: float  # log_a(eps), the centering applied to T_1

    def cdf(self, y: float) -> float:
        """The limit cdf exp(-w a^y) at y; 0 where a^y overflows."""
        try:
            return math.exp(-self.w * self.a**y)
        except OverflowError:
            return 0.0

    def lattice(self, n_max: int) -> list[tuple[float, float, float]]:
        """(y, exact, limit) rows: the exact conditional cdf against the limit.

        T_1 lives on the integers, so with a concrete theta the rows are
        n = max(0, ceil(shift - 7))..n_max at y = n - shift, exact being
        P(T_1 <= n | T_1 < infinity). Without one only the limit curve is
        defined: y = -7, -6.5, ..., 12 with exact nan.
        """
        _integer("n_max", n_max, 0)
        if self.theta is None:
            return [(k * 0.5, math.nan, self.cdf(k * 0.5)) for k in range(-14, 25)]
        p, _ = validate_classify({"theta": self.theta, "a": self.a, "A": self.big_a, "q": self.q})
        n_lo = max(0, math.ceil(self.shift - 7.0))
        if n_max < n_lo:
            raise DomainError(f"n_max = {n_max} is below the lattice start {n_lo}")
        return [
            (n - self.shift, float(conditional_t1_cdf(p, n)), self.cdf(n - self.shift))
            for n in range(n_lo, n_max + 1)
        ]


def gumbel_limit(
    a: float,
    q: float,
    *,
    theta: float | None = None,
    big_a: float = 1.0,
    r: float | None = None,
) -> GumbelLimit:
    """The limit law of the shifted explosion time along a declared path.

    The caller fixes a in (0,1) and q in [0,1) and declares the path either
    through a concrete (theta, big_a) pair or a direct regime value r. A
    concrete pair fixes r, and with it eps and w; a declared r is then only
    cross-checked against it.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0,1), got {a}")
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0,1), got {q}")

    if theta is not None:
        if not -1.0 < theta <= 0.0:
            raise RegimeError(f"the limit regime needs theta in (-1, 0], got {theta}")
        if not 1.0 <= big_a < 2.0:
            raise RegimeError(f"the limit regime needs A in [1, 2), got {big_a}")
        if theta == 0.0 and big_a == 1.0:
            raise RegimeError("theta = 0 with A = 1 has no explosions")
        r_path = math.inf if big_a == 1.0 else abs(theta) * math.log(1.0 / (big_a - 1.0))
        if r is not None and not _r_compatible(r, r_path):
            raise RegimeError(f"declared r={r} is inconsistent with (theta, A) giving {r_path}")
        r = r_path
    elif r is None:
        raise RegimeError("declare the regime: give theta (with big_a) or r directly")
    elif not r >= 0.0:
        raise RegimeError(f"r must lie in [0, inf], got {r}")

    if r == 0.0:
        if not 1.0 < big_a < 2.0:
            raise DomainError("the r = 0 branch needs A in (1, 2) so that eps > 0")
        eps, w = 1.0 / math.log(1.0 / (big_a - 1.0)), 1.0
    else:
        eps = abs(theta) if theta is not None else math.nan  # no centering without theta
        w = -math.expm1(-r)  # 1 - e^(-r), exactly 1.0 at r = inf
    mean = (math.log(w) - EULER_GAMMA) / math.log(a)
    shift = math.log(eps) / math.log(a)  # nan with eps
    return GumbelLimit(a, q, theta, big_a, eps, float(r), w, mean, shift)


def _r_compatible(declared: float, from_path: float) -> bool:
    if math.isinf(declared):
        return math.isinf(from_path)
    if declared == 0.0:
        return from_path == 0.0 or from_path < 0.05
    if math.isinf(from_path):
        return False
    return abs(declared - from_path) <= 0.25 * max(1.0, abs(declared))
