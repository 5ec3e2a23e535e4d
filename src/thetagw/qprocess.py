"""The chain conditioned on staying unabsorbed: harmonic function, kernel,
and limit laws.

Central object: a function Q with Q(q) = 0 satisfying Q(f(s)) = gamma * Q(s)
with gamma = f'(q). Per case:

    a > 1, A = 1 (q = 1):   Q(s) = ((1-s)^(-theta) + d)^(-1/theta)
    a = 1 (critical):       Q identically 0 (no useful conditioning)
    theta = 0:              Q(s) = log((A-s)/(A-q))
    otherwise:              Q(s) = (A-s)^(-theta) - (A-q)^(-theta)

QFunction keeps the raw closed form; normalized scales it to Q'(q) = 1.
The stationary law needs that normalization and forms it in its own series,
while the other limit laws are invariant to scaling.

Derived distributions, all extracted as power series:
  - transition generating function of the conditioned chain,
    s * f_n'(sq)/f_n'(q) * (f_n(sq)/q)^(i-1) for i starting particles;
  - its stationary law, gf s * Q'(sq) after normalization;
  - the limit of the law at generation n conditioned on absorption after n,
    gf 1 - Q(sq)/Q(0);
  - the critical-case analogue from the a = 1 family, gf
    ((1 - s(1 - (1+c)^(-1/theta)))^(-theta) - 1)/c.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError, OverflowGuardError, TrivialLawError
from .params import ThetaParams, _integer, _power, case_of, scalar_summary
from .pgf import _checked_s, _clamp_masses, _in_unit, eval_fn, eval_fn_prime, fn_series
from .series import Series

__all__ = [
    "QFunction",
    "q_transition_gf",
    "q_transition_matrix",
    "LawKind",
    "LimitLaw",
    "stationary_law",
    "conditional_limit_b",
    "critical_limit_w",
]


class LawKind(Enum):
    STATIONARY_Q = "StationaryQ"
    CONDITIONAL_B = "ConditionalB"
    CRITICAL_W = "CriticalW"


@dataclass(frozen=True)
class LimitLaw:
    """Probabilities on j = 1, 2, ...; probs[j-1] is the mass at j."""

    kind: LawKind
    probs: np.ndarray

    @property
    def partial_sum(self) -> float:
        return float(np.sum(self.probs))

    def prob(self, j: int) -> float:
        if _integer("j", j, 1) > len(self.probs):
            raise DomainError(f"j={j} outside the truncated support 1..{len(self.probs)}")
        return float(self.probs[j - 1])


def _law(kind: LawKind, coeffs_from_1: np.ndarray) -> LimitLaw:
    probs = np.array(coeffs_from_1, dtype=float)
    return LimitLaw(kind=kind, probs=_clamp_masses(probs, kind.value, first=1))


class QFunction:
    """Raw closed form; normalized scales it to the Q'(q)=1 version."""

    def __init__(self, p: ThetaParams):
        self.params = p
        self.tag = case_of(p)
        self.gamma = scalar_summary(p).gamma
        self.trivial = self.tag.case_id == "case2"

    def raw(self, s):
        p = self.params
        theta, q, big_a = p.theta, p.q, p.big_a
        ss = _checked_s(p, s)
        with np.errstate(divide="ignore"):
            if self.trivial:
                val = np.zeros_like(ss)
            elif self.tag.case_id == "case1":
                val = ((1.0 - ss) ** (-theta) + p.d) ** (-1.0 / theta)
            elif theta == 0.0:
                val = np.log((big_a - ss) / (big_a - q))
            else:
                val = (big_a - ss) ** (-theta) - (big_a - q) ** (-theta)
        return float(val) if np.ndim(s) == 0 else val

    def normalized(self, s):
        if self.trivial:
            raise TrivialLawError("critical family: Q vanishes identically")
        p = self.params
        if self.tag.case_id == "case1":
            normalizer = -1.0
        elif p.theta == 0.0:
            normalizer = -(p.big_a - p.q)
        else:
            normalizer = _power(p.big_a - p.q, p.theta + 1.0) / p.theta
        return normalizer * self.raw(s)


def _slope_at_q(p: ThetaParams, n: int) -> float:
    """f_n'(q), the kernel's normalizer; it underflows to 0 for a > 1 and
    large n, and below 1/DBL_MAX for subnormal a, where 1/f_n'(q) overflows."""
    den = eval_fn_prime(p, n, p.q)
    if den * sys.float_info.max < 1.0:
        raise OverflowGuardError(f"f_n'(q) = {den} at n = {n}: its inverse overflows")
    return den


def q_transition_gf(p: ThetaParams, i: int, n: int, s) -> float:
    """E(s^(state at n) | start i, conditioned to survive forever).

    Vanishing q leaves nothing to condition the state transitions on.
    """
    if p.q <= 0.0:
        raise DomainError("q = 0: the conditioned transition law degenerates")
    i, n = _integer("i", i, 1), _integer("n", n, 1)
    ss = _in_unit(s)
    q = p.q
    core = ss * eval_fn_prime(p, n, ss * q) / _slope_at_q(p, n)
    if i > 1:
        core = core * (eval_fn(p, n, ss * q) / q) ** (i - 1)
    return float(core) if np.ndim(s) == 0 else core


def q_transition_matrix(p: ThetaParams, n: int, i_max: int, j_max: int) -> np.ndarray:
    """Kernel entries for i in 1..i_max, j in 1..j_max by series extraction.

    Returns shape (i_max, j_max); entry [i-1, j-1] is the i -> j probability
    in n steps of the conditioned chain.
    """
    if p.q <= 0.0:
        raise DomainError("q = 0: the conditioned transition law degenerates")
    order = _integer("j_max", j_max, 0) + 1
    _integer("i_max", i_max, 0)
    _integer("n", n, 1)
    fn = fn_series(p, float(n), order + 1)
    fn_at_sq = fn.scale_arg(p.q)
    deriv_at_sq = fn.deriv().scale_arg(p.q)
    den = _slope_at_q(p, n)
    base = Series(fn_at_sq.coeffs[: order + 1]) * (1.0 / p.q)
    rows = np.empty((i_max, j_max))
    power = Series.affine(1.0, 0.0, order)
    core0 = (deriv_at_sq * (1.0 / den)).mul_s()
    for i in range(1, i_max + 1):
        gf = core0 * power
        rows[i - 1] = gf.coeffs[1 : j_max + 1]
        if i < i_max:
            power = power * base
    return rows


def _conditioned(p: ThetaParams, order: int) -> QFunction:
    """p's Q for a law conditioned on never being absorbed, with order checked;
    the critical family (Q vanishes) and q = 0 (no mass) have no such law."""
    _integer("order", order, 0)
    qf = QFunction(p)
    if qf.trivial:
        raise TrivialLawError("critical family: Q vanishes, use critical_limit_w instead")
    if p.q <= 0.0:
        raise DomainError("q = 0: no mass to condition on")
    return qf


def stationary_law(p: ThetaParams, order: int) -> LimitLaw:
    """Coefficients of s*Q'(sq) with the Q'(q)=1 normalization, j = 1..order."""
    qf = _conditioned(p, order)
    theta, q, big_a = p.theta, p.q, p.big_a
    if qf.tag.case_id == "case1":
        # s * (1 + d*(1-s)^theta)^(-(1+theta)/theta), q = 1
        inner = Series.affine(1.0, -1.0, order).pow(theta) * p.d + 1.0
        gf = inner.pow(-(1.0 + theta) / theta).mul_s()
    else:  # s * ((A-q)/(A-sq))^(1+theta), theta = 0 included
        gf = (
            Series.affine(big_a, -q, order).pow(-theta - 1.0) * _power(big_a - q, theta + 1.0)
        ).mul_s()
    return _law(LawKind.STATIONARY_Q, gf.coeffs[1 : order + 1])


def conditional_limit_b(p: ThetaParams, order: int) -> LimitLaw:
    """Limit law of the population at n given absorption later than n.

    gf 1 - Q(sq)/Q(0); independent of how Q is normalized. NumericError when
    Q(0) = (1 + d)^(-1/theta) underflows to 0 (a > 1, A = q = 1), and when
    cancellation leaves Q(0) fewer than about 8 digits (every other case).
    """
    qf = _conditioned(p, order)
    theta, q, big_a = p.theta, p.q, p.big_a
    q0 = qf.raw(0.0)
    if qf.tag.case_id == "case1":  # (1 + d)^(-1/theta) does not cancel, but may underflow
        if q0 == 0.0:
            raise NumericError(f"Q(0) = (1 + d)^(-1/theta) underflows to 0.0 at d = {p.d}")
    elif q0 == 0.0 or abs(q0) < 1e-8 * max(big_a ** (-theta), (big_a - q) ** (-theta)):
        # a difference of powers, or a log near 0 at theta = 0 (both powers 1)
        raise NumericError(f"Q(0) = {q0} cancels at A = {big_a}: the law loses its digits")
    if qf.tag.case_id == "case1":
        qsq = Series.affine(1.0, -1.0, order).pow(-theta) + p.d
        qsq = qsq.pow(-1.0 / theta)
    elif theta == 0.0:
        qsq = Series.affine(big_a, -q, order).log() - math.log(big_a - q)
    else:
        qsq = Series.affine(big_a, -q, order).pow(-theta) - (big_a - q) ** (-theta)
    gf = 1.0 - qsq * (1.0 / q0)
    return _law(LawKind.CONDITIONAL_B, gf.coeffs[1 : order + 1])


def critical_limit_w(p: ThetaParams, order: int) -> LimitLaw:
    """The a = 1 family's analogue of the conditional limit law: the limit
    law of Z_n given T_0 = n + 1, the population one generation before
    extinction."""
    _integer("order", order, 0)
    tag = case_of(p)
    if tag.case_id != "case2":
        raise DomainError(f"{tag.case_id} is not critical; this law needs a = 1")
    theta, c = p.theta, p.c
    beta = 1.0 - (1.0 + c) ** (-1.0 / theta)
    gf = (Series.affine(1.0, -beta, order).pow(-theta) - 1.0) * (1.0 / c)
    return _law(LawKind.CRITICAL_W, gf.coeffs[1 : order + 1])
