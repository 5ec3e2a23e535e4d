"""Evaluation of the offspring pgf, its explicit iterates and their series.

The family is closed under composition: the n-th iterate has the same shape
with a replaced by a**n and c replaced by c*(a**n - 1)/(a - 1) (or n*c when
a = 1), and n may be any nonnegative real t, which is what the continuous-time
embedding uses. compose_iterate is the deliberately naive n-fold composition
kept as an oracle against the closed form.

Arguments live in [0, A]; s = A is evaluated by the continuous limit (for
theta > 0 the inner bracket diverges and f(A) = A). Rounding just outside
reads as the end point: up to 1e-14 above A, and down to -1e-14/|theta| below
0 (the closed form rounds by about eps/|theta|). For theta > 0, s within 1e-14
below A is snapped to A too; for theta <= 0, f is steep at A ((A - s)^|theta|)
and such a snap would move it by up to 1e-14^|theta|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, OverflowGuardError
from .params import ThetaParams, _integer, case_of, scalar_summary
from .series import Series

__all__ = [
    "eval_f",
    "eval_fn",
    "eval_fn_prime",
    "compose_iterate",
    "fn_series",
    "SeriesTruncation",
    "series_coeffs",
    "gamma_of",
]

#: how far outside [0, A] (and, for theta > 0, below A) s is read as the end point
_EDGE_SNAP = 1e-14

#: masses and coefficients within this of zero are clamped to exactly zero
_MASS_CLAMP = 1e-12


def _clamp_masses(arr: np.ndarray, label: str, first: int = 0) -> np.ndarray:
    """Zero the entries of arr within 1e-12 of 0, in place; one below -1e-12
    is no mass and raises NumericError naming label_(k + first)."""
    low = arr < -_MASS_CLAMP
    if np.any(low):
        k = int(np.argmax(low))
        raise NumericError(f"{label}_{k + first} = {arr[k]} is negative beyond the 1e-12 clamp")
    arr[(arr < _MASS_CLAMP) & (arr > -_MASS_CLAMP)] = 0.0
    return arr


def _iterated_constants(p: ThetaParams, t: float) -> tuple[float, float]:
    """(a_t, c_t) for the t-fold iterate; exact integer powers when t is one.

    a_t saturates to inf when it overflows (a > 1, so theta > 0), and so does
    c_t; the theta > 0 closed form then takes its t -> inf limit. For any
    other theta that limit is infinite and OverflowGuardError is raised.
    """
    if not t >= 0.0:  # NaN fails too
        raise DomainError(f"iteration count must be >= 0, got {t}")
    a = p.a
    try:
        if float(t).is_integer():
            at = a ** int(t)
        else:
            at = math.exp(t * math.log(a)) if a != 1.0 else 1.0
    except OverflowError:
        if p.theta <= 0.0:
            raise OverflowGuardError(f"a**t overflows at t = {t}; the iterate diverges") from None
        at = math.inf
    if a == 1.0:
        ct = p.c * t
    elif abs(a - 1.0) < 1e-4 and not math.isinf(at):
        # a_t - 1 loses about eps/|a - 1| of its digits near a = 1; expm1 none
        ct = p.c * math.expm1(t * math.log(a)) / (a - 1.0)
    else:
        ct = p.c * (at - 1.0) / (a - 1.0)
    return at, ct


def _eval_family(theta: float, a_t: float, c_t: float, big_a: float, q: float, s):
    """Core closed form shared by eval_f and eval_fn."""
    if theta == -1.0:
        return a_t * s + (1.0 - a_t) * q
    with np.errstate(divide="ignore", invalid="ignore"):
        if theta == 0.0:
            val = big_a - (big_a - q) ** (1.0 - a_t) * np.power(big_a - s, a_t)
        else:
            val = big_a - np.power(a_t * np.power(big_a - s, -theta) + c_t, -1.0 / theta)
    # f_t(A) = A for theta >= 0, also where a_t underflows to 0 (0**0, 0*inf)
    return np.where(s == big_a, big_a, val) if theta >= 0.0 else val


def _checked_s(p: ThetaParams, s):
    arr = np.asarray(s, dtype=float)
    low = _EDGE_SNAP / min(1.0, abs(p.theta) or 1.0)
    if not (np.all(arr >= -low) and np.all(arr <= p.big_a + _EDGE_SNAP)):  # NaN fails too
        raise DomainError(f"s must lie in [0, A] = [0, {p.big_a}]")
    arr = np.where(arr < 0.0, 0.0, arr)
    top = p.big_a - _EDGE_SNAP if p.theta > 0.0 else p.big_a
    return np.where(arr > top, p.big_a, arr)


def eval_f(p: ThetaParams, s):
    """Offspring pgf f(s); accepts a scalar or array s in [0, A]."""
    arr = _checked_s(p, s)
    out = _eval_family(p.theta, p.a, p.c, p.big_a, p.q, arr)
    return float(out) if np.ndim(s) == 0 else out


def eval_fn(p: ThetaParams, t: float, s):
    """t-fold iterate f_t(s) in closed form; t is any nonnegative real."""
    arr = _checked_s(p, s)
    a_t, c_t = _iterated_constants(p, t)
    out = _eval_family(p.theta, a_t, c_t, p.big_a, p.q, arr)
    return float(out) if np.ndim(s) == 0 else out


def eval_fn_prime(p: ThetaParams, t: float, s):
    """Derivative of the t-fold iterate with respect to its argument."""
    arr = _checked_s(p, s)
    a_t, c_t = _iterated_constants(p, t)
    theta, big_a = p.theta, p.big_a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if theta == 0.0:
            out = (big_a - p.q) ** (1.0 - a_t) * a_t * np.power(big_a - arr, a_t - 1.0)
        elif theta == -1.0:
            out = np.full_like(arr, a_t)
        else:
            inner = a_t * np.power(big_a - arr, -theta) + c_t
            out = a_t * np.power(big_a - arr, -theta - 1.0) * np.power(
                inner, -(1.0 + theta) / theta
            )
            if math.isinf(a_t):
                # the t -> inf limit: a_t**(-1/theta) and everything else go to 0
                out = np.zeros_like(arr)
            elif theta > 0.0 and np.any(arr == big_a):
                # inf * 0 at s = A; the limit is a_t**(-1/theta)
                out = np.where(arr == big_a, np.power(a_t, -1.0 / theta), out)
    return float(out) if np.ndim(s) == 0 else out


def compose_iterate(p: ThetaParams, n: int, s):
    """n-fold composition of eval_f; the oracle the closed form is tested against.

    Every intermediate must stay in [0, A]; if rounding pushes one outside by
    more than 1e-12 the composition is unsound and OverflowGuardError is
    raised (tiny excursions are clamped).
    """
    if not float(n).is_integer() or n < 0:
        raise DomainError(f"composition count must be a nonnegative integer, got {n}")
    value = _checked_s(p, s)
    for _ in range(int(n)):
        value = eval_f(p, value)
        arr = np.asarray(value, dtype=float)
        if np.any(arr < -1e-12) or np.any(arr > p.big_a + 1e-12):
            raise OverflowGuardError(
                "iterate left [0, A]; composition aborted"
            )
        value = np.clip(arr, 0.0, p.big_a)
    out = np.asarray(value, dtype=float)
    return float(out) if np.ndim(s) == 0 else out


def fn_series(p: ThetaParams, t: float, order: int) -> Series:
    """Taylor coefficients at 0 of the t-fold iterate, by series arithmetic.

    Built from generalized-binomial expansions of (A - s) powers (and its
    logarithm for theta = 0), never from numerical differentiation.
    """
    _integer("order", order, 0)
    a_t, c_t = _iterated_constants(p, t)
    if math.isinf(a_t):
        raise OverflowGuardError(f"a**t overflows at t = {t}; no series of the saturated iterate")
    theta, big_a, q = p.theta, p.big_a, p.q
    base = Series.affine(big_a, -1.0, order)
    if theta == 0.0:
        v = base.pow(a_t) * (big_a - q) ** (1.0 - a_t)
        return big_a - v
    if theta == -1.0:
        return Series.affine((1.0 - a_t) * q, a_t, order)
    inner = base.pow(-theta) * a_t + c_t
    return big_a - inner.pow(-1.0 / theta)


@dataclass(frozen=True)
class SeriesTruncation:
    """First K+1 pgf coefficients plus the exact mass they leave uncovered.

    tail_mass_bound = f(1) - sum(coeffs): the probability, if any, carried by
    indices above K. It excludes the escape mass 1 - f(1).
    """

    coeffs: np.ndarray
    tail_mass_bound: float


def series_coeffs(p: ThetaParams, order: int, t: float = 1.0) -> SeriesTruncation:
    """pgf coefficients of the t-fold iterate as a checked truncation.

    Coefficients are clamped by _clamp_masses; a coefficient sum exceeding
    f_t(1) beyond rounding raises NumericError.
    """
    case_of(p)  # reject unclassifiable bundles before doing work
    coeffs = _clamp_masses(fn_series(p, t, order).coeffs.copy(), "f_t coefficient")
    total = float(eval_fn(p, t, 1.0))
    tail = total - float(np.sum(coeffs))
    if tail < -1e-9:
        raise NumericError(f"coefficient sum exceeds f_t(1) by {-tail}")
    return SeriesTruncation(coeffs=coeffs, tail_mass_bound=max(tail, 0.0))


def gamma_of(p: ThetaParams) -> float:
    """f'(q): the decay rate of conditioned survival, a**(-1/theta) in case1, else a."""
    return scalar_summary(p).gamma
