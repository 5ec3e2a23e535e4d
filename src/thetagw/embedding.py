"""Continuous-time construction behind the discrete family.

Every law in the family is the time-1 skeleton of a continuous-time Markov
branching process: particles live Exp(lambda) lifetimes and branch by an
offspring pgf h, and the discrete pgf iterates interpolate to the semigroup
F_t = eval at real t. This module builds (h, lambda, mu = h'(1)) per case,
expands h into coefficients, and checks the defining identity

    integral_{s}^{F_t(s)} dx / (h(x) - x) = lambda * t

by adaptive quadrature: the package's port of QUADPACK's QAGS, which gives
scipy.integrate.quad's result bit for bit. The integrand has a simple pole at
the extinction limit q (and at 1 for proper h), so callers must keep the path
on one side.

Four shapes of h arise:

  - a-geq-1 and critical/supercritical A = 1, theta > 0 ("mu form"):
        h(s) = 1 - mu*(1-s) + mu/(1+theta)*(1-s)^(1+theta)
  - theta != 0 with general (A, q) pinned at both ends ("Aq form"):
        h(s) = s + ((A-s)^(1+theta) - (A-q)^theta*(A-s)) / D,
        D = (1+theta)*A^theta - (A-q)^theta
  - theta = 0 ("log form"): h(s) = s + (A-s)*(ln(A-s) - ln(A-q)) / E,
        E = 1 + ln A - ln(A-q); for A = 1 the coefficients are the explicit
        h_k = (1-h_0)/(k(k-1)), and A > 1 is its dual rescaling
  - the two-point branch: h identically q (defective: escape mass 1-q)

mu may be infinite (A = 1 with theta <= 0 shapes); lambda is always a
positive rate after fixing the sign of ln a per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadpack import quad
from .errors import DomainError, NumericError, SingularPathError
from .params import ThetaParams, _integer, case_of
from .pgf import _MASS_CLAMP, SeriesTruncation, _clamp_masses, _in_unit, eval_fn
from .series import Series

__all__ = [
    "Embedding",
    "build_embedding",
    "h_eval",
    "h_coeffs",
    "integral_residual",
]


@dataclass(frozen=True)
class Embedding:
    params: ThetaParams
    form: str  # "mu" | "aq" | "log" | "const"
    lam: float
    mu: float  # h'(1), may be inf; the mu of the mu form
    norm: float  # h's denominator: D in the aq form, E in the log form, else nan
    # h(1): 1 for proper h, q for the two-point branch; the A > 1 laws with
    # q < 1 keep an instantaneous escape mass, so h(1) < 1 there too
    h_at_1: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_at_1", float(h_eval(self, 1.0)))


def build_embedding(p: ThetaParams) -> Embedding:
    theta, a, q, big_a = p.theta, p.a, p.q, p.big_a
    cid = case_of(p).case_id
    norm = math.nan
    if cid == "case6":
        form, lam, mu = "const", math.log(1.0 / a), 0.0
    elif cid == "case1":
        d = p.d
        form, mu = "mu", (1.0 + theta) * d / ((1.0 + theta) * d + 1.0)
        lam = ((1.0 + 1.0 / theta) * d + 1.0 / theta) * math.log(a)
    elif cid == "case2":
        lam = (1.0 + 1.0 / theta) * p.c
        form, mu = "mu", 1.0
    elif cid == "case3":
        form, mu = "mu", _ratio(1.0 + theta, (1.0 + theta) - (1.0 - q) ** theta, "h's D")
        lam = ((1.0 + 1.0 / theta) * (1.0 - q) ** (-theta) - 1.0 / theta) * math.log(
            1.0 / a
        )
    elif theta == 0.0:
        norm = 1.0 + math.log(big_a) - math.log(big_a - q)
        form, lam = "log", norm * math.log(1.0 / a)
        if big_a == 1.0:
            mu = math.inf
        else:
            mu = 1.0 + (math.log((big_a - q) / (big_a - 1.0)) - 1.0) / norm
    else:
        norm = (1.0 + theta) * big_a**theta - (big_a - q) ** theta
        form, lam = "aq", (
            (1.0 + 1.0 / theta) * big_a**theta * (big_a - q) ** (-theta) - 1.0 / theta
        ) * math.log(1.0 / a)
        if big_a == 1.0:
            mu = math.inf
        else:
            num = (big_a - q) ** theta - (1.0 + theta) * (big_a - 1.0) ** theta
            mu = 1.0 + _ratio(num, norm, "h's D")
    if not lam > 0.0:
        raise NumericError(f"rate came out nonpositive ({lam}) for {cid}")
    if form == "mu" and not 0.0 < mu <= 1.0 + 1.0 / theta:
        raise DomainError(
            f"offspring mean parameter {mu} outside (0, 1+1/theta] for {cid}"
        )
    # (A - s)^(1+theta) past the float range makes h(q) nan, refused just below;
    # A - 1 <= A - q, so h(1)'s powers are finite wherever h(q)'s are
    with np.errstate(over="ignore", invalid="ignore"):
        e = Embedding(params=p, form=form, lam=lam, mu=mu, norm=norm)
        hq = h_eval(e, q)
    if not abs(hq - q) <= 1e-12:  # nan fails too
        raise NumericError(f"h({q}) = {hq} != q for {cid}")
    return e


def _ratio(num: float, den: float, name: str) -> float:
    """num / den, or NumericError where the denominator den rounds to 0."""
    if den == 0.0:
        raise NumericError(f"{name} rounds to 0; {num} / 0 is undefined")
    return num / den


def h_eval(e: Embedding, s):
    p = e.params
    theta, q, big_a = p.theta, p.q, p.big_a
    ss = _in_unit(s)
    if e.form == "const":
        val = np.full_like(ss, q)
    elif e.form == "mu":
        mu = e.mu
        one_m = 1.0 - ss
        val = 1.0 - mu * one_m + mu / (1.0 + theta) * one_m ** (1.0 + theta)
    elif e.form == "aq":
        val = ss + ((big_a - ss) ** (1.0 + theta) - (big_a - q) ** theta * (big_a - ss)) / e.norm
    else:  # log
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = ss + (big_a - ss) * (np.log(big_a - ss) - math.log(big_a - q)) / e.norm
        # (A-s)ln(A-s) -> 0 as s -> A; only reachable when A = 1, where h(1) = 1
        val = np.where(ss == big_a, ss + 0.0, raw)
    return float(val) if np.ndim(s) == 0 else val


def h_coeffs(e: Embedding, order: int) -> SeriesTruncation:
    """Offspring coefficients h_0..h_order with the unresolved mass bound."""
    _integer("order", order, 0)
    p = e.params
    theta, q, big_a = p.theta, p.q, p.big_a
    if e.form == "const":
        coeffs = Series.affine(q, 0.0, order).coeffs
    elif e.form == "mu":
        mu = e.mu
        base = Series.affine(1.0, -1.0, order)
        ser = 1.0 - mu * base + (mu / (1.0 + theta)) * base.pow(1.0 + theta)
        coeffs = ser.coeffs.copy()
    elif e.form == "aq":
        base = Series.affine(big_a, -1.0, order)
        ser = Series.affine(0.0, 1.0, order) + (
            base.pow(1.0 + theta) - (big_a - q) ** theta * base
        ) * (1.0 / e.norm)
        coeffs = ser.coeffs.copy()
    else:
        # A = 1: h_0 = -L/(1-L) with L = ln(1-q), h_k = (1-h_0)/(k(k-1));
        # A > 1 is the dual rescale h_k -> h_k * A^(1-k) at q -> q/A.
        q_hat = q / big_a
        ll = math.log(1.0 - q_hat)
        h0 = -ll / (1.0 - ll)
        coeffs = Series.affine(h0, 0.0, order).coeffs
        k = np.arange(2, order + 1, dtype=float)
        coeffs[2:] = (1.0 - h0) / (k * (k - 1.0))
        coeffs *= big_a ** (1.0 - np.arange(order + 1, dtype=float))
    if order >= 1:
        if abs(coeffs[1]) > _MASS_CLAMP:
            raise NumericError(f"linear coefficient {coeffs[1]} did not cancel")
        coeffs[1] = 0.0
    _clamp_masses(coeffs, "h")
    tail = max(e.h_at_1 - float(np.sum(coeffs)), 0.0)
    return SeriesTruncation(coeffs=coeffs, tail_mass_bound=tail)


def integral_residual(e: Embedding, t: float, s: float) -> float:
    """integral_s^{F_t(s)} dx/(h(x)-x) minus lambda*t; magnitude ~ 0 when the
    flow, the rate, and h are mutually consistent."""
    _in_unit(s)
    if t == 0.0:
        return 0.0
    q = e.params.q
    if abs(s - q) <= 1e-12:
        raise SingularPathError(f"s = {s} sits at the zero of h(x)-x at {q}")
    target = e.lam * float(t)
    upper = float(eval_fn(e.params, float(t), s))
    lo, hi = min(s, upper), max(s, upper)
    if lo - 1e-12 <= q <= hi + 1e-12:
        raise SingularPathError(
            f"integration path [{lo}, {hi}] meets the zero of h(x)-x at {q}"
        )
    if lo == hi:
        # F_t(s) = s with t > 0 only at a fixed point, where h(x) = x
        raise SingularPathError(f"s = {s} is a fixed point of the flow")

    def integrand(x: float) -> float:
        return _ratio(1.0, h_eval(e, x) - x, "h(x) - x on the integration path")

    value, _err = quad(integrand, s, upper, epsabs=1e-10, epsrel=1e-10, limit=200)
    return value - target
