"""Cross-module identity battery.

Runs the closed forms of one module against an independent route from
another: explicit iterates against literal pgf composition, the recursive
offspring masses against series extraction, the harmonic function against its
defining functional equation, the interpolated semigroup against the one-step
pgf and against quadrature of the generator flow, and a small Monte Carlo
smoke test on the two-point branch whose absorption law is elementary. For
theta in (-1, 0) off the -1/m lattice pmf is series extraction itself, so the
pmf_oracle check reads 0 by construction there.

Each check yields a VerifyCheck(name, target, value, tol, passed); a suite is
just a list of them. The suite covers one canonical parameter set for
every case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .absorption import absorption_tails
from .embedding import Embedding, build_embedding, integral_residual
from .errors import SingularPathError
from .offspring import pmf, pmf_oracle
from .params import ThetaParams, case_of, validate_classify
from .pgf import compose_iterate, eval_f, eval_fn
from .qprocess import QFunction
from .simulate import SimConfig, estimate_tails

__all__ = ["VerifyCheck", "CANONICAL_SETS", "verify_set", "verify_suite"]

#: one desk parameter set per case, in case order
CANONICAL_SETS: tuple[dict[str, float], ...] = (
    {"theta": 1.0, "a": 2.0, "c": 1.0},
    {"theta": 1.0, "a": 1.0, "c": 1.0},
    {"theta": 1.0, "a": 0.5, "q": 0.5},
    {"theta": 0.0, "a": 0.5, "q": 0.25},
    {"theta": -0.5, "a": 0.5, "q": 0.0},
    {"theta": -1.0, "a": 0.5, "q": 0.3},
    {"theta": 0.5, "a": 0.5, "A": 2.0, "q": 1.0},
    {"theta": 0.0, "a": 0.5, "A": 2.0, "q": 1.0},
    {"theta": -0.5, "a": 0.5, "A": 2.0, "q": 1.0},
)

#: tolerance of the identity checks, the embedding's included
_IDENTITY_TOL = 1e-10
#: tolerance of the quadrature residual of the generator flow
_QUAD_TOL = 1e-6


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    target: str
    value: float
    tol: float
    passed: bool


def _check(name: str, target: str, value: float, tol: float) -> VerifyCheck:
    return VerifyCheck(name, target, float(value), tol, bool(value < tol))


def _safe_s_points(q: float) -> tuple[float, ...]:
    if q == 0.0:
        return (0.3, 0.6)
    if q >= 1.0:
        return (0.25, 0.5)
    return (q / 2.0, (q + 1.0) / 2.0)


def _embed_one_step_err(e: Embedding, grid: np.ndarray) -> float:
    """Sup over grid of |F_1 - f|: the interpolated flow against the one-step pgf."""
    return float(np.max(np.abs(eval_fn(e.params, 1.0, grid) - eval_f(e.params, grid))))


def _embed_quad_residuals(e: Embedding, times) -> list[float]:
    """Per time t, the largest quadrature residual over the safe s points.

    A point whose path meets the zero of h(x) - x is skipped.
    """
    out = []
    for t in times:
        worst = 0.0
        for s in _safe_s_points(e.params.q):
            try:
                worst = max(worst, abs(integral_residual(e, t, s)))
            except SingularPathError:
                continue
        out.append(worst)
    return out


def _embed_checks(e: Embedding, grid: np.ndarray, times) -> tuple[list[VerifyCheck], dict]:
    """embed's three checks and the values it prints: the one-step error, the
    semigroup error of F_{t1+t2} against F_{t1}(F_{t2}) and one residual per time."""
    p = e.params
    cid = case_of(p).case_id
    one_step = _embed_one_step_err(e, grid)
    semi = 0.0
    for t1, t2 in ((0.5, 0.5), (1.0, 1.5), (0.25, 2.0)):
        direct = eval_fn(p, t1 + t2, grid)
        nested = eval_fn(p, t1, eval_fn(p, t2, grid))
        semi = max(semi, float(np.max(np.abs(direct - nested))))
    residuals = _embed_quad_residuals(e, times)
    checks = [
        _check("embed_sup_err", cid, one_step, _IDENTITY_TOL),
        _check("semigroup_sup_err", cid, semi, _IDENTITY_TOL),
        _check("quad_residuals", cid, max(residuals), _QUAD_TOL),
    ]
    values = {"embed_sup_err": one_step, "semigroup_sup_err": semi, "quad_residuals": residuals}
    return checks, values


def verify_set(p: ThetaParams) -> list[VerifyCheck]:
    """Identity checks for one parameter set."""
    cid = case_of(p).case_id
    out: list[VerifyCheck] = []
    grid = np.linspace(0.0, 1.0, 50)

    worst = 0.0
    for n in range(1, 21):
        worst = max(worst, float(np.max(np.abs(eval_fn(p, n, grid) - compose_iterate(p, n, grid)))))
    out.append(_check("iterate_identity", cid, worst, _IDENTITY_TOL))

    diff = np.abs(pmf(p, 50) - pmf_oracle(p, 50))
    out.append(_check("pmf_oracle", cid, float(diff.max()), 1e-9))

    tails = absorption_tails(p)
    worst = 0.0
    for n in range(0, 51):
        worst = max(
            worst,
            abs(tails.t0_tail(n) - (p.q - eval_fn(p, n, 0.0))),
            abs(tails.t1_tail(n) - (eval_fn(p, n, 1.0) - p.q)),
        )
    out.append(_check("absorption_vs_iteration", cid, worst, _IDENTITY_TOL))

    qf = QFunction(p)
    s = np.linspace(0.0, p.q, 40) if p.q > 0.0 else np.zeros(1)
    lhs = qf.raw(eval_f(p, s))
    rhs = qf.gamma * qf.raw(s)
    out.append(_check("q_functional_eq", cid, float(np.max(np.abs(lhs - rhs))), _IDENTITY_TOL))

    e = build_embedding(p)
    out.append(_check("embed_one_step", cid, _embed_one_step_err(e, grid), _IDENTITY_TOL))
    worst = max(_embed_quad_residuals(e, (0.5, 1.0, 2.0)))
    out.append(_check("embed_quadrature", cid, worst, _QUAD_TOL))
    return out


def _case6_mc_smoke(seed: int) -> VerifyCheck:
    p, _ = validate_classify({"theta": -1.0, "a": 0.5, "q": 0.3})
    cfg = SimConfig(params=p, replicates=20_000, n_max=100, z_cap=10**6, master_seed=seed)
    mean, se = estimate_tails(cfg).mean_time()
    # E[T] = 1/(1-a) = 2 exactly on this branch
    dev = abs(mean - 2.0)
    return VerifyCheck("case6_mc_mean", "case6", dev, 4.0 * se, dev < 4.0 * se)


def verify_suite(seed: int = 0) -> list[VerifyCheck]:
    """Identity checks over one set per case plus the two-point-branch Monte
    Carlo smoke test."""
    out: list[VerifyCheck] = []
    for raw in CANONICAL_SETS:
        out.extend(verify_set(validate_classify(raw)[0]))
    out.append(_case6_mc_smoke(seed))
    return out
