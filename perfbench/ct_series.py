"""ct_series: continuous-time runs and series-extracted limit laws.

Two kinds of call. ``build_embedding`` + ``simulate_ct_skeleton`` once per
embedding form: mu (case1, case2), aq (case5, case7, case9b), log (case8) and
const (case6); every mu/aq run pays ``h_coeffs`` at order 4096 through
``Series.pow``. Then ``stationary_law``, ``conditional_limit_b``,
``critical_limit_w`` and ``pmf_oracle`` at orders 256 and 1024. Series
arithmetic does most of the work; the simulator is driven one event and one
scalar ``searchsorted`` at a time.

case3 and case4 are left out of the continuous-time runs: their populations
grow event by event toward ``z_cap`` (case4 took 22 ms per replicate, case3
did not finish 2000 replicates in 10 minutes). case5's run censors every
replicate at this law's table cap; it is kept and reported as measured.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import thetagw

from .common import BASELINE_SEED, DESK, Op, Workload, counts_digest, golden_mismatch
from .common import load_goldens, round_seed, tail_band_failures

CT_SETS = ("case1", "case2", "case5", "case7", "case9b", "case8", "case6")
SMOKE_CT_SETS = ("case8", "case6")
CT_REPLICATES = 400
SMOKE_CT_REPLICATES = 50
CT_N_MAX = 20
CT_DT = 0.5
CT_Z_CAP = 10**4

#: (law, desk set) at order 256: one per law
LAWS_256 = (
    ("stationary_law", "case1"),
    ("conditional_limit_b", "case3"),
    ("critical_limit_w", "case2"),
    ("pmf_oracle", "case9b"),
)
#: (law, desk set) at order 1024, each run three times a round so that the
#: median op lands inside the cluster of 0.3 s laws (case2, case3, case7)
LAWS_1024 = 3 * (
    ("stationary_law", "case1"),
    ("stationary_law", "case7"),
    ("conditional_limit_b", "case3"),
    ("conditional_limit_b", "case8"),
    ("critical_limit_w", "case2"),
    ("pmf_oracle", "case3"),
    ("pmf_oracle", "case9b"),
)
SMOKE_LAWS = ((16, LAWS_256), (32, LAWS_256))

# the oracle agrees with the recursions to this in the unit tests
PMF_TOL = 1e-9
MASS_TOL = 1e-12
# order of the h_coeffs polynomial compared with h_eval at s = 1/2
H_CHECK_ORDER = 256


def _ct_op(seed, label, cfg, goldens) -> Op:
    p = cfg.params
    tails = thetagw.absorption_tails(p)

    def run(rnd: int):
        e = thetagw.build_embedding(p)
        rcfg = replace(cfg, master_seed=round_seed(seed, label, rnd))
        return e, thetagw.simulate_ct_skeleton(e, rcfg, CT_DT)

    def check(rnd: int, result) -> list[str]:
        e, emp = result
        out = tail_band_failures(emp, tails, label)
        st = thetagw.h_coeffs(e, H_CHECK_ORDER)
        poly = float(np.sum(st.coeffs * 0.5 ** np.arange(st.coeffs.size)))
        exact = float(thetagw.h_eval(e, 0.5))
        if not abs(poly - exact) <= MASS_TOL:
            out.append(f"{label}: h polynomial {poly!r} != h_eval {exact!r} at 1/2")
        if goldens and rnd == 0:
            out.extend(golden_mismatch(label, counts_digest(emp), goldens))
        return out

    return Op(label, run, check, replicates=cfg.replicates)


def _law_op(fn_name, name, order) -> Op:
    label = f"{fn_name}/{name}/{order}"
    p, _ = thetagw.validate_classify(DESK[name])

    def check(rnd: int, result) -> list[str]:
        if fn_name == "pmf_oracle":
            probs = result
            dev = float(np.max(np.abs(probs - thetagw.pmf(p, order))))
            out = [] if dev < PMF_TOL else [f"{label}: oracle off pmf by {dev:.3g}"]
        else:
            probs, out = result.probs, []
        if probs.size != order + (fn_name == "pmf_oracle"):
            out.append(f"{label}: {probs.size} coefficients")
        if np.any(probs < 0.0):
            out.append(f"{label}: negative mass {float(probs.min())!r}")
        if not float(np.sum(probs)) <= 1.0 + MASS_TOL:
            out.append(f"{label}: partial sum {float(np.sum(probs))!r} above 1")
        return out

    return Op(label, lambda rnd: getattr(thetagw, fn_name)(p, order), check)


def configs(seed: int, sets: tuple[str, ...], reps: int) -> list[tuple[str, object]]:
    """(label, SimConfig) for every continuous-time call of a round."""
    out = []
    for name in sets:
        p, _ = thetagw.validate_classify(DESK[name])
        label = f"ct/{name}"
        cfg = thetagw.SimConfig(
            params=p, replicates=reps, n_max=CT_N_MAX, z_cap=CT_Z_CAP,
            master_seed=round_seed(seed, label, 0),
        )
        out.append((label, cfg))
    return out


def build(seed: int, smoke: bool, tracer=None) -> Workload:
    goldens = load_goldens("ct_series") if seed == BASELINE_SEED and not smoke else {}
    sets = SMOKE_CT_SETS if smoke else CT_SETS
    reps = SMOKE_CT_REPLICATES if smoke else CT_REPLICATES
    ops = [_ct_op(seed, label, cfg, goldens) for label, cfg in configs(seed, sets, reps)]
    for order, laws in SMOKE_LAWS if smoke else ((256, LAWS_256), (1024, LAWS_1024)):
        ops.extend(_law_op(fn_name, name, order) for fn_name, name in laws)
    return Workload(ops, _law_op("critical_limit_w", "case2", 64))
