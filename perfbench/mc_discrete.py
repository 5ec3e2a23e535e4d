"""mc_discrete: repeated ``estimate_tails`` calls on the criterion-08 families.

The four families span populations per generation from 1 (case6, two-point
law) to 2000 (case3, capped), and case5's heavy tail makes calls double its
offspring table on demand. Replicate counts come in two sizes an order of
magnitude apart, so table construction is a large share of small calls and
a small share of large ones. Each round makes two small calls per large one,
so the median op is a small call and the 90th percentile a large one. All
the work is simulate stepping, per-replicate generator construction and
offspring table builds; no series arithmetic runs.

Every round draws fresh master seeds, so one run samples many table-growth
outcomes and runs with different seeds see the same mix of work.
"""

from __future__ import annotations

from dataclasses import replace

import thetagw

from .common import BASELINE_SEED, DESK, Op, Workload, counts_digest, golden_mismatch
from .common import load_goldens, round_seed, tail_band_failures

#: (desk set, horizon and population cap) as in acceptance criterion 08
FAMILIES = (
    ("case2", dict(n_max=1000, z_cap=10**6)),
    ("case3", dict(n_max=8, z_cap=2000)),
    ("case5", dict(n_max=30, z_cap=10**6)),
    ("case6", dict(n_max=30, z_cap=10**6)),
)
SIZES = {"small-a": 200, "small-b": 200, "large": 2000}
SMOKE_SIZES = {"small": 20, "large": 60}


def configs(seed: int, sizes: dict[str, int]) -> list[tuple[str, object]]:
    """(label, SimConfig) for every call of round 0."""
    out = []
    for name, kw in FAMILIES:
        p, _ = thetagw.validate_classify(DESK[name])
        for size, reps in sizes.items():
            label = f"{name}/{size}"
            cfg = thetagw.SimConfig(
                params=p, replicates=reps, master_seed=round_seed(seed, label, 0), **kw
            )
            out.append((label, cfg))
    return out


def _op(seed, label, cfg, goldens) -> Op:
    tails = thetagw.absorption_tails(cfg.params)

    def run(rnd: int):
        return thetagw.estimate_tails(
            replace(cfg, master_seed=round_seed(seed, label, rnd)), workers=1
        )

    def check(rnd: int, emp) -> list[str]:
        out = tail_band_failures(emp, tails, label)
        if label.startswith("case3/") and emp.t1_counts[0] != 0:
            out.append(f"{label}: {emp.t1_counts[0]} explosions in a proper law")
        if goldens and rnd == 0:
            out.extend(golden_mismatch(label, counts_digest(emp), goldens))
        return out

    return Op(label, run, check, replicates=cfg.replicates)


def build(seed: int, smoke: bool, tracer=None) -> Workload:
    goldens = load_goldens("mc_discrete") if seed == BASELINE_SEED and not smoke else {}
    ops = [_op(seed, label, cfg, goldens)
           for label, cfg in configs(seed, SMOKE_SIZES if smoke else SIZES)]
    p6, _ = thetagw.validate_classify(DESK["case6"])
    warm_cfg = thetagw.SimConfig(params=p6, replicates=20, n_max=30)
    return Workload(ops, _op(seed, "warmup", warm_cfg, {}))
