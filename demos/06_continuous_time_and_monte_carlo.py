"""
Embedding in continuous time, then checking everything by simulation
====================================================================

Each discrete-generation process here sits inside a continuous-time
Markov branching process whose hold rate and split law are explicit.
The script builds one embedding, verifies its semigroup and generator,
and then cross-checks the discrete absorption law against a counter
based Monte Carlo run that is reproducible across worker counts.
"""

import numpy as np

from thetagw import (
    SimConfig,
    absorption_tails,
    build_embedding,
    estimate_tails,
    eval_f,
    eval_fn,
    integral_residual,
    ks_distance,
    validate_classify,
)

p, tag = validate_classify({"theta": -1.0, "a": 0.5, "q": 0.3})
emb = build_embedding(p)
print(f"{tag.case_id}: hold rate {emb.lam:.6f}, split generator form '{emb.form}', h(1) = {emb.h_at_1}")

# the embedding's flow F_t is the closed iterate eval_fn at real t;
# its time-1 map must reproduce the one-step map exactly
grid = np.linspace(0.0, 1.0, 21)
gap = float(np.max(np.abs(eval_fn(p, 1.0, grid) - eval_f(p, grid))))
print(f"time-1 flow vs one-step map: sup gap {gap:.3e}")

# flowing t then u equals flowing t + u
ft = eval_fn(p, 0.7, grid)
both = eval_fn(p, 0.3, ft)
direct = eval_fn(p, 1.0, grid)
print(f"semigroup property at 0.3 + 0.7: sup gap {float(np.max(np.abs(both - direct))):.3e}")

# the flow solves the generator integral equation; quadrature residual
res = max(abs(integral_residual(emb, 1.0, s)) for s in (0.1, 0.4, 0.8))
print(f"generator integral residual: {res:.3e}")
print()

# Monte Carlo: simulate many lines and compare empirical absorption
# tails with the closed formulas via a two-sided KS distance
cfg = SimConfig(params=p, replicates=50_000, n_max=40, z_cap=1_000_000, master_seed=7)
emp = estimate_tails(cfg, workers=4)
ks = ks_distance(emp, absorption_tails(p), range(0, 41))
print(f"KS distances at {cfg.replicates} replicates: "
      f"die-out {ks.t0:.5f}, explode {ks.t1:.5f}, either {ks.t:.5f}")

# identical counts no matter how the replicates are split over workers
emp1 = estimate_tails(cfg, workers=1)
same = (
    np.array_equal(emp.t0_counts, emp1.t0_counts)
    and np.array_equal(emp.t1_counts, emp1.t1_counts)
    and np.array_equal(emp.t_counts, emp1.t_counts)
)
print(f"counts identical for 1 worker vs 4 workers: {same}")
