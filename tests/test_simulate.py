"""Monte Carlo engine: determinism, worker invariance, agreement with theory."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from thetagw import (
    DomainError,
    QualityWarning,
    SimConfig,
    Status,
    absorption_tails,
    build_embedding,
    estimate_tails,
    ks_distance,
    simulate_ct_skeleton,
    simulate_trajectory,
)


def cfg_for(desk, name, **kw):
    p, _ = desk[name]
    defaults = dict(replicates=4000, n_max=60, z_cap=10**6, master_seed=0)
    defaults.update(kw)
    return SimConfig(params=p, **defaults)


def test_trajectory_deterministic(desk):
    cfg = cfg_for(desk, "case6")
    a = simulate_trajectory(cfg, 17)
    b = simulate_trajectory(cfg, 17)
    assert a == b
    # a different replicate index gives an independent stream
    assert simulate_trajectory(cfg, 18) != a


def test_trajectory_fields(desk):
    cfg = cfg_for(desk, "case6", n_max=100)
    for idx in range(50):
        rec = simulate_trajectory(cfg, idx)
        assert rec.status in (Status.EXTINCT, Status.EXPLODED)
        assert rec.absorb_n is not None and rec.censor_n is None
        assert rec.sizes[0] == 1
        if rec.status is Status.EXTINCT:
            # generations 0..absorb_n recorded, ending in the terminal 0
            assert len(rec.sizes) == rec.absorb_n + 1
            assert rec.sizes[-1] == 0 and all(z >= 1 for z in rec.sizes[:-1])
        else:
            # the exploding generation has no finite size to record
            assert len(rec.sizes) == rec.absorb_n
            assert all(z >= 1 for z in rec.sizes)


def test_trajectory_censoring_horizon(desk):
    cfg = cfg_for(desk, "case3", n_max=3, z_cap=10**6)
    hit = 0
    for idx in range(60):
        rec = simulate_trajectory(cfg, idx)
        if rec.status is Status.CENSORED_HORIZON:
            hit += 1
            assert rec.censor_n == 3 and rec.absorb_n is None
    # survival to generation 3 has probability ~ 0.55 here
    assert hit > 10


def test_worker_invariance(desk):
    cfg = cfg_for(desk, "case6", replicates=6000)
    one = estimate_tails(cfg, workers=1)
    three = estimate_tails(cfg, workers=3)
    assert np.array_equal(one.t0_counts, three.t0_counts)
    assert np.array_equal(one.t1_counts, three.t1_counts)
    assert np.array_equal(one.t_counts, three.t_counts)
    assert one.censored == three.censored
    assert one.sum_t == three.sum_t and one.sum_t2 == three.sum_t2


# sha256 of the aggregated counts at master seed 2024 with 2000 replicates and
# n_max = 20 (dt = 0.5 on the continuous-time grid). Any change in how draws
# map to outcomes, or in how outcomes are tallied, shows up here.
COUNT_DIGESTS = {
    ("discrete", "case5"): "76fc37fcd3f97c9b0faf0f80411adf777d7b3c9079a0e23672f37cb11b7343d2",
    ("discrete", "case6"): "c222139c198ea33ab89c9614245630d1b77b8b60ff5cf3a29994962b3404959c",
    ("ct", "case1"): "1fcb4b965c0899d439c49ff6d299082a45f9ce7fb4b111651f4bcc7d4379fd73",
    ("ct", "case5"): "303e59d9a562146742864195fb1ef3feb3e805d269b9d6652cca0c68ca1b33ef",
    ("ct", "case6"): "0aff5d962164f7753e6d4e19f9c45ff3e5ca87313b8a5fcd833c0acc06e94e52",
    ("ct", "case8"): "d157efce435ed51bd2c5746c5d38d551462efb7160014bd9c032d44d7b73d1ad",
}


@pytest.mark.parametrize("kind, name", sorted(COUNT_DIGESTS))
def test_counts_byte_identical(desk, kind, name):
    p, _ = desk[name]
    cfg = SimConfig(params=p, replicates=2000, n_max=20, z_cap=10**6, master_seed=2024)
    if kind == "discrete":
        emp = estimate_tails(cfg)
    else:
        emp = simulate_ct_skeleton(build_embedding(p), cfg, dt=0.5)
    h = hashlib.sha256()
    for arr in (emp.t0_counts, emp.t1_counts, emp.t_counts):
        h.update(arr.astype("<i8").tobytes())
    h.update(f"{emp.censored}:{emp.sum_t}:{emp.sum_t2}".encode())
    assert h.hexdigest() == COUNT_DIGESTS[kind, name]


def test_antithetic_pairing(desk):
    base = cfg_for(desk, "case6", replicates=4000)
    anti = cfg_for(desk, "case6", replicates=4000, antithetic=True)
    # replicate 2j is shared; 2j+1 flips its uniforms
    assert simulate_trajectory(anti, 6) == simulate_trajectory(base, 6)
    e1 = estimate_tails(anti, workers=1)
    e2 = estimate_tails(anti, workers=4)
    assert np.array_equal(e1.t_counts, e2.t_counts)


def test_single_replicate_step_function(desk):
    cfg = cfg_for(desk, "case6", replicates=1)
    emp = estimate_tails(cfg)
    t = emp.tail("t")
    assert set(np.unique(t)) <= {0.0, 1.0}
    assert t[0] == 1.0
    assert np.all(np.diff(t) <= 0.0)


def test_tails_match_theory_case6(desk):
    p, _ = desk["case6"]
    cfg = cfg_for(desk, "case6", replicates=40000)
    emp = estimate_tails(cfg, workers=2)
    ks = ks_distance(emp, absorption_tails(p), range(0, 31))
    assert ks.t0 < 0.02 and ks.t1 < 0.02 and ks.t < 0.02
    assert emp.censored_fraction == 0.0
    mean, se = emp.mean_time()
    assert abs(mean - 2.0) < 4.0 * se
    # binomial se at n=0 is 0 because the tail there is exactly 1
    assert emp.se("t")[0] == 0.0


def test_tails_match_theory_case1(desk):
    p, _ = desk["case1"]
    cfg = cfg_for(desk, "case1", replicates=30000, n_max=80)
    emp = estimate_tails(cfg, workers=2)
    ks = ks_distance(emp, absorption_tails(p), range(0, 81))
    assert ks.t0 < 0.02 and ks.t < 0.02


def test_explosive_censoring_quality_warning(desk):
    # case3 with a tight cap censors half the runs and must say so
    cfg = cfg_for(desk, "case3", replicates=2000, n_max=40, z_cap=500)
    with pytest.warns(QualityWarning):
        emp = estimate_tails(cfg)
    assert emp.censored_fraction > 0.3


def test_wilson_interval_brackets(desk):
    p, _ = desk["case6"]
    cfg = cfg_for(desk, "case6", replicates=20000)
    emp = estimate_tails(cfg)
    lo, hi = emp.wilson("t")
    truth = absorption_tails(p).t_tail(np.arange(0, cfg.n_max + 1))
    inside = (truth >= lo) & (truth <= hi)
    # 95% intervals: allow a few misses over 61 correlated lattice points
    assert inside.mean() > 0.85


def test_ks_range_validation(desk):
    cfg = cfg_for(desk, "case6", replicates=100)
    emp = estimate_tails(cfg)
    tails = absorption_tails(desk["case6"][0])
    with pytest.raises(DomainError):
        ks_distance(emp, tails, range(0, 0))
    with pytest.raises(DomainError):
        ks_distance(emp, tails, range(0, cfg.n_max + 5))


def test_config_validation(desk):
    p, _ = desk["case6"]
    with pytest.raises(DomainError):
        SimConfig(params=p, replicates=0)
    with pytest.raises(DomainError):
        SimConfig(params=p, n_max=0)
    with pytest.raises(DomainError):
        SimConfig(params=p, master_seed=-1)
    with pytest.raises(DomainError):
        estimate_tails(SimConfig(params=p), workers=0)


def test_ct_skeleton_case6(desk):
    # h == q embedding: a single particle absorbs at an Exp(ln 2) time,
    # so P(T > t) = 2^(-t) exactly, same law as the discrete lattice tail
    p, _ = desk["case6"]
    e = build_embedding(p)
    cfg = SimConfig(params=p, replicates=20000, n_max=12, z_cap=10**6, master_seed=3)
    emp = simulate_ct_skeleton(e, cfg, dt=1.0)
    assert emp.dt == 1.0
    ks = ks_distance(emp, absorption_tails(p), range(0, 13))
    assert ks.t < 0.02
    ext = emp.tail("t0")
    exp_t = emp.tail("t1")
    assert abs(ext[0] - 0.3) < 0.02
    assert abs(exp_t[0] - 0.7) < 0.02


def test_ct_skeleton_matches_discrete_law_case2(desk):
    # the time-1 skeleton of the critical embedding is the discrete chain, so
    # extinction-by-n curves agree; the T component is the estimable one
    p, _ = desk["case2"]
    e = build_embedding(p)
    cfg = SimConfig(params=p, replicates=8000, n_max=12, z_cap=10**6, master_seed=5)
    emp = simulate_ct_skeleton(e, cfg, dt=1.0)
    ks = ks_distance(emp, absorption_tails(p), range(0, 13))
    assert ks.t < 0.03


def test_ct_skeleton_deterministic(desk):
    p, _ = desk["case6"]
    e = build_embedding(p)
    cfg = SimConfig(params=p, replicates=500, n_max=8, z_cap=10**5, master_seed=9)
    a = simulate_ct_skeleton(e, cfg, dt=0.5)
    b = simulate_ct_skeleton(e, cfg, dt=0.5)
    assert np.array_equal(a.t_counts, b.t_counts)
    assert a.censored == b.censored
