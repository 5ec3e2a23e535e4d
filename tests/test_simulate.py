"""Monte Carlo engine: determinism, worker invariance, agreement with theory."""

import concurrent.futures
import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from thetagw import (
    ConditioningWarning,
    DomainError,
    NumericError,
    QualityWarning,
    SimConfig,
    Status,
    absorption_tails,
    build_embedding,
    estimate_tails,
    h_coeffs,
    ks_distance,
    simulate_ct_skeleton,
    simulate_trajectory,
    validate_classify,
)
from thetagw import simulate
from thetagw.offspring import OffspringTable, _pmf_table
from thetagw.simulate import _DrawAhead


def counts_digest(emp):
    """sha256 of the aggregated counts of an EmpiricalTails."""
    h = hashlib.sha256()
    for arr in (emp.t0_counts, emp.t1_counts, emp.t_counts):
        h.update(arr.astype("<i8").tobytes())
    h.update(f"{emp.censored}:{emp.sum_t}:{emp.sum_t2}".encode())
    return h.hexdigest()


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
    assert counts_digest(emp) == COUNT_DIGESTS[kind, name]


# Regimes the digests above do not reach, at master seed 2024: antithetic
# pairing, a long critical tail, population-cap censoring, and offspring
# draws beyond case5's 10^6-entry table (criterion-08 settings).
# label -> (desk set, replicates, SimConfig overrides, sha256 of the counts)
REGIME_DIGESTS = {
    "case5-antithetic": ("case5", 2000, dict(n_max=20, antithetic=True),
                         "61c89fc73dca967335580538ac4550ab8deb1c93a193f81115518fdebc7d9d7c"),
    "case6-antithetic": ("case6", 2000, dict(n_max=20, antithetic=True),
                         "5f810972729137f703a290ea770209e7849b2fa710bed0a0fc6e2de45f6b81a6"),
    "case2-long-tail": ("case2", 2000, dict(n_max=1000),
                        "5213e02703d339823921b92f7a5fe0f7c3d4d69ed2cce5d83cc9c39e1e244754"),
    "case3-pop-cap": ("case3", 2000, dict(n_max=20, z_cap=2000),
                      "44ca714e949126f2290a80dc33059c26561cf9209ba758f38fbbe0583afd80f1"),
    "case5-table-cap": ("case5", 10000, dict(n_max=30),
                        "133a1547b2fc8d2048d6525714917a68fd8edda0bba86865d9c7e2a256b82914"),
}


@pytest.mark.parametrize("label", sorted(REGIME_DIGESTS))
def test_regime_counts_byte_identical(desk, label):
    name, reps, kw, want = REGIME_DIGESTS[label]
    cfg = SimConfig(params=desk[name][0], replicates=reps, master_seed=2024,
                    **{"z_cap": 10**6, **kw})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityWarning)
        one = estimate_tails(cfg, workers=1)
        two = estimate_tails(cfg, workers=2)
    assert counts_digest(one) == want
    assert counts_digest(two) == want
    if label == "case3-pop-cap":
        assert one.censored > 0  # the population cap is reached
    if label == "case5-table-cap":
        assert one.censored > 0  # draws land beyond the capped table


# sha256 over the simulate_trajectory records (sizes, status, absorb_n,
# censor_n) of replicates 0-49, plain and antithetic, at master seed 2024.
TRAJECTORY_RUNS = {
    "case2": dict(n_max=200, z_cap=10**6),
    "case3": dict(n_max=30, z_cap=2000),
    "case5": dict(n_max=30, z_cap=10**6),
    "case6": dict(n_max=30, z_cap=10**6),
}
TRAJECTORY_DIGEST = "9d06f59c4c054e0e4d4e9f5c27194fb9e535a45490bb232c112f78018e6f886f"


def test_trajectory_records_byte_identical(desk):
    h = hashlib.sha256()
    for name, kw in TRAJECTORY_RUNS.items():
        for anti in (False, True):
            cfg = SimConfig(params=desk[name][0], replicates=50, master_seed=2024,
                            antithetic=anti, **kw)
            for i in range(50):
                r = simulate_trajectory(cfg, i)
                h.update(f"{name}:{anti}:{i}:{r.sizes}:{r.status.value}:"
                         f"{r.absorb_n}:{r.censor_n};".encode())
    assert h.hexdigest() == TRAJECTORY_DIGEST


def _fresh_stream(seed, stream, n):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("antithetic", [False, True])
def test_rekeyed_streams_match_fresh_generators(desk, seed, antithetic):
    cfg = SimConfig(params=desk["case6"][0], master_seed=seed, antithetic=antithetic)

    def want(rep):
        u = _fresh_stream(seed, rep - (rep & 1) if antithetic else rep, 400)
        return 1.0 - u if antithetic and rep & 1 else u

    def take(ahead, k):
        return ahead.take(np.array([0]), np.array([k]), np.array([0]))

    for rep in (0, 1, 6, 7):
        w = want(rep)
        # a read-out row at stream position pos re-keys there, and the next
        # take reads the refilled row; 3 and 5 are not multiples of 4, so the
        # draws before them are read and dropped
        for pos in (0, 3, 4, 5, 8):
            for k in (1, 4, 7):
                ahead = _DrawAhead(cfg, rep, 1)
                ahead._pos[0] = pos
                assert np.array_equal(take(ahead, k), w[pos : pos + k])
                assert np.array_equal(take(ahead, 64), w[pos + k : pos + k + 64])
        # a read of 3, one of 64 from the row, and one that re-keys at 67
        ahead = _DrawAhead(cfg, rep, 1)
        read = np.concatenate([take(ahead, k) for k in (3, 64, 7)])
        assert np.array_equal(read, w[:74])
    # draw-ahead rows of replicates 6 and 7: takes of growing and shrinking
    # size cross several refills, exceed a row and (replicate 7, in the last
    # row) gather past the array's end, and still read each stream in order
    ahead = _DrawAhead(cfg, 6, 2)
    takes = [1, 1, 1, 1, 2, 5, 13, 40, 3, 1, 90, 1, 1, 200]
    got = {0: [], 1: []}
    for k in takes:
        u = ahead.take(np.array([0, 1]), np.array([k, k + 1]), np.array([0, k]))
        got[0].append(u[:k])
        got[1].append(u[k:])
    for j in (0, 1):
        read = np.concatenate(got[j])
        assert np.array_equal(read, want(6 + j)[: read.size])


def test_memory_bounded_by_batch(desk):
    # replicates are stepped in batches, so a 4x longer call holds no more
    p, _ = desk["case6"]
    peaks = []
    tracemalloc.start()
    try:
        for reps in (5000, 20000):
            cfg = SimConfig(params=p, replicates=reps, n_max=30, master_seed=1)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            estimate_tails(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _reference_path(cfg, table, i):
    """Replicate i by a sequential scan of its own generator: the reference
    the batched stepper must reproduce, run for run."""
    stream = i - (i & 1) if cfg.antithetic else i
    key = np.array([cfg.master_seed, stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    z, sizes = 1, [1]
    for n in range(1, cfg.n_max + 1):
        u = rng.random(z)
        if cfg.antithetic and i & 1:
            u = 1.0 - u
        if u.min() < table.p_inf:
            return sizes, Status.EXPLODED, n
        if not table.ensure_coverage(float(u.max())):
            return sizes, Status.CENSORED_CAP, n
        z = int((np.searchsorted(table.boundaries, u, side="right") - 1).sum())
        sizes.append(z)
        if z == 0:
            return sizes, Status.EXTINCT, n
        if z > cfg.z_cap:
            return sizes, Status.CENSORED_CAP, n
    return sizes, Status.CENSORED_HORIZON, cfg.n_max


@pytest.mark.parametrize("name, kw", [
    ("case2", dict(n_max=150)),
    ("case3", dict(n_max=12, z_cap=300)),
    ("case5", dict(n_max=30)),
    ("case6", dict(n_max=30)),
])
def test_trajectories_match_sequential_reference(desk, name, kw):
    p, _ = desk[name]
    for seed in (7, 2**64 - 1):
        for anti in (False, True):
            cfg = SimConfig(params=p, replicates=40, master_seed=seed, antithetic=anti,
                            **{"z_cap": 10**6, **kw})
            table = _pmf_table(p)
            for i in range(cfg.replicates):
                rec = simulate_trajectory(cfg, i)
                assert (list(rec.sizes), rec.status, rec.absorb_n or rec.censor_n) == \
                    _reference_path(cfg, table, i), (seed, anti, i)


@pytest.mark.parametrize("name, kw", [
    ("case3", dict(n_max=10, z_cap=2000)),
    ("case5", dict(n_max=30, antithetic=True)),
    ("ct-case3", dict(n_max=20, z_cap=10**4, antithetic=True)),
])
def test_counts_independent_of_batch_and_step_bounds(desk, monkeypatch, name, kw):
    # tiny batches, steps and draw-ahead force many batches, sliced
    # generations, one-replicate slices and, in continuous time, blocks that
    # overrun every row; the counts must not move
    ct = name.startswith("ct-")
    p = desk[name.removeprefix("ct-")][0]
    cfg = SimConfig(params=p, replicates=600, master_seed=11, **{"z_cap": 10**6, **kw})

    def run():
        if ct:
            return simulate_ct_skeleton(build_embedding(p), cfg, dt=0.5)
        return estimate_tails(cfg)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityWarning)
        want = counts_digest(run())
        monkeypatch.setattr(simulate, "_BATCH", 7)
        monkeypatch.setattr(simulate, "_STEP_DRAWS", 40)
        monkeypatch.setattr(simulate, "_ROW", 5)
        take = _DrawAhead.take

        def checked(ahead, part, need, starts):
            u = take(ahead, part, need, starts)
            # the batch holds one fixed-width row of draws per replicate
            assert ahead._rows.shape == (ahead.count, 5)
            return u

        monkeypatch.setattr(_DrawAhead, "take", checked)
        assert counts_digest(run()) == want


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
    # generations are integers: 1.5 is not read as n = 1
    for bad in ([1.5], [-1], [0, 2.0], ["1"]):
        with pytest.raises(DomainError, match="generation"):
            ks_distance(emp, tails, bad)
    assert ks_distance(emp, tails, np.arange(3)) == ks_distance(emp, tails, [0, 1, 2])


def test_config_validation(desk):
    p, _ = desk["case6"]
    with pytest.raises(DomainError):
        SimConfig(params=p, replicates=0)
    with pytest.raises(DomainError):
        SimConfig(params=p, n_max=0)
    with pytest.raises(DomainError):
        SimConfig(params=p, master_seed=-1)
    # counts must be integers; numpy integers are
    for field in ("replicates", "n_max", "z_cap", "master_seed"):
        for bad in (1.5, 2.5, 3.5, 2.0, "3", None):
            with pytest.raises(DomainError, match=field):
                SimConfig(params=p, **{field: bad})
        assert getattr(SimConfig(params=p, **{field: np.int64(3)}), field) == 3
    with pytest.raises(DomainError):
        estimate_tails(SimConfig(params=p), workers=0)
    # so must a replicate index and a worker count
    cfg = cfg_for(desk, "case6", replicates=100)
    for bad in (1.5, 2.5, 2.0, "2", None):
        with pytest.raises(DomainError, match="replicate_index"):
            simulate_trajectory(cfg, bad)
        with pytest.raises(DomainError, match="workers"):
            estimate_tails(cfg, workers=bad)
    assert simulate_trajectory(cfg, np.int64(1)) == simulate_trajectory(cfg, 1)
    assert counts_digest(estimate_tails(cfg, workers=np.int64(1))) == counts_digest(estimate_tails(cfg))


def test_workers_clamped_to_cpu_count(desk, monkeypatch):
    # a fake pool records its size and maps in-process: no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    # and under the module's own name, should it bind one at import
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", FakePool, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = cfg_for(desk, "case6", replicates=400)
    many = estimate_tails(cfg, workers=20000)
    assert sizes == [3]
    assert counts_digest(many) == counts_digest(estimate_tails(cfg))


def test_ct_skeleton_rejects_other_params(desk):
    e = build_embedding(desk["case6"][0])
    cfg = SimConfig(params=desk["case2"][0], replicates=10, n_max=4)
    with pytest.raises(DomainError, match="different laws"):
        simulate_ct_skeleton(e, cfg, dt=1.0)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
def test_ct_skeleton_rejects_dt_outside_0_inf(desk, dt):
    # an infinite dt would put every absorbed run in bin 0
    p = desk["case3"][0]
    with pytest.raises(DomainError, match="dt must lie in"):
        simulate_ct_skeleton(build_embedding(p), SimConfig(params=p, replicates=10, n_max=4), dt=dt)


def _ct_reference(e, cfg, dt, event_cap=simulate._CT_EVENT_CAP):
    """Each continuous-time run by a per-event loop over its own generator,
    read in blocks of 64 waiting times, then 64 offspring draws, against one
    fixed table of h at order 4096: the reference the batched stepper must
    reproduce. Returns (how the run ended, the number of bins n with T > n
    certain) per run; a run censored knowing T > t counts the bins n*dt < t."""
    escape = max(1.0 - e.h_at_1, 0.0)
    cells = np.concatenate(([escape], escape + np.cumsum(h_coeffs(e, 4096).coeffs)))
    runs = []
    for i in range(cfg.replicates):
        stream = i - (i & 1) if cfg.antithetic else i
        key = np.array([cfg.master_seed, stream], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        z, t, event = 1, 0.0, 0
        while True:
            if event == event_cap:
                runs.append(("events", min(max(math.ceil(t / dt) - 1, 0), cfg.n_max) + 1))
                break
            if event % 64 == 0:
                block = rng.random(128)
                if cfg.antithetic and i & 1:
                    block = 1.0 - block
                wait = -np.log(block[:64])
            t += float(wait[event % 64]) / (e.lam * z)
            if t > cfg.n_max * dt:
                runs.append(("horizon", cfg.n_max + 1))
                break
            k = int(np.searchsorted(cells, block[64 + event % 64], side="right")) - 1
            event += 1
            if k < 0 or z + k - 1 == 0:
                runs.append(("exploded" if k < 0 else "extinct", min(math.ceil(t / dt), cfg.n_max)))
                break
            z += k - 1
            if k == cells.size - 1 or z > cfg.z_cap:
                runs.append(("capped", min(max(math.ceil(t / dt) - 1, 0), cfg.n_max) + 1))
                break
    return runs


def _assert_counts_match(emp, runs):
    """The counts of emp are those of the reference runs."""
    kind = np.array([k for k, _ in runs])
    certain = np.array([c for _, c in runs])
    past = certain[:, None] > np.arange(emp.n_max + 1)  # T > n certain
    assert np.array_equal(emp.t0_counts, past[kind == "extinct"].sum(axis=0))
    assert np.array_equal(emp.t1_counts, past[kind == "exploded"].sum(axis=0))
    assert np.array_equal(emp.t_counts, past.sum(axis=0))
    assert emp.censored == np.isin(kind, ["horizon", "capped", "events"]).sum()
    assert emp.sum_t == certain.sum()


def test_ct_population_cap_censors(desk):
    # case3 passes z_cap = 20 in about half of its runs; a per-event loop over
    # the same streams (blocks of 64 waiting times, then 64 offspring draws)
    # must censor the same runs, each in the bin it reached: a capped run at
    # the last bin before its time, a run out of time at n_max
    p, _ = desk["case3"]
    e = build_embedding(p)
    dt, cfg = 0.5, SimConfig(params=p, replicates=400, n_max=20, z_cap=20, master_seed=3)
    with pytest.warns(QualityWarning, match="censored fraction"):
        emp = simulate_ct_skeleton(e, cfg, dt=dt)
    runs = _ct_reference(e, cfg, dt)
    horizon = sum(kind == "horizon" for kind, _ in runs)
    capped = sum(kind == "capped" for kind, _ in runs)
    assert capped > 0
    assert emp.censored == horizon + capped
    assert emp.sum_t == sum(certain for _, certain in runs)


# label -> (desk set, SimConfig overrides): each embedding form (aq with and
# without an escape mass), case3 and case4 at a small population cap, an
# antithetic config, and case5, whose h table grows to its 4096 cap
CT_REFERENCE_RUNS = {
    "mu-case1": ("case1", {}),
    "aq-case7": ("case7", {}),
    "aq-escape-case9b": ("case9b", {}),
    "log-case8": ("case8", {}),
    "const-case6": ("case6", {}),
    "z-cap-case3": ("case3", dict(z_cap=30)),
    "z-cap-case4": ("case4", dict(z_cap=30)),
    "antithetic-case3": ("case3", dict(z_cap=30, antithetic=True)),
    "table-growth-case5": ("case5", {}),
}


@pytest.mark.parametrize("label", sorted(CT_REFERENCE_RUNS))
def test_ct_stepper_matches_per_event_loop(desk, monkeypatch, label):
    name, kw = CT_REFERENCE_RUNS[label]
    p, _ = desk[name]
    e = build_embedding(p)
    cfg = SimConfig(params=p, replicates=300, master_seed=5, **{"n_max": 20, "z_cap": 10**4, **kw})
    orders = []
    rebuild = OffspringTable._rebuild

    def recorded(table, order):
        orders.append(order)
        rebuild(table, order)

    monkeypatch.setattr(OffspringTable, "_rebuild", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityWarning)
        emp = simulate_ct_skeleton(e, cfg, dt=0.5)
    _assert_counts_match(emp, _ct_reference(e, cfg, 0.5))
    assert orders[0] == 256
    if name == "case5":
        assert orders[-1] == 4096  # grown by doubling
    if "z-cap" in label or "antithetic" in label:
        assert emp.censored > 0


def test_ct_event_cap_censors(desk, monkeypatch):
    # no tier-1 run reaches the 10^6-event cap; at 128 events (two blocks)
    # case3's growing runs do, and end censored like the per-event loop's
    monkeypatch.setattr(simulate, "_CT_EVENT_CAP", 128)
    p, _ = desk["case3"]
    e = build_embedding(p)
    cfg = SimConfig(params=p, replicates=200, n_max=20, z_cap=10**4, master_seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityWarning)
        emp = simulate_ct_skeleton(e, cfg, dt=0.5)
    runs = _ct_reference(e, cfg, 0.5, event_cap=128)
    assert any(kind == "events" for kind, _ in runs)
    _assert_counts_match(emp, runs)


def test_ct_memory_bounded_by_batch(desk):
    # continuous-time runs are stepped in batches too, so a 4x longer call
    # holds no more
    p, _ = desk["case6"]
    e = build_embedding(p)
    peaks = []
    tracemalloc.start()
    try:
        for reps in (5000, 20000):
            cfg = SimConfig(params=p, replicates=reps, n_max=30, master_seed=1)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_ct_skeleton(e, cfg, dt=0.5)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# (desk set, form): at 2 x 10^4 replicates the KS distance of T's tail on the
# dt = 0.5 grid stays inside the DKW band at alpha = 1e-6, about 0.019
CT_KS_SETS = [("case1", "mu"), ("case7", "aq"), ("case9b", "aq"), ("case8", "log"),
              ("case6", "const")]


@pytest.mark.parametrize("name, form", CT_KS_SETS)
def test_ct_skeleton_tails_match_theory(desk, name, form):
    p, _ = desk[name]
    e = build_embedding(p)
    assert e.form == form
    cfg = SimConfig(params=p, replicates=20000, n_max=20, z_cap=10**4, master_seed=11)
    emp = simulate_ct_skeleton(e, cfg, dt=0.5)
    band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cfg.replicates))
    assert ks_distance(emp, absorption_tails(p), range(0, cfg.n_max + 1)).t < band
    assert emp.censored_fraction < 0.01


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


# criterion-08 settings; case5's table grows by doubling toward 10^6 entries,
# case2's stays at 256 (its cells miss 1.8e-12 of mass), so it checks plain reuse
WARM_RUNS = {
    "case2": dict(n_max=1000, z_cap=10**6),
    "case5": dict(n_max=30, z_cap=10**6),
}


@pytest.mark.parametrize("name", sorted(WARM_RUNS))
def test_warm_table_counts_equal_cold(desk, name):
    # a small call, a large one that grows the cached table, the small one
    # again: a warm table maps every draw to the cell a cold one does
    p, _ = desk[name]

    def digest(reps):
        cfg = SimConfig(params=p, replicates=reps, master_seed=2024, **WARM_RUNS[name])
        return counts_digest(estimate_tails(cfg))

    small = digest(200)
    order = simulate._tables[p].order
    large = digest(2000)
    if name == "case5":
        assert simulate._tables[p].order > order
    assert digest(200) == small
    simulate._tables.clear()
    assert digest(2000) == large


def test_warm_h_table_counts_equal_cold(desk):
    # case5's h table grows to its 4096 cap in the first call
    p, _ = desk["case5"]
    e = build_embedding(p)

    def digest(reps):
        cfg = SimConfig(params=p, replicates=reps, n_max=20, z_cap=10**4, master_seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QualityWarning)
            return counts_digest(simulate_ct_skeleton(e, cfg, dt=0.5))

    small = digest(50)
    assert simulate._tables[e].order == 4096
    large = digest(500)
    assert digest(50) == small
    simulate._tables.clear()
    assert digest(500) == large


def test_warm_table_trajectories_equal_cold(desk):
    # each record from a cold cache, then again after a large call has grown
    # case5's cached table
    cfg = SimConfig(params=desk["case5"][0], replicates=2000, n_max=30, z_cap=10**6,
                    master_seed=2024)
    cold = []
    for i in range(0, 2000, 50):
        simulate._tables.clear()
        cold.append(simulate_trajectory(cfg, i))
    estimate_tails(cfg)
    assert simulate._tables[cfg.params].order >= 2**19
    assert [simulate_trajectory(cfg, i) for i in range(0, 2000, 50)] == cold


def test_table_cache_bounded_by_entries(desk, monkeypatch):
    # four 258-boundary tables fit under 1100 boundaries, a fifth does not:
    # the least recently used go first, never the table in use
    monkeypatch.setattr(simulate, "_TABLE_ENTRIES", 1100)

    def run(name, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QualityWarning)
            estimate_tails(cfg_for(desk, name, **{"replicates": 20, "n_max": 5, **kw}))
        sizes = [t.boundaries.size for t in simulate._tables.values()]
        assert list(simulate._tables)[-1] == desk[name][0]  # the table just used
        assert sum(sizes[:-1]) <= simulate._TABLE_ENTRIES
        return set(simulate._tables)

    for name in ("case1", "case3", "case6", "case7"):
        run(name)
    assert sum(t.boundaries.size for t in simulate._tables.values()) == 4 * 258
    run("case1")  # now the most recently used
    kept = run("case8")
    assert kept == {desk[n][0] for n in ("case6", "case7", "case1", "case8")}
    # case5's table, taken at 258 boundaries, grows past the bound in use and
    # stays; the next call drops it and the others it does not fit beside
    kept = run("case5", replicates=200, n_max=30)
    assert kept == {desk[n][0] for n in ("case7", "case1", "case8", "case5")}
    assert simulate._tables[desk["case5"][0]].boundaries.size > 1100
    assert run("case3") == {desk["case3"][0]}


def test_failed_table_build_is_not_cached():
    # p_103 of this cancelling law is negative beyond the clamp, so the table's
    # first build fails, the same way on every call
    p, _ = validate_classify({"theta": -0.891, "a": 0.371, "q": 0.306})
    cfg = SimConfig(params=p, replicates=200, n_max=30)
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            with pytest.raises(NumericError, match=r"p_103 = .* beyond the 1e-12 clamp"):
                estimate_tails(cfg)
        assert p not in simulate._tables
