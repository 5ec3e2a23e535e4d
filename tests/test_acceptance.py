"""Acceptance gate: twelve end-to-end behavioral criteria with runtime budgets.

Each test is one criterion. The conftest terminal hook prints a one-line
PASS/FAIL verdict per criterion at the end of the run. Random parameter
sweeps are seeded so the gate is reproducible.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from thetagw import (
    QFunction,
    QualityWarning,
    SimConfig,
    absorption_tails,
    build_embedding,
    compose_iterate,
    conditional_limit_b,
    conditional_t1_cdf,
    estimate_tails,
    eval_f,
    eval_fn,
    expected_absorption,
    gumbel_limit,
    integral_residual,
    ks_distance,
    pmf,
    pmf_oracle,
    theta0_scaled_tail,
    validate_classify,
)
from thetagw.errors import SingularPathError

from conftest import NINE


def _elapsed(t0):
    return time.perf_counter() - t0


def test_criterion_01_closed_iterates_match_composition(desk):
    # n-step closed form vs n-fold composition: sup < 1e-10 for n <= 20 on a
    # 50-point grid, all nine canonical sets, under one second
    t0 = time.perf_counter()
    worst = 0.0
    for name in NINE:
        p, _ = desk[name]
        s = np.linspace(0.0, p.big_a, 50)
        for n in range(0, 21):
            dev = float(np.max(np.abs(eval_fn(p, float(n), s) - compose_iterate(p, n, s))))
            worst = max(worst, dev)
    dt = _elapsed(t0)
    print(f"criterion 01: sup dev {worst:.3e} in {dt:.2f}s")
    assert worst < 1e-10
    assert dt < 1.0


def test_criterion_02_critical_three_step_value(desk):
    # the a = c = 1 member has f_n(0) = n/(n+1); the three-step value is 3/4
    p, _ = desk["case2"]
    dev = abs(eval_fn(p, 3.0, 0.0) - 0.75)
    print(f"criterion 02: |f_3(0) - 0.75| = {dev:.3e}")
    assert dev <= 1e-15


_CASE_SAMPLERS = {
    "case1": lambda r: {"theta": r.uniform(0.05, 1.0), "a": r.uniform(1.05, 3.0),
                        "c": r.uniform(0.1, 3.0)},
    "case2": lambda r: {"theta": r.uniform(0.05, 1.0), "a": 1.0,
                        "c": r.uniform(0.1, 3.0)},
    "case3": lambda r: {"theta": r.uniform(0.05, 1.0), "a": r.uniform(0.05, 0.95),
                        "q": r.uniform(0.0, 0.95)},
    "case4": lambda r: {"theta": 0.0, "a": r.uniform(0.05, 0.95),
                        "q": r.uniform(0.0, 0.95)},
    "case5": lambda r: {"theta": r.uniform(-0.95, -0.05), "a": r.uniform(0.05, 0.95),
                        "q": r.uniform(0.0, 0.95)},
    "case6": lambda r: {"theta": -1.0, "a": r.uniform(0.05, 0.95),
                        "q": r.uniform(0.0, 0.95)},
    "case7": lambda r: {"theta": r.uniform(0.05, 1.0), "a": r.uniform(0.05, 0.95),
                        "A": r.uniform(1.05, 3.0),
                        "q": 1.0 if r.random() < 0.5 else r.uniform(0.0, 0.95)},
    "case8": lambda r: {"theta": 0.0, "a": r.uniform(0.05, 0.95),
                        "A": r.uniform(1.05, 3.0),
                        "q": 1.0 if r.random() < 0.5 else r.uniform(0.0, 0.95)},
    "case9": lambda r: {"theta": r.uniform(-0.95, -0.05), "a": r.uniform(0.05, 0.95),
                        "A": r.uniform(1.05, 3.0),
                        "q": 1.0 if r.random() < 0.5 else r.uniform(0.0, 0.95)},
}


def test_criterion_03_pmf_against_series_oracle():
    # recursion masses vs pgf coefficient extraction: 200 random parameter
    # bundles per case, k <= 50, sup < 1e-9, under ten seconds
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in NINE:
        sampler = _CASE_SAMPLERS[name]
        for _ in range(200):
            raw = {k: float(v) for k, v in sampler(rng).items()}
            p, tag = validate_classify(raw)
            assert tag.case_id == name
            dev = float(np.max(np.abs(pmf(p, 50) - pmf_oracle(p, 50))))
            worst = max(worst, dev)
    dt = _elapsed(t0)
    print(f"criterion 03: sup dev {worst:.3e} over 1800 draws in {dt:.2f}s")
    assert worst < 1e-9
    assert dt < 10.0


def test_criterion_04_masses_nonincreasing():
    # p_k >= p_{k+1} - 1e-12 for k in [1, 200], 500 random positive-theta
    # laws on the unit interval
    rng = np.random.default_rng(77)
    for _ in range(500):
        theta = float(rng.uniform(0.02, 0.999))
        pick = rng.random()
        if pick < 0.4:
            raw = {"theta": theta, "a": float(rng.uniform(1.0, 3.0)),
                   "c": float(rng.uniform(0.05, 3.0))}
        else:
            raw = {"theta": theta, "a": float(rng.uniform(0.05, 0.95)),
                   "q": float(rng.uniform(0.0, 0.95))}
        p, _ = validate_classify(raw)
        probs = pmf(p, 201)
        assert np.all(probs[1:-1] >= probs[2:] - 1e-12), raw
    print("criterion 04: monotone tails on 500 draws")


def test_criterion_05_flat_rescaled_tail(desk):
    # theta = 0 tail law: p_n A^n n^(1+a) flattens to a constant; relative
    # fluctuation over n in [5000, 10000] under 5%
    worst = 0.0
    for name in ("case4", "case8"):
        p, _ = desk[name]
        n = np.arange(5000, 10001, dtype=float)
        scaled = theta0_scaled_tail(p, 5000, 10000) * n ** (1.0 + p.a)
        rel = float((scaled.max() - scaled.min()) / scaled.mean())
        worst = max(worst, rel)
    print(f"criterion 05: worst relative fluctuation {worst:.4f}")
    assert worst < 0.05


def test_criterion_06_absorption_tails_vs_iteration(desk):
    # closed t0/t1 tails vs q - f_n(0) and f_n(1) - q by composition,
    # n <= 50, all nine sets
    worst = 0.0
    for name in NINE:
        p, _ = desk[name]
        tails = absorption_tails(p)
        for n in range(0, 51):
            it0, it1 = tails.via_iteration(n)
            worst = max(worst, abs(tails.t0_tail(n) - it0))
            worst = max(worst, abs(tails.t1_tail(n) - it1))
    print(f"criterion 06: sup dev {worst:.3e}")
    assert worst < 1e-10


def test_criterion_07_two_point_expected_time(desk):
    # exact E[T] = 1/(1-a) for the two-point branch, and the Monte Carlo mean
    # at 1e5 replicates lands within three standard errors, under five seconds
    p, _ = desk["case6"]
    e = expected_absorption(p)
    assert (e.e_t0_given_finite, e.e_t1_given_finite, e.e_t) == (2.0, 2.0, 2.0)
    t0 = time.perf_counter()
    cfg = SimConfig(params=p, replicates=100_000, n_max=200, z_cap=10**6,
                    master_seed=0)
    emp = estimate_tails(cfg, workers=1)
    mean, se = emp.mean_time()
    dt = _elapsed(t0)
    print(f"criterion 07: MC mean {mean:.5f} +- {se:.5f} in {dt:.2f}s")
    assert abs(mean - 2.0) < 3.0 * se
    assert dt < 5.0


def test_criterion_08_monte_carlo_ks(desk):
    # empirical vs closed-form tails at 1e5 replicates: every estimable
    # component under 0.01, four families, under sixty seconds total.
    # t1 is asserted only where explosions are estimable (positive escape
    # mass, or q = 1 where the component is identically zero); for the proper
    # supercritical family the explosion counter itself must stay at zero.
    t0 = time.perf_counter()
    runs = (
        ("case2", dict(n_max=1000, z_cap=10**6), range(0, 1001)),
        ("case3", dict(n_max=8, z_cap=2000), range(0, 9)),
        ("case5", dict(n_max=30, z_cap=10**6), range(0, 31)),
        ("case6", dict(n_max=30, z_cap=10**6), range(0, 31)),
    )
    report = []
    for name, kw, n_range in runs:
        p, tag = desk[name]
        cfg = SimConfig(params=p, replicates=100_000, master_seed=0, **kw)
        tails = absorption_tails(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QualityWarning)
            emp = estimate_tails(cfg, workers=1)
        ks = ks_distance(emp, tails, n_range)
        checked = {"t0": ks.t0, "t": ks.t}
        if tails.explosion_mass > 0.0 or p.q == 1.0:
            checked["t1"] = ks.t1
        else:
            assert emp.t1_counts[0] == 0, name
        for comp, val in checked.items():
            assert val < 0.01, (name, comp, val)
        report.append(f"{name} " + " ".join(f"{k}={v:.4f}" for k, v in checked.items()))
    dt = _elapsed(t0)
    print(f"criterion 08: {'; '.join(report)} in {dt:.1f}s")
    assert dt < 60.0


def test_criterion_09_explosion_time_limit_law():
    # lattice law of the shifted explosion time against the double-exponential
    # limit: sup deviation nonincreasing along theta -> 0- and below 0.02 at
    # theta = -0.001
    devs = []
    for theta in (-0.1, -0.01, -0.001):
        rec = gumbel_limit(0.5, 0.0, theta=theta)
        shift = rec.shift
        p, _ = validate_classify({"theta": theta, "a": 0.5, "A": 1.0, "q": 0.0})
        worst = 0.0
        for n in range(0, int(math.ceil(shift)) + 60):
            exact = conditional_t1_cdf(p, n)
            limit = math.exp(-rec.w * 0.5 ** (n - shift))
            worst = max(worst, abs(exact - limit))
        devs.append(worst)
    print(f"criterion 09: sup devs {devs[0]:.5f} -> {devs[1]:.5f} -> {devs[2]:.5f}")
    assert devs[0] >= devs[1] >= devs[2]
    assert devs[2] < 0.02


def test_criterion_10_harmonic_function_and_limit_law(desk):
    # Q(f(s)) = gamma Q(s) on [0, q] for every non-critical set, and the
    # flagship geometric limit law b_j = 2^(-j)
    worst = 0.0
    for name in NINE:
        if name == "case2":
            continue
        p, _ = desk[name]
        qf = QFunction(p)
        s = np.linspace(0.0, p.q, 40) if p.q > 0.0 else np.zeros(1)
        dev = float(np.max(np.abs(qf.raw(eval_f(p, s)) - qf.gamma * qf.raw(s))))
        worst = max(worst, dev)
    law = conditional_limit_b(desk["case3"][0], 20)
    b_dev = max(abs(law.prob(j) - 2.0 ** (-j)) for j in range(1, 21))
    print(f"criterion 10: functional-eq sup {worst:.3e}, b_j dev {b_dev:.3e}")
    assert worst < 1e-10
    assert b_dev < 1e-10


def test_criterion_11_continuous_time_embedding(desk):
    # the time-1 flow reproduces f, the flow is a semigroup, and the
    # generator integral identity holds by quadrature, under five seconds
    t0 = time.perf_counter()
    worst_f = worst_semi = worst_quad = 0.0
    for name in NINE:
        p, _ = desk[name]
        e = build_embedding(p)
        s = np.linspace(0.0, 1.0, 50)
        worst_f = max(worst_f, float(np.max(np.abs(eval_fn(e.params, 1.0, s) - eval_f(p, s)))))
        for ta, tb in ((0.5, 0.5), (1.0, 1.5), (0.25, 2.0)):
            direct = eval_fn(e.params, ta + tb, s)
            nested = eval_fn(e.params, ta, eval_fn(e.params, tb, s))
            worst_semi = max(worst_semi, float(np.max(np.abs(direct - nested))))
        if p.q == 0.0:
            pts = (0.3, 0.6)
        elif p.q >= 1.0:
            pts = (0.25, 0.5)
        else:
            pts = (p.q / 2.0, (p.q + 1.0) / 2.0)
        for t in (0.5, 1.0, 2.0):
            for sv in pts:
                try:
                    worst_quad = max(worst_quad, abs(integral_residual(e, t, sv)))
                except SingularPathError:
                    continue
    dt = _elapsed(t0)
    print(f"criterion 11: one-step {worst_f:.2e}, semigroup {worst_semi:.2e}, "
          f"quadrature {worst_quad:.2e} in {dt:.2f}s")
    assert worst_f < 1e-10
    assert worst_semi < 1e-10
    assert worst_quad < 1e-6
    assert dt < 5.0


def test_criterion_12_reports_reproduce_across_workers():
    # same seed, different worker counts: byte-identical simulation reports
    args = [sys.executable, "-m", "thetagw.cli", "simulate",
            "--theta", "-1", "--a", "0.5", "--q", "0.3",
            "--replicates", "20000", "--seed", "42", "--n-max", "40"]
    outs = []
    for fmt in ("csv", "json"):
        pair = []
        for workers in ("1", "4"):
            r = subprocess.run(args + ["--format", fmt, "--workers", workers],
                               capture_output=True, timeout=120)
            assert r.returncode == 0
            pair.append(r.stdout)
        assert pair[0] == pair[1], f"{fmt} reports differ between worker counts"
        outs.append(pair[0])
    print(f"criterion 12: {len(outs[0])} csv bytes and {len(outs[1])} json bytes "
          "identical across worker counts")
