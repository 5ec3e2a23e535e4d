"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetagw
from thetagw import EmpiricalTails

from perfbench import cli_analytic
from perfbench.common import (
    bytes_digest,
    dkw_eps,
    golden_mismatch,
    load_goldens,
    tail_band_failures,
)
from perfbench.spans import Span, Tracer, _covered, install, layer_totals, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- DKW band with the censoring allowance ----------------------------------


class _Tails:
    """Closed-form stand-in: fixed tail values per generation."""

    def __init__(self, t0, t1, t):
        self._t0, self._t1, self._t = (np.asarray(v, dtype=float) for v in (t0, t1, t))

    def t0_tail(self, n):
        return self._t0[np.asarray(n, dtype=int)]

    def t1_tail(self, n):
        return self._t1[np.asarray(n, dtype=int)]

    def t_tail(self, n):
        return self._t[np.asarray(n, dtype=int)]


R = 10_000


def _emp(t0, t1, t, censored):
    return EmpiricalTails(
        replicates=R, n_max=len(t) - 1,
        t0_counts=np.array(t0, dtype=np.int64), t1_counts=np.array(t1, dtype=np.int64),
        t_counts=np.array(t, dtype=np.int64), censored=censored, sum_t=0, sum_t2=0,
    )


def test_dkw_band_edges():
    eps = dkw_eps(R)
    assert eps == pytest.approx((np.log(2e6) / (2 * R)) ** 0.5)
    tails = _Tails([0.5, 0.25], [0.5, 0.25], [1.0, 0.5])
    inside = int((0.25 + 0.9 * eps) * R)
    outside = int((0.25 + 1.1 * eps) * R)
    ok = _emp([5000, 2500], [5000, 2500], [10_000, 5000], 0)
    assert tail_band_failures(ok, tails, "x") == []
    near = _emp([5000, inside], [5000, 2500], [10_000, inside + 2500], 0)
    assert tail_band_failures(near, tails, "x") == []
    far = _emp([5000, outside], [5000, 2500], [10_000, outside + 2500], 0)
    msgs = tail_band_failures(far, tails, "x")
    assert any("t0 KS" in m for m in msgs) and any("t tail" in m for m in msgs)


def test_censored_fraction_widens_the_absorption_tails():
    # 1000 runs censored at the horizon: T > n is known for all of them, but
    # they never show up as extinctions, so t0 falls short by up to 10%
    tails = _Tails([0.6, 0.35], [0.4, 0.15], [1.0, 0.5])
    emp = _emp([5000, 2500], [4000, 1500], [10_000, 5000], 1000)
    assert tail_band_failures(emp, tails, "x") == []
    uncensored = _emp([5000, 2500], [4000, 1500], [10_000, 5000], 0)
    assert any("t0 KS" in m for m in tail_band_failures(uncensored, tails, "x"))


def test_early_censoring_widens_the_t_tail_after_its_key():
    # 1000 runs censored at key 0 only know T > 0, so T > 1 may be short by 10%
    tails = _Tails([0.5, 0.3], [0.5, 0.3], [1.0, 0.6])
    early = _emp([4500, 2500], [4500, 2500], [10_000, 5000], 1000)
    assert not any("t tail" in m for m in tail_band_failures(early, tails, "x"))
    # censored at the horizon instead: no allowance, so the same gap fails
    late = _emp([4500, 2500], [4500, 2500], [10_000, 6000], 1000)
    shifted = _Tails([0.5, 0.3], [0.5, 0.3], [1.0, 0.7])
    assert any("t tail" in m for m in tail_band_failures(late, shifted, "x"))


# -- span arithmetic --------------------------------------------------------


def test_union_of_intervals():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _covered([(1.0, 1.0)]) == 0.0
    assert _covered([]) == 0.0


def test_self_time_nested_and_sibling_spans():
    spans = [
        Span("a", "verify", 0.0, 10.0, -1),
        Span("b", "pgf", 1.0, 4.0, 0),    # child of a
        Span("c", "pgf", 5.0, 7.0, 0),    # sibling of b
        Span("d", "params", 2.0, 3.0, 1),  # grandchild, inside b
        Span("e", "series", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])
    totals = layer_totals(spans)
    assert totals["verify"] == {"self_s": pytest.approx(5.0), "calls": 1}
    assert totals["pgf"] == {"self_s": pytest.approx(4.0), "calls": 2}
    assert totals["params"]["self_s"] == pytest.approx(1.0)
    assert totals["simulate"] == {"self_s": 0.0, "calls": 0}


def test_install_records_layers_and_undoes_itself():
    from thetagw import cli, offspring

    original_pmf = offspring.pmf
    p, _ = thetagw.validate_classify({"theta": 1.0, "a": 0.5, "q": 0.5})
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        # a name bound by ``from ... import`` is patched where it was bound
        assert cli.offspring_pmf is offspring.pmf is not original_pmf
        tracer.enabled = True
        law = thetagw.stationary_law(p, 16)
        tracer.enabled = False
    finally:
        uninstall()
    assert offspring.pmf is original_pmf and cli.offspring_pmf is original_pmf
    names = [s.name for s in tracer.spans]
    assert names[0] == "qprocess.stationary_law" and "series.Series.pow" in names
    assert tracer.counts["series.pow_calls"] >= 1
    assert tracer.maxima["series.max_order"] == 16
    assert law.probs.size == 16


def test_import_time_parse_counts_outermost_scipy_modules():
    from perfbench.cli_trace import parse_importtime

    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:        70 |        120 |   scipy.integrate",
        "import time:        10 |        430 | thetagw",
        "import time:         5 |          5 | json",
    ])
    total, scipy = parse_importtime(sample)
    assert total == pytest.approx(435e-6)
    assert scipy == pytest.approx(420e-6)


# -- goldens ----------------------------------------------------------------


def test_one_flipped_byte_fails_the_golden():
    argv = cli_analytic.argv_for("classify", "case6")
    key = " ".join(argv)
    code, stdout = cli_analytic.run_cli(argv)
    goldens = load_goldens("cli_analytic")
    assert code == 0
    assert golden_mismatch(key, bytes_digest(stdout), goldens) == []
    flipped = bytearray(stdout)
    flipped[len(flipped) // 2] ^= 0x01
    assert golden_mismatch(key, bytes_digest(bytes(flipped)), goldens) != []
    assert golden_mismatch("no such command", bytes_digest(stdout), goldens) != []


def test_goldens_cover_every_cli_command():
    keys = set(load_goldens("cli_analytic"))
    assert {" ".join(argv) for argv, _ in cli_analytic.pool()} <= keys


# -- the runner, end to end on tiny inputs ------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert {"nproc", "cpu", "python", "numpy", "scipy"} <= set(detail["fingerprint"])


def test_smoke_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "ct_series", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["series.pow_calls"] > 0 and layers["simulate.replicates"] > 0
    assert 0.0 < layers["trace.covered_frac"] <= 1.0


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "mc_discrete", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
