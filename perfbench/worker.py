"""One workload in its own process: set up, time rounds of ops, check outputs.

Started by run.py as ``python -m perfbench.worker``. Set-up is importing
thetagw, classifying the workload's parameter sets and one untimed warm-up
op; the worker then prints ``READY`` so the parent can time it. It runs the
workload's ops in a seed-fixed order, one round after another (a closed loop
with one caller), while another round still fits in ``--seconds``. Monte
Carlo ops draw fresh master seeds each round; round 0 uses the ones the
goldens were recorded at. Outputs are checked after each round, outside the
timed region. Between ops, at least every 0.1 s and for at least 5% of the
op time, a speed probe times a fixed loop; the run's speed factor rescales
its times to the reference speed. The last stdout line is a JSON record of
raw measurements.

With ``--trace 1`` rounds alternate between untraced and traced (layer
wrappers installed), and the record carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field

from .cli_trace import import_times
from .common import Op
from .spans import LAYERS, Tracer, install, layer_totals, top_level_time

SPANS_DIR = ".perfbench"
MAX_REPORTED_FAILURES = 20


@dataclass
class Round:
    traced: bool
    ops: list[tuple[str, float, int]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Time in the timed ops; probes and checks are left out."""
        return sum(s for _, s, _ in self.ops)


#: how long speed_probe takes at the reference machine speed
REFERENCE_PROBE_S = 0.007
#: most time between two probes, and the least share of op time probed
PROBE_EVERY_S = 0.1
PROBE_SHARE = 0.05


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def run_round(ops: list[Op], rnd_index: int, tracer: Tracer, traced: bool) -> Round:
    rnd = Round(traced)
    uninstall = install(tracer) if traced else None
    tracer.enabled = traced
    results = []
    last_probe = -math.inf
    op_time = probe_time = 0.0
    try:
        for op in ops:
            # probes spread over the run in proportion to time, long ops too
            while (time.perf_counter() - last_probe > PROBE_EVERY_S
                   or probe_time < PROBE_SHARE * op_time):
                rnd.probes.append(speed_probe())
                probe_time += rnd.probes[-1]
                last_probe = time.perf_counter()
            t0 = time.perf_counter()
            try:
                res, err = op.run(rnd_index), None
            except Exception as exc:  # a raising op is a failed op; keep going
                res, err = None, f"{op.label}: raised {type(exc).__name__}: {exc}"
            results.append((op, time.perf_counter() - t0, res, err))
            op_time += results[-1][1]
    finally:
        tracer.enabled = False
        if uninstall is not None:
            uninstall()
    for op, secs, res, err in results:
        rnd.ops.append((op.label, secs, op.replicates))
        if err is None:
            try:
                msgs = op.check(rnd_index, res)
            except Exception as exc:  # a check that cannot run fails the op
                msgs = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        else:
            msgs = [err]
        if msgs:
            rnd.failed += 1
            rnd.failures.extend(msgs)
    return rnd


def run_rounds(ops: list[Op], tracer: Tracer, seconds: float, trace: bool) -> list[Round]:
    """Rounds while the next is expected to end within the time budget."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(ops, len(rounds), tracer, traced))
        elapsed = time.perf_counter() - start
        if len(rounds) >= (2 if trace else 1) and elapsed * (1 + 1 / len(rounds)) > seconds:
            return rounds


def layer_metrics(tracer: Tracer, rounds: list[Round]) -> dict[str, float]:
    """Per-layer metrics per traced round (a mean over the traced rounds)."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    totals = layer_totals(tracer.spans)
    c, mx = tracer.counts, tracer.maxima
    sim_self = totals["simulate"]["self_s"]
    reps, gens = c["simulate.replicates"], c["simulate.generations"]
    plain_reps = sum(r for rnd in plain for _, _, r in rnd.ops)
    plain_time = sum(s for rnd in plain for _, s, _ in rnd.ops)
    m = {
        "simulate.self_s": sim_self / n,
        "simulate.replicates": reps / n,
        "simulate.generations": gens / n,
        "simulate.us_per_generation": sim_self / gens * 1e6 if gens else 0.0,
        "simulate.useful_ratio": c["simulate.absorbed"] / reps if reps else 0.0,
        "simulate.replicates_per_s": plain_reps / plain_time,
        "offspring.self_s": totals["offspring"]["self_s"] / n,
        "offspring.table_builds": c["offspring.table_builds"] / n,
        "offspring.table_extends": c["offspring.table_extends"] / n,
        "offspring.max_order": mx.get("offspring.max_order", 0),
        "offspring.entries_built": c["offspring.entries_built"] / n,
        "series.self_s": totals["series"]["self_s"] / n,
        "series.pow_calls": c["series.pow_calls"] / n,
        "series.mul_calls": c["series.mul_calls"] / n,
        "series.max_order": mx.get("series.max_order", 0),
        "series.coeff_madds": c["series.coeff_madds"] / n,
    }
    for layer in LAYERS:
        if f"{layer}.self_s" not in m and layer != "cli":
            m[f"{layer}.self_s"] = totals[layer]["self_s"] / n
            m[f"{layer}.calls"] = totals[layer]["calls"] / n
    m["cli.import_s"], m["cli.import_scipy_s"] = import_times()
    handler = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    m["cli.handler_s"] = handler / n
    traced_walls = [r.wall for r in traced]
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        r.wall for r in plain
    )
    m["trace.covered_frac"] = top_level_time(tracer.spans) / sum(traced_walls)
    m["trace.round_s"] = statistics.median(traced_walls)
    return m


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    ap.add_argument("--setup-only", action="store_true", help="stop after READY")
    args = ap.parse_args(argv)

    from thetagw import QualityWarning

    # heavily censored runs warn by design (case5's continuous-time run)
    warnings.simplefilter("ignore", QualityWarning)
    tracer = Tracer()
    wl = importlib.import_module(f"perfbench.{args.workload}").build(
        args.seed, args.smoke, tracer
    )
    wl.warmup.run(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = list(wl.ops)
    random.Random(args.seed).shuffle(ops)
    rounds = run_rounds(ops, tracer, args.seconds, bool(args.trace))
    plain = [r for r in rounds if not r.traced]
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    failures = [f for r in rounds for f in r.failures]
    record = {
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "rounds": len(plain),
        "round_walls": [r.wall for r in plain],
        "op_seconds": [s for r in plain for _, s, _ in r.ops],
        "replicates": sum(n for r in plain for _, _, n in r.ops),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "speed_factor": REFERENCE_PROBE_S / statistics.median(
            p for r in rounds for p in r.probes
        ),
        "layers": None,
    }
    if args.trace:
        record["layers"] = layer_metrics(tracer, rounds)
        write_spans(tracer, args.workload, args.seed)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
