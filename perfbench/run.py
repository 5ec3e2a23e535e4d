"""Benchmark entry point for thetagw.

    python3 perfbench/run.py --workload mc_discrete --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, by name

Run from the root of a source checkout; the library is imported from
``src/``. Each workload runs in its own worker process (perfbench/worker.py)
as a closed loop with one caller. ``setup_s`` is the median over three
worker starts of the time from process start to the end of set-up. With
``--trace 0`` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer ones. The line before it
stamps the run with a machine fingerprint, the load average and the raw
times.

End-to-end times are reported at a reference machine speed. The worker
times a fixed pure-Python loop between ops, and every time of the run is
multiplied by (the loop's reference time / its median time in the run). On
a shared host whose speed drifts by tens of percent within minutes, this
keeps runs of the same code comparable; a change to thetagw moves the op
times but not the loop.

``--workload all`` runs every workload in turn, prints each metric with its
unit, and exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_discrete", "ct_series", "cli_analytic")
SETUP_SAMPLES = 3
#: workers still running this long after the run started are killed, and it fails
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        **versions,
    }


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a worker; returns (seconds until READY, the rest of stdout).

    The worker leads its own process group, so a kill also ends the CLI
    processes it started.
    """
    cmd = [sys.executable, "-m", "perfbench.worker", *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - start, 0.0), kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited {code} before finishing")
    return setup, rest


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload; returns the worker record plus the set-up samples."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    samples = 1 if smoke or trace else SETUP_SAMPLES
    setups = [_worker(args + ["--setup-only"], env, deadline)[0] for _ in range(samples - 1)]
    setup, out = _worker(args, env, deadline)
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_samples"] = setups + [setup]
    return record


def metrics_of(record: dict, trace: int, spec: dict) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json for this kind of run, raw times).

    End-to-end times are scaled to the reference machine speed by the run's
    speed factor; the raw ones go on the detail line.
    """
    if trace:
        values, raw = record["layers"], {}
        wanted = spec["per_layer"]
    else:
        lat = record["op_seconds"]
        raw = {
            "setup_s": statistics.median(record["setup_samples"]),
            "wall_s": statistics.median(record["round_walls"]),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        }
        values = {k: v * record["speed_factor"] for k, v in raw.items()}
        values["peak_rss_mb"] = record["peak_rss_mb"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, raw


def run_one(workload, seed, seconds, trace, smoke, spec) -> tuple[dict, dict]:
    """(result line, detail line) for one workload run."""
    load0 = os.getloadavg()
    fp = fingerprint()
    record = run_workload(workload, seed, seconds, trace, smoke)
    load1 = os.getloadavg()
    attempted, failed = record["attempted"], record["failed"]
    for msg in record["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics, raw = metrics_of(record, trace, spec)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    op_time = sum(record["op_seconds"])
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fingerprint": fp,
        "loadavg_start": load0[0],
        "loadavg_end": load1[0],
        "high_load": max(load0[0], load1[0]) > (fp["nproc"] or 1),
        "rounds": record["rounds"],
        "timed_ops": len(record["op_seconds"]),
        "op_p50_ms": statistics.median(record["op_seconds"]) * 1e3,
        "setup_samples": record["setup_samples"],
        "speed_factor": record["speed_factor"],
        "raw": raw,
        "replicates_per_s": record["replicates"] / op_time if op_time else 0.0,
        "fail_frac": failed / attempted,
    }
    return result, detail


def print_split(workload: str, layers: dict, detail: dict) -> None:
    """The share each workload's dominant layer takes, as README.md predicts."""
    if workload == "mc_discrete":
        share = (layers["simulate.self_s"] + layers["offspring.self_s"]) / layers["trace.round_s"]
        print(f"  split: simulate + offspring self time is {share:.0%} of a traced round; "
              f"series.self_s = {layers['series.self_s']:.3g} s")
    elif workload == "ct_series":
        share = layers["series.self_s"] / layers["trace.round_s"]
        print(f"  split: series self time is {share:.0%} of a traced round")
    else:
        share = layers["cli.import_s"] * 1e3 / detail["op_p50_ms"]
        print(f"  split: cli.import_s is {share:.0%} of the median untraced CLI call")


def run_all(args, spec) -> int:
    ok = True
    for workload in WORKLOADS:
        result, detail = run_one(workload, args.seed, args.seconds, args.trace, args.smoke, spec)
        ok &= result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={detail['fail_frac']:.4g} "
              f"high_load={detail['high_load']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if args.trace:
            print_split(workload, {k: v["value"] for k, v in result["metrics"].items()}, detail)
    print("all checks pass" if ok else "CHECK FAILURES")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="0 is the baseline seed; 101 is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    src = ROOT / "src" / "thetagw"
    if not (src / "__init__.py").is_file():
        print(f"run.py: no thetagw sources under {src}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # byte-compile up front so no set-up sample pays for it
    compileall.compile_dir(str(src), quiet=1)
    try:
        if args.workload == "all":
            return run_all(args, spec)
        result, detail = run_one(args.workload, args.seed, args.seconds, args.trace,
                                 args.smoke, spec)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
