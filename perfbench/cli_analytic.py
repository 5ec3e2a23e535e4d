"""cli_analytic: ``python -m thetagw.cli`` subprocesses, one at a time.

Each round runs every analytic subcommand (classify, iterate, absorb, pmf,
qprocess, embed, gumbel, verify) on two desk sets the seed picks from the
nine canonical sets and their b-variants, plus two inconsistent inputs whose
documented exit code is 3. Interpreter start and ``import thetagw.cli``
dominate every call, so CLI and import work shows here and nowhere else,
while params, pgf, absorption and qprocess run the way users call them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from .common import DESK, Op, Workload, bytes_digest, golden_mismatch, load_goldens

SUBCOMMANDS = ("classify", "iterate", "absorb", "pmf", "qprocess", "embed", "gumbel", "verify")
#: gumbel's limit regime needs theta in (-1, 0) and A < 2
GUMBEL_SETS = ("case5", "case5b")
SETS_PER_SUBCOMMAND = 2
INCONSISTENT = (
    ["classify", "--theta", "1.0", "--a", "2.0", "--c", "1.0", "--q", "0.5"],
    ["iterate", "--theta", "0.5", "--a", "0.5", "--A", "2.0", "--q", "1.0", "--c", "3.0"],
    ["absorb", "--theta", "-0.5", "--a", "0.5", "--q", "0.3", "--c", "9.0"],
    ["pmf", "--theta", "0.0", "--a", "0.5", "--q", "0.25", "--c", "2.0"],
)
INCONSISTENT_PER_ROUND = 2
DOMAIN_EXIT = 3
#: stderr line in which perfbench.cli_trace hands back the child's spans
SPANS_MARK = "PERFBENCH_SPANS "


def argv_for(cmd: str, name: str) -> list[str]:
    return [cmd] + [x for k, v in DESK[name].items() for x in (f"--{k}", repr(v))]


def pool() -> list[tuple[list[str], int]]:
    """Every (argv, expected exit code) a round may draw."""
    out = [
        (argv_for(cmd, name), 0)
        for cmd in SUBCOMMANDS
        for name in (GUMBEL_SETS if cmd == "gumbel" else DESK)
    ]
    return out + [(argv, DOMAIN_EXIT) for argv in INCONSISTENT]


def run_cli(argv: list[str], tracer=None) -> tuple[int, bytes]:
    """One CLI process; under tracing, perfbench.cli_trace runs the command."""
    module = "perfbench.cli_trace" if tracer is not None and tracer.enabled else "thetagw.cli"
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, timeout=120
    )
    if module == "perfbench.cli_trace":
        for line in proc.stderr.decode(errors="replace").splitlines():
            if line.startswith(SPANS_MARK):
                tracer.merge(json.loads(line[len(SPANS_MARK):]))
    return proc.returncode, proc.stdout


def _op(argv, expected, goldens, tracer) -> Op:
    key = " ".join(argv)

    def check(rnd: int, result) -> list[str]:
        code, stdout = result
        if code != expected:
            return [f"{key}: exit {code}, expected {expected}"]
        return golden_mismatch(key, bytes_digest(stdout), goldens)

    return Op(key, lambda rnd: run_cli(argv, tracer), check)


def build(seed: int, smoke: bool, tracer=None) -> Workload:
    goldens = load_goldens("cli_analytic")
    rng = random.Random(seed)
    if smoke:
        chosen = [(argv_for("classify", "case6"), 0), (argv_for("iterate", "case9b"), 0),
                  (INCONSISTENT[0], DOMAIN_EXIT)]
    else:
        chosen = []
        for cmd in SUBCOMMANDS:
            names = GUMBEL_SETS if cmd == "gumbel" else tuple(DESK)
            chosen += [(argv_for(cmd, n), 0) for n in rng.sample(names, SETS_PER_SUBCOMMAND)]
        chosen += [(argv, DOMAIN_EXIT) for argv in rng.sample(INCONSISTENT, INCONSISTENT_PER_ROUND)]
    ops = [_op(argv, code, goldens, tracer) for argv, code in chosen]
    warmup = _op(argv_for("classify", "case1"), 0, goldens, None)
    return Workload(ops, warmup, rss_of_children=True)
