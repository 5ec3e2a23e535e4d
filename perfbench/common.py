"""Pieces shared by the workloads: inputs, seeds, digests and output checks."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: seed used for recorded baselines and goldens
BASELINE_SEED = 0
#: seed reserved for confirming a claimed gain; never used while tuning
HELD_OUT_SEED = 101

#: failure probability of the DKW band used by the Monte Carlo checks
DKW_DELTA = 1e-6

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: the nine canonical desk sets and their b-variants, in the CLI's own keys
DESK: dict[str, dict[str, float]] = {
    "case1": {"theta": 1.0, "a": 2.0, "c": 1.0},
    "case2": {"theta": 1.0, "a": 1.0, "c": 1.0},
    "case2h": {"theta": 0.5, "a": 1.0, "c": 1.0},
    "case3": {"theta": 1.0, "a": 0.5, "q": 0.5},
    "case4": {"theta": 0.0, "a": 0.5, "q": 0.25},
    "case5": {"theta": -0.5, "a": 0.5, "q": 0.0},
    "case5b": {"theta": -0.5, "a": 0.5, "q": 0.3},
    "case6": {"theta": -1.0, "a": 0.5, "q": 0.3},
    "case7": {"theta": 0.5, "a": 0.5, "A": 2.0, "q": 1.0},
    "case7b": {"theta": 0.5, "a": 0.5, "A": 2.0, "q": 0.5},
    "case8": {"theta": 0.0, "a": 0.5, "A": 2.0, "q": 1.0},
    "case8b": {"theta": 0.0, "a": 0.5, "A": 2.0, "q": 0.5},
    "case9": {"theta": -0.5, "a": 0.5, "A": 2.0, "q": 1.0},
    "case9b": {"theta": -0.5, "a": 0.5, "A": 2.0, "q": 0.5},
}


def round_seed(seed: int, label: str, rnd: int) -> int:
    """63-bit master seed of an op in round rnd; goldens use round 0's."""
    key = label if rnd == 0 else f"{label}#{rnd}"
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Op:
    """One call the workload times.

    ``run(round)`` is the timed call; ``check(round, result)`` runs untimed
    and returns a list of failure messages. ``replicates`` counts the Monte
    Carlo replicates the call completes.
    """

    label: str
    run: Callable[[int], Any]
    check: Callable[[int, Any], list[str]]
    replicates: int = 0


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    #: peak memory is that of the child processes the ops start
    rss_of_children: bool = False


def load_goldens(workload: str) -> dict[str, str]:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def golden_mismatch(key: str, digest: str, goldens: dict[str, str]) -> list[str]:
    """Empty when the digest equals the recorded one for key."""
    want = goldens.get(key)
    if want is None:
        return [f"{key}: no golden recorded"]
    if digest != want:
        return [f"{key}: digest {digest[:12]} != golden {want[:12]}"]
    return []


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def counts_digest(emp) -> str:
    """Digest of an EmpiricalTails' aggregated counts, byte for byte."""
    h = hashlib.sha256()
    for arr in (emp.t0_counts, emp.t1_counts, emp.t_counts):
        h.update(arr.astype("<i8").tobytes())
    h.update(f"{emp.replicates}:{emp.censored}:{emp.sum_t}:{emp.sum_t2}".encode())
    return h.hexdigest()


def dkw_eps(replicates: int, delta: float = DKW_DELTA) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band at failure prob delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * replicates))


def tail_band_failures(emp, tails, label: str) -> list[str]:
    """Empirical tails against the closed forms on the whole simulated grid.

    The T tail must lie inside the DKW band. A run censored at key k only
    knows T > k, so for n > k the T tail may fall short by the share of such
    runs; that share is added per n (it is zero when every censored run
    reached the horizon). The T0 and T1 tails only count observed
    absorptions, so the whole censored fraction is added to their band.
    """
    import numpy as np

    from thetagw import ks_distance

    n = np.arange(emp.n_max + 1)
    eps = dkw_eps(emp.replicates)
    out = []
    ks = ks_distance(emp, tails, n)
    for kind, dev in (("t0", ks.t0), ("t1", ks.t1)):
        if not dev <= eps + emp.censored_fraction:
            out.append(
                f"{label}: {kind} KS {dev:.4g} outside DKW band {eps:.4g} "
                f"+ censored {emp.censored_fraction:.4g}"
            )
    times = n * emp.dt if emp.dt is not None else n
    cens_from_n = emp.t_counts - emp.t0_counts - emp.t1_counts
    early = (emp.censored - cens_from_n) / emp.replicates
    dev = np.abs(emp.tail("t") - tails.t_tail(times))
    bad = np.flatnonzero(dev > eps + early)
    if bad.size:
        k = int(bad[0])
        out.append(
            f"{label}: t tail off by {dev[k]:.4g} at n={k}, band {eps:.4g} "
            f"+ early censoring {early[k]:.4g}"
        )
    return out
