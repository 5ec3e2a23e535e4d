"""Monte Carlo verification engine for the branching family.

Simulates discrete-generation trajectories (and the continuous-time process
behind them), estimates the absorption-time tails empirically, and reports the
sup deviation from the closed forms. Every replicate draws from its own
counter-based stream keyed by (master_seed, replicate_index), so results are
bit-identical for any worker count or scheduling order.

Censoring is handled soundly: a censored run is never counted as absorbed.
It contributes to the certain-knowledge count of {T > n} up to its censoring
point and is excluded beyond it; the extinction/explosion tail counts list
only runs whose absorption was observed. Draws that land beyond the largest
resolvable offspring count (possible under very heavy tails) censor the run
at that generation, which is sound because such draws are finite and positive.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .absorption import AbsorptionTails
from .embedding import Embedding, h_coeffs
from .errors import DomainError, QualityWarning
from .offspring import OffspringTable
from .params import ThetaParams

__all__ = [
    "Status",
    "SimConfig",
    "TrajectoryRecord",
    "EmpiricalTails",
    "KSRecord",
    "simulate_trajectory",
    "estimate_tails",
    "ks_distance",
    "simulate_ct_skeleton",
]

_WILSON_Z = 1.959963984540054  # two-sided 95%
_CT_ORDER = 4096
_CT_BLOCK = 64
_CT_EVENT_CAP = 1_000_000


class Status(Enum):
    EXTINCT = "Extinct"
    EXPLODED = "Exploded"
    CENSORED_HORIZON = "CensoredHorizon"
    CENSORED_CAP = "CensoredCap"


@dataclass(frozen=True)
class SimConfig:
    params: ThetaParams
    replicates: int = 100_000
    n_max: int = 200
    z_cap: int = 10_000_000
    master_seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if self.z_cap < 1:
            raise DomainError("z_cap must be >= 1")
        if not 0 <= int(self.master_seed) < 2**64:
            raise DomainError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One path: sizes up to the last finite population, plus how it ended.

    absorb_n is the absorption generation for Extinct/Exploded runs. censor_n
    is the last generation n for which T > n is certain on a censored run.
    """

    sizes: tuple[int, ...]
    status: Status
    absorb_n: int | None = None
    censor_n: int | None = None


class _Anti:
    """Uniform-flipping view of a generator for antithetic pairing."""

    def __init__(self, base: np.random.Generator):
        self._base = base

    def random(self, n: int) -> np.ndarray:
        return 1.0 - self._base.random(n)


def _replicate_rng(cfg: SimConfig, index: int):
    if cfg.antithetic:
        stream = index - (index & 1)
        key = np.array([cfg.master_seed, stream], dtype=np.uint64)
        base = np.random.Generator(np.random.Philox(key=key))
        return _Anti(base) if index & 1 else base
    key = np.array([cfg.master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run(table: OffspringTable, rng, n_max: int, z_cap: int, sizes=None):
    """Advance one trajectory; returns (Status, generation index).

    Each particle consumes exactly one uniform, in population order, so the
    realization is identical to a sequential per-particle scan. An Infinite
    draw anywhere in the generation ends the run as Exploded there.
    """
    z = 1
    if sizes is not None:
        sizes.append(1)
    p_inf = table.p_inf
    for n in range(1, n_max + 1):
        u = rng.random(z)
        if p_inf > 0.0 and float(u.min()) < p_inf:
            return Status.EXPLODED, n
        mx = float(u.max())
        if mx >= table.coverage and not table.ensure_coverage(mx):
            # unresolved draw: a finite count beyond the table cap, so T > n is certain
            return Status.CENSORED_CAP, n
        z = int((np.searchsorted(table.boundaries, u, side="right") - 1).sum())
        if sizes is not None:
            sizes.append(z)
        if z == 0:
            return Status.EXTINCT, n
        if z > z_cap:
            return Status.CENSORED_CAP, n
    return Status.CENSORED_HORIZON, n_max


def simulate_trajectory(cfg: SimConfig, replicate_index: int) -> TrajectoryRecord:
    """One full path, deterministic given (master_seed, replicate_index)."""
    if not 0 <= replicate_index < cfg.replicates:
        raise DomainError("replicate_index outside [0, replicates)")
    table = OffspringTable(cfg.params)
    rng = _replicate_rng(cfg, replicate_index)
    sizes: list[int] = []
    status, k = _run(table, rng, cfg.n_max, cfg.z_cap, sizes=sizes)
    if status in (Status.EXTINCT, Status.EXPLODED):
        return TrajectoryRecord(tuple(sizes), status, absorb_n=k)
    return TrajectoryRecord(tuple(sizes), status, censor_n=k)


def _tally(cfg: SimConfig, lo: int, hi: int, run_one):
    """Histograms of replicates lo..hi-1 by outcome and bin key.

    run_one maps a replicate's generator to (Status, key). Returns the
    extinct, exploded and censored histograms, plus the sum and the sum of
    squares of the certain counts of {T > n} (key + 1 for a censored run).
    """
    h_ext = np.zeros(cfg.n_max + 1, dtype=np.int64)
    h_exp = np.zeros(cfg.n_max + 1, dtype=np.int64)
    h_cen = np.zeros(cfg.n_max + 1, dtype=np.int64)
    sum_y = 0
    sum_y2 = 0
    for i in range(lo, hi):
        status, k = run_one(_replicate_rng(cfg, i))
        if status is Status.EXTINCT:
            h_ext[k] += 1
            y = k
        elif status is Status.EXPLODED:
            h_exp[k] += 1
            y = k
        else:
            h_cen[k] += 1
            y = k + 1  # T > k certain, nothing more
        sum_y += y
        sum_y2 += y * y
    return h_ext, h_exp, h_cen, sum_y, sum_y2


def _chunk_hists(cfg: SimConfig, lo: int, hi: int):
    table = OffspringTable(cfg.params)
    return _tally(cfg, lo, hi, lambda rng: _run(table, rng, cfg.n_max, cfg.z_cap))


def _tail_over(hist: np.ndarray) -> np.ndarray:
    """counts[n] = number of entries with key > n."""
    c = np.cumsum(hist[::-1])[::-1]
    return np.concatenate((c[1:], np.zeros(1, dtype=hist.dtype)))


def _tail_at_least(hist: np.ndarray) -> np.ndarray:
    """counts[n] = number of entries with key >= n."""
    return np.cumsum(hist[::-1])[::-1]


@dataclass(frozen=True)
class EmpiricalTails:
    """Integer tail counts per generation (or per dt-bin when dt is set).

    t0/t1 count runs observed to go extinct/explode after n; t counts runs
    with T > n certain (absorbed later, or censored no earlier than n). All
    three are nonincreasing in n by construction.
    """

    replicates: int
    n_max: int
    t0_counts: np.ndarray
    t1_counts: np.ndarray
    t_counts: np.ndarray
    censored: int
    sum_t: int
    sum_t2: int
    dt: float | None = None

    def _counts(self, kind: str) -> np.ndarray:
        try:
            return {"t0": self.t0_counts, "t1": self.t1_counts, "t": self.t_counts}[
                kind
            ]
        except KeyError:
            raise DomainError(f"unknown tail kind {kind!r}") from None

    def tail(self, kind: str) -> np.ndarray:
        return self._counts(kind) / self.replicates

    def se(self, kind: str) -> np.ndarray:
        p = self.tail(kind)
        return np.sqrt(p * (1.0 - p) / self.replicates)

    def wilson(self, kind: str, z: float = _WILSON_Z):
        p = self.tail(kind)
        r = self.replicates
        denom = 1.0 + z * z / r
        center = (p + z * z / (2.0 * r)) / denom
        half = (z / denom) * np.sqrt(p * (1.0 - p) / r + z * z / (4.0 * r * r))
        return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)

    @property
    def censored_fraction(self) -> float:
        return self.censored / self.replicates

    def mean_time(self):
        """(mean, se) of the time-to-absorption estimator sum_n 1{T > n}.

        Censored runs contribute their certain count only, so with censoring
        present this estimates a lower bound of E[T ^ horizon].
        """
        r = self.replicates
        mean = self.sum_t / r
        if r < 2:
            return mean, math.inf
        var = (self.sum_t2 - r * mean * mean) / (r - 1)
        return mean, math.sqrt(max(var, 0.0) / r)


def _assemble(cfg: SimConfig, h_ext, h_exp, h_cen, sum_y, sum_y2, dt=None):
    t0 = _tail_over(h_ext)
    t1 = _tail_over(h_exp)
    t = _tail_over(h_ext + h_exp) + _tail_at_least(h_cen)
    censored = int(h_cen.sum())
    emp = EmpiricalTails(
        replicates=cfg.replicates,
        n_max=cfg.n_max,
        t0_counts=t0,
        t1_counts=t1,
        t_counts=t,
        censored=censored,
        sum_t=int(sum_y),
        sum_t2=int(sum_y2),
        dt=dt,
    )
    if emp.censored_fraction > 0.10:
        warnings.warn(
            f"censored fraction {emp.censored_fraction:.3f} exceeds 10%; "
            "tail estimates degrade beyond the typical censoring point",
            QualityWarning,
            stacklevel=3,
        )
    return emp


def estimate_tails(cfg: SimConfig, workers: int = 1) -> EmpiricalTails:
    """Aggregate all replicates into tail counts; identical for any workers."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    r = cfg.replicates
    if workers == 1 or r < 2 * workers:
        parts = [_chunk_hists(cfg, 0, r)]
    else:
        edges = np.linspace(0, r, min(4 * workers, r) + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_chunk_hists, [cfg] * (len(edges) - 1), edges[:-1], edges[1:]))
    return _assemble(cfg, *(sum(col) for col in zip(*parts)))


@dataclass(frozen=True)
class KSRecord:
    t0: float
    t1: float
    t: float


def ks_distance(emp: EmpiricalTails, analytic: AbsorptionTails, n_range) -> KSRecord:
    """Sup over n_range of |empirical tail - closed-form tail|, per time."""
    n = np.asarray(list(n_range), dtype=np.int64)
    if n.size == 0:
        raise DomainError("n_range is empty")
    if n.min() < 0 or n.max() > emp.n_max:
        raise DomainError("n_range outside the simulated horizon")
    times = n * emp.dt if emp.dt is not None else n
    return KSRecord(
        t0=float(np.max(np.abs(emp.tail("t0")[n] - analytic.t0_tail(times)))),
        t1=float(np.max(np.abs(emp.tail("t1")[n] - analytic.t1_tail(times)))),
        t=float(np.max(np.abs(emp.tail("t")[n] - analytic.t_tail(times)))),
    )


def _ct_boundaries(e: Embedding):
    st = h_coeffs(e, _CT_ORDER)
    escape = max(1.0 - e.h_at_1, 0.0)
    return np.concatenate(([escape], escape + np.cumsum(st.coeffs)))


def _ct_one(bounds, lam, rng, budget, dt, n_max, z_cap):
    """One continuous-time path; returns (Status, bin key).

    Absorbed at time t: key = ceil(t/dt), contributing T > n for n*dt < t.
    Censored knowing T > t: key = the largest bin with n*dt < t.
    """
    escape = bounds[0]
    top = bounds[-1]
    z = 1
    t = 0.0
    exp_block = rng.random(0)
    uni_block = rng.random(0)
    ei = ui = 0
    status = Status.CENSORED_CAP  # what leaving the loop unabsorbed means
    for _ in range(_CT_EVENT_CAP):
        if ei >= exp_block.size:
            exp_block = -np.log(rng.random(_CT_BLOCK))
            ei = 0
        t += exp_block[ei] / (lam * z)
        ei += 1
        if t > budget:
            return Status.CENSORED_HORIZON, n_max
        if ui >= uni_block.size:
            uni_block = rng.random(_CT_BLOCK)
            ui = 0
        u = uni_block[ui]
        ui += 1
        if u < escape:
            status = Status.EXPLODED
            break
        if u >= top:
            break
        k = int(np.searchsorted(bounds, u, side="right")) - 1
        z += k - 1
        if z == 0:
            status = Status.EXTINCT
            break
        if z > z_cap:
            break
    key = int(math.ceil(t / dt))
    if status is Status.CENSORED_CAP:
        key = max(key - 1, 0)
    return status, min(key, n_max)


def simulate_ct_skeleton(e: Embedding, cfg: SimConfig, dt: float) -> EmpiricalTails:
    """Event-driven continuous-time runs binned on the dt-grid.

    Waiting times are exponential with rate lambda*Z; one particle branches
    per event with offspring from the expanded generator, and the escape mass
    1 - h(1) is an instantaneous Infinite draw. The budget is n_max*dt; time
    or population overruns censor, never fail.
    """
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    bounds = _ct_boundaries(e)
    budget = cfg.n_max * dt

    def run_one(rng):
        return _ct_one(bounds, e.lam, rng, budget, dt, cfg.n_max, cfg.z_cap)

    return _assemble(cfg, *_tally(cfg, 0, cfg.replicates, run_one), dt=dt)
