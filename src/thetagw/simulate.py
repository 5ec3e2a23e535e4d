"""Monte Carlo verification engine for the branching family.

Simulates discrete-generation trajectories (and the continuous-time process
behind them), estimates the absorption-time tails empirically, and reports the
sup deviation from the closed forms.

Replicate i draws from its own counter-based stream, that of
Generator(Philox(key=np.array([master_seed, i], dtype=np.uint64))), so its
outcome depends on that key alone: counts are byte-identical for any worker
count, chunking, batching or scheduling order.
One Philox per batch reaches any (replicate, position) by re-keying, instead
of a generator built per replicate.

Both simulators run one batch loop: batches of up to _BATCH = 4096 replicates
are stepped together, each reading its streams through one _DrawAhead, and
sample through an OffspringTable. The discrete one reads each replicate's
stream through a row of _ROW = 64 uniforms drawn ahead, the first read off it
at the batch's start, so a batch holds 4096 x 64 of them (2 MiB), and steps a
generation at a time: the live replicates' draws are gathered with one index,
mapped through the table in one call and reduced per replicate. A step holds at
most _STEP_DRAWS = 2**18 uniforms; a bigger generation is stepped in slices of
live replicates, a replicate that alone needs more being its own slice. The
continuous-time one steps 64 events a block through a table of h's coefficients
and holds no rows: it reads each live run's next 128 uniforms straight off its
stream, so a block holds 4096 x 128 of them (4 MiB). So memory is bounded by
the batch, not by the replicate count.

The map through the table (offspring._counts) may split a big step across the
cores the process may run on. estimate_tails's pool workers each map on their
share of the cores, so the workers' threads do not outnumber them.

Tables come from one per-process cache keyed by the law (ThetaParams) or the
Embedding. A table keeps the order it grew to, so only builds warn; row k of
pmf and h_coeffs does not depend on the order, so warm draws land as cold ones.
Beside the table in use it holds at most _TABLE_ENTRIES = 2**21 boundaries.

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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import offspring
from .absorption import AbsorptionTails
from .embedding import Embedding, h_coeffs
from .errors import DomainError, QualityWarning
from .offspring import OffspringTable, _counts, _pmf_table
from .params import ThetaParams, _integer

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

_CT_ORDER = 4096
_CT_BLOCK = 64
_CT_STEPS = ((0, 16), (16, _CT_BLOCK))  # event ranges a block steps in turn
_CT_EVENT_CAP = 1_000_000  # a whole number of _CT_BLOCK-event blocks
_BATCH = 4096  # replicates stepped together
_STEP_DRAWS = 2**18  # uniforms one generation step holds, but for a lone big replicate
_ROW = 64  # uniforms each replicate holds drawn ahead
_TABLE_ENTRIES = 2**21  # boundaries the cached tables hold (16 MiB), counted as one is taken
_tables: dict = {}  # OffspringTable by ThetaParams or Embedding, least recently used first


def _table(key) -> OffspringTable:
    """The cached sampling table of a law or an embedding, built on a miss."""
    table = _tables.pop(key, None) or (
        _pmf_table(key) if isinstance(key, ThetaParams)
        else OffspringTable(lambda k: h_coeffs(key, k).coeffs, max(1.0 - key.h_at_1, 0.0), _CT_ORDER))
    while _tables and sum(t.boundaries.size for t in (table, *_tables.values())) > _TABLE_ENTRIES:
        del _tables[next(iter(_tables))]
    _tables[key] = table
    return table


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

    def __post_init__(self) -> None:
        for name in ("replicates", "n_max", "z_cap"):
            _integer(name, getattr(self, name), 1)
        if _integer("master_seed", self.master_seed, 0) >= 2**64:
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


_OUTCOMES = (Status.EXTINCT, Status.EXPLODED, Status.CENSORED_HORIZON, Status.CENSORED_CAP)
_EXT, _EXP, _HOR, _CAP = range(4)  # indices into _OUTCOMES


class _DrawAhead:
    """The uniforms of replicates lo..lo+count-1 of one batch, from one Philox.

    Replicate i reads the stream of
    Generator(Philox(key=np.array([master_seed, i], dtype=np.uint64))). numpy
    reads a plain list key through float64 once the seed passes 2^63 - 1, and
    that can name another stream.

    Replicate lo + j reads rows[j], which fill reads from stream position 0,
    from off[j] on; pos[j] is its stream position after the row. A replicate
    whose need runs past the end of its row re-keys the Philox once at pos[j],
    reads the rest of its need into place and refills its row with the next
    _ROW uniforms. Re-keying sets the counter to pos // 4 with an empty buffer,
    because numpy advances the counter before it fills its four-draw buffer; so
    the pos % 4 draws before pos are read and dropped.
    """

    def __init__(self, cfg: SimConfig, lo: int, count: int):
        self._bits = np.random.Philox(key=0)  # re-keyed before every use
        self._gen = np.random.Generator(self._bits)
        # plain lists: the state setter reads them faster than arrays
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [int(cfg.master_seed), 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._lo, self.count = lo, count

    def fill(self) -> None:
        """Read each replicate's first row (stream positions 0.._ROW-1) for take."""
        self._rows = self.read(np.arange(self.count), 0, _ROW)
        self._off = np.zeros(self.count, dtype=np.int64)
        self._pos = np.full(self.count, _ROW, dtype=np.int64)

    def take(self, part: np.ndarray, need: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """One array holding the next need[i] uniforms of replicate lo + part[i]
        from index starts[i] on, for each i."""
        off = self._off[part]
        end = off + need
        # one flat index into the rows; cells past a row's end (clipped at the
        # array's end) are read stale and overwritten below
        idx = np.repeat(part * _ROW + off - starts, need)
        idx += np.arange(idx.size)
        u = self._rows.take(idx, mode="clip")
        self._off[part] = end
        short = end > _ROW
        if not short.any():
            return u
        rep, rest = part[short], end[short] - _ROW
        at = (starts + _ROW - off)[short]  # where in u each rest goes
        pos = self._pos[rep].tolist()
        self._off[rep] = 0
        self._pos[rep] += rest + _ROW
        state = self._state["state"]
        for j, p, r, s in zip(rep.tolist(), pos, rest.tolist(), at.tolist()):
            state["key"][1] = self._lo + j
            state["counter"][0] = p // 4
            self._bits.state = self._state
            if p % 4:
                self._gen.random(p % 4)  # the draws before p, dropped
            self._gen.random(out=u[s : s + r])
            self._gen.random(out=self._rows[j])
        return u

    def read(self, part: np.ndarray, at: int, width: int) -> np.ndarray:
        """Row i holds the width uniforms of replicate lo + part[i] from
        stream position at on, read straight off its stream and not through
        the rows; at must be a multiple of 4, so re-keying there drops no draw."""
        u = np.empty((part.size, width))
        state = self._state["state"]
        state["counter"][0] = at // 4
        for j, row in zip(part.tolist(), u):
            state["key"][1] = self._lo + j
            self._bits.state = self._state
            self._gen.random(out=row)
        return u


def _slices(ends: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges of the live replicates, ends = cumsum of their sizes,
    holding at most _STEP_DRAWS draws each; a replicate that needs more is a
    range of its own."""
    if ends[-1] <= _STEP_DRAWS:
        return [(0, ends.size)]
    out, i = [], 0
    while i < ends.size:
        base = ends[i - 1] if i else 0
        e = max(int(np.searchsorted(ends, base + _STEP_DRAWS, side="right")), i + 1)
        out.append((i, e))
        i = e
    return out


def _run_batch(cfg: SimConfig, ahead: _DrawAhead, paths=None):
    """Step the replicates of a batch together, one generation at a time.

    Returns (outcome, n): per replicate the index of its Status in _OUTCOMES
    and the generation it ended at (n_max when censored at the horizon).
    Each particle consumes one uniform in population order, so every
    replicate's realization is the sequential per-particle scan of its own
    stream. A generation ends a replicate, in this order: Exploded on any
    draw below p_inf; CensoredCap on a draw beyond the capped table (T > n is
    certain); Extinct at size 0; CensoredCap above z_cap. When paths is
    given, paths[j] collects the sizes of replicate j.
    """
    table = _table(cfg.params)
    count = ahead.count
    ahead.fill()
    outcome = np.full(count, _HOR, dtype=np.int8)
    gen = np.full(count, cfg.n_max, dtype=np.int64)
    live = np.arange(count)
    z = np.ones(count, dtype=np.int64)  # sizes of the live replicates
    p_inf = table.p_inf
    for n in range(1, cfg.n_max + 1):
        ends = np.cumsum(z)
        kept = []
        for i, e in _slices(ends):
            part, need = live[i:e], z[i:e]
            starts = ends[i:e] - need
            if i:
                starts -= ends[i - 1]
            u = ahead.take(part, need, starts)
            top = np.maximum.reduceat(u, starts)
            # no uniform is below p_inf = 0, so top >= p_inf then
            fine = (np.minimum.reduceat(u, starts) if p_inf > 0.0 else top) >= p_inf
            big = float(top.max(initial=0.0, where=fine))
            table.ensure_coverage(big)
            found = fine & (top < table.coverage)
            size = np.add.reduceat(_counts(table.boundaries, u), starts)
            if paths is not None:
                for j, zj in zip(part[found].tolist(), size[found].tolist()):
                    paths[j].append(zj)
            cont = found & (size > 0) & (size <= cfg.z_cap)
            if not cont.all():
                done = ~cont
                code = np.where(fine, np.where(found & (size == 0), _EXT, _CAP), _EXP)
                outcome[part[done]] = code[done]
                gen[part[done]] = n
                part, size = part[cont], size[cont]
            kept.append((part, size))
            del u  # before the next slice draws
        live, z = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
        if not live.size:
            break
    return outcome, gen


def simulate_trajectory(cfg: SimConfig, replicate_index: int) -> TrajectoryRecord:
    """One full path, deterministic given (master_seed, replicate_index)."""
    if _integer("replicate_index", replicate_index, 0) >= cfg.replicates:
        raise DomainError("replicate_index outside [0, replicates)")
    paths = [[1]]
    outcome, gen = _run_batch(cfg, _DrawAhead(cfg, replicate_index, 1), paths)
    status, k = _OUTCOMES[outcome[0]], int(gen[0])
    if status in (Status.EXTINCT, Status.EXPLODED):
        return TrajectoryRecord(tuple(paths[0]), status, absorb_n=k)
    return TrajectoryRecord(tuple(paths[0]), status, censor_n=k)


def _tally(cfg: SimConfig, outcome: np.ndarray, key: np.ndarray):
    """Histograms of replicate outcomes by bin key.

    Returns the extinct, exploded and censored histograms, plus the sum and
    the sum of squares of the certain counts of {T > n} (key + 1 for a
    censored run).
    """
    bins = cfg.n_max + 1
    censored = outcome >= _HOR
    y = (key + censored).tolist()
    return (
        np.bincount(key[outcome == _EXT], minlength=bins),
        np.bincount(key[outcome == _EXP], minlength=bins),
        np.bincount(key[censored], minlength=bins),
        sum(y),
        sum(v * v for v in y),
    )


def _chunk_hists(cfg: SimConfig, lo: int, hi: int, step, *args):
    """_tally of replicates lo..hi-1, stepped by step(cfg, ahead, *args) in
    batches of at most _BATCH."""
    parts = []
    for b in range(lo, hi, _BATCH):
        ahead = _DrawAhead(cfg, b, min(_BATCH, hi - b))
        parts.append(_tally(cfg, *step(cfg, ahead, *args)))
        del ahead  # its rows, before the next batch's are made
    return tuple(sum(col) for col in zip(*parts))


def _tail_over(hist: np.ndarray) -> np.ndarray:
    """counts[n] = number of entries with key > n."""
    c = np.cumsum(hist[::-1])[::-1]
    return np.concatenate((c[1:], np.zeros(1, dtype=hist.dtype)))


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
    t = _tail_over(h_ext + h_exp + h_cen) + h_cen  # a run censored at n counts at n
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
    """Aggregate all replicates into tail counts; identical for any workers,
    of which at most one per core this process may run on runs."""
    workers = min(_integer("workers", workers, 1), offspring._cores)
    r = cfg.replicates
    if workers == 1 or r < 2 * workers:
        parts = [_chunk_hists(cfg, 0, r, _run_batch)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; rarely needed
        edges = np.linspace(0, r, min(4 * workers, r) + 1, dtype=int).tolist()
        share = (max(1, offspring._cores // workers),)  # cores a worker maps on
        with ProcessPoolExecutor(workers, initializer=offspring._share_cores, initargs=share) as ex:
            n = len(edges) - 1
            parts = list(ex.map(_chunk_hists, [cfg] * n, edges[:-1], edges[1:], [_run_batch] * n))
    return _assemble(cfg, *(sum(col) for col in zip(*parts)))


@dataclass(frozen=True)
class KSRecord:
    t0: float
    t1: float
    t: float


def ks_distance(emp: EmpiricalTails, analytic: AbsorptionTails, n_range) -> KSRecord:
    """Sup over n_range of |empirical tail - closed-form tail|, per time."""
    n = np.array([_integer("generation", k, 0) for k in n_range], dtype=np.int64)
    if n.size == 0:
        raise DomainError("n_range is empty")
    if n.max() > emp.n_max:
        raise DomainError("n_range outside the simulated horizon")
    times = n * emp.dt if emp.dt is not None else n
    return KSRecord(
        t0=float(np.max(np.abs(emp.tail("t0")[n] - analytic.t0_tail(times)))),
        t1=float(np.max(np.abs(emp.tail("t1")[n] - analytic.t1_tail(times)))),
        t=float(np.max(np.abs(emp.tail("t")[n] - analytic.t_tail(times)))),
    )


def _ct_batch(cfg: SimConfig, ahead: _DrawAhead, e: Embedding, dt: float):
    """(outcome, key) of the continuous-time replicates of a batch, for _tally.

    The live runs step 64 events a block. One read takes each live run's
    next 128 uniforms off its stream: 64 waiting times, then 64 offspring
    draws. The table covers all 64 offspring draws of every live run before
    the block steps events 0-15, then events 16-63 of the runs still live
    (most runs end within a few events). The population before each event and
    the time after it are cumulative sums in event order, so they are a
    per-event loop's own floats. A run ends at its first event that is out of
    time, explodes, lands beyond the capped table, empties or passes z_cap;
    its later events divide by populations that mean nothing. Absorbed at
    time t: key = ceil(t/dt); censored knowing T > t: the largest bin n with
    n*dt < t.
    """
    table, lam, count = _table(e), e.lam, ahead.count
    width = 2 * _CT_BLOCK  # uniforms a run reads per block
    outcome = np.full(count, _CAP, dtype=np.int8)  # what outliving _CT_EVENT_CAP means
    t_end, live = np.empty(count), np.arange(count)
    z, t = np.ones(count, dtype=np.int64), np.zeros(count)  # of the live runs
    for b in range(_CT_EVENT_CAP // _CT_BLOCK):
        u = ahead.read(live, width * b, width)
        table.ensure_coverage(float(u[:, _CT_BLOCK:].max()))
        for lo, hi in _CT_STEPS:
            kids = _counts(table.boundaries, u[:, _CT_BLOCK + lo : _CT_BLOCK + hi])
            after = z[:, None] + np.cumsum(kids - 1, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -np.log(u[:, lo:hi]) / (lam * (after - kids + 1))
                times = np.cumsum(np.column_stack((t, step)), axis=1)[:, 1:]
            out = times > cfg.n_max * dt
            stop = out | (kids < 0) | (kids > table.order) | (after == 0) | (after > cfg.z_cap)
            end = np.arange(live.size), stop.argmax(axis=1)
            ended = stop[end]
            code = np.select([out[end], kids[end] < 0, after[end] == 0], [_HOR, _EXP, _EXT], _CAP)
            outcome[live[ended]], t_end[live[ended]] = code[ended], times[end][ended]
            live, z, t, u = live[~ended], after[~ended, -1], times[~ended, -1], u[~ended]
            if not live.size:
                break
        if not live.size:
            break
    t_end[live] = t
    key = np.clip(np.ceil(t_end / dt) - (outcome == _CAP), 0, cfg.n_max)
    return outcome, np.where(outcome == _HOR, cfg.n_max, key).astype(np.int64)


def simulate_ct_skeleton(e: Embedding, cfg: SimConfig, dt: float) -> EmpiricalTails:
    """Event-driven continuous-time runs binned on the dt-grid.

    Waiting times are exponential with rate lambda*Z; one particle branches
    per event with offspring from h's coefficients (a table of at most
    _CT_ORDER = 4096), and the escape mass 1 - h(1) is an instantaneous
    Infinite draw. The budget is n_max*dt; time or population overruns
    censor, never fail. Replicate i reads the same stream as in the discrete
    simulator, straight off it in 128-draw blocks; e embeds cfg.params.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must lie in (0, inf), got {dt}")
    if e.params != cfg.params:
        raise DomainError("the embedding and cfg.params describe different laws")
    return _assemble(cfg, *_chunk_hists(cfg, 0, cfg.replicates, _ct_batch, e, dt), dt=dt)
