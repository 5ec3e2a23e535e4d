"""Timings of the library's hot routes, a report that gates nothing. Run as
PYTHONPATH=src python tests/timings.py: one line per row of rows(),
"label: median ms (median of n)", over n calls in this process."""

import statistics
import time
import warnings
from functools import partial

import numpy as np

from conftest import DESK_RAW
from thetagw import (SimConfig, build_embedding, estimate_tails, offspring, pmf,
                     simulate_ct_skeleton, stationary_law, validate_classify)
from thetagw.series import Series


def median_ms(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def rows(cores):
    """(label, call, repeats) in print order; a row with no call prints its label."""
    law = {n: validate_classify(raw)[0] for n, raw in DESK_RAW.items()}
    # the dense Series.pow: case3 and case9b stop once their masses hold
    # f(1), and case5's heavy tail forms every row, the whole dense route
    for n in ("case3", "case9b", "case5"):
        yield f"pmf_oracle at K = 1024, {n}", partial(offspring.pmf_oracle, law[n], 1024), 7
    # perfbench ct_series's settings: case7's runs all end in their first
    # 64-event block, and case5's take up to four blocks
    for n in ("case7", "case5"):
        cfg = SimConfig(params=law[n], replicates=400, n_max=20, z_cap=10**4)
        yield (f"simulate_ct_skeleton at 400 replicates, {n}",
               partial(simulate_ct_skeleton, build_embedding(law[n]), cfg, 0.5), 7)
    # the one-term Series routes, which stationary_law spends most of its time in
    for k in (1024, 4096):
        base = Series.affine(2.0, -1.0, k)
        yield f"Series.affine(2, -1, {k}).pow(0.5)", partial(base.pow, 0.5), 21
        yield f"Series.affine(2, -1, {k}).log()", base.log, 21
    yield "stationary_law(case1, 1024)", partial(stationary_law, law["case1"], 1024), 21
    # a discrete run whose rows start with one read per replicate
    cfg = SimConfig(params=law["case6"], replicates=2000, n_max=30)
    yield "estimate_tails, case6, 2000 replicates, n_max 30", partial(estimate_tails, cfg), 21
    yield f"cores this process may run on: {cores}", None, 0
    case5 = partial(SimConfig, params=law["case5"], n_max=30, z_cap=10**6)
    table = offspring._pmf_table(law["case5"])
    table.ensure_coverage(1.0)  # grows to the cap
    mc = partial(estimate_tails, case5(replicates=2000))
    search = partial(offspring._counts, table.boundaries, np.random.default_rng(0).random(2**18))
    # case5's big generations take the split: each row is timed with it on and
    # forced off, the cores set here holding while the caller times the row
    for label, call in (("estimate_tails, case5, 2000 replicates, n_max 30", mc),
                        (f"_counts, 2^18 uniforms, case5's {table.order}-entry table", search)):
        for n in (cores, 1):
            offspring._cores = n
            yield f"{label}, split {f'on ({n} cores)' if n > 1 else 'off'}", call, 5
    offspring._cores = cores
    # each worker splits its own searches across its share of the cores
    yield (f"estimate_tails, case5, 10^4 replicates, n_max 30, workers=2 on {max(1, cores // 2)} "
           "cores each", partial(estimate_tails, case5(replicates=10**4), workers=2), 5)
    # the triangle route, which forms every row up to K even once they hold f(1)
    yield "pmf at K = 1024, case3", partial(pmf, law["case3"], 1024), 9


if __name__ == "__main__":
    warnings.simplefilter("ignore")  # case5's censored-fraction warning
    for label, call, n in rows(offspring._cores):
        print(label if call is None else f"{label}: {median_ms(call, n):.3f} ms (median of {n})")
