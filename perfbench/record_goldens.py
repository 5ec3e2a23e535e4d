"""Write goldens.json: the outputs later changes must reproduce byte for byte.

    PYTHONPATH=src:. python3 -m perfbench.record_goldens

Records the sha256 of the stdout of every CLI command cli_analytic can draw,
and the digest of the aggregated Monte Carlo counts of every mc_discrete and
ct_series call at the baseline seed. The goldens belong to the sources they
were recorded from; re-recording them makes a behaviour change invisible.
"""

from __future__ import annotations

import json
import warnings

import thetagw

from . import cli_analytic, ct_series, mc_discrete
from .common import BASELINE_SEED, GOLDENS_PATH, bytes_digest, counts_digest


def main() -> int:
    warnings.simplefilter("ignore", thetagw.QualityWarning)
    goldens = {"cli_analytic": {}, "mc_discrete": {}, "ct_series": {}}
    for argv, expected in cli_analytic.pool():
        code, stdout = cli_analytic.run_cli(argv)
        if code != expected:
            raise SystemExit(f"{' '.join(argv)}: exit {code}, expected {expected}")
        goldens["cli_analytic"][" ".join(argv)] = bytes_digest(stdout)
    for label, cfg in mc_discrete.configs(BASELINE_SEED, mc_discrete.SIZES):
        emp = thetagw.estimate_tails(cfg, workers=1)
        goldens["mc_discrete"][label] = counts_digest(emp)
    for label, cfg in ct_series.configs(
        BASELINE_SEED, ct_series.CT_SETS, ct_series.CT_REPLICATES
    ):
        emp = thetagw.simulate_ct_skeleton(
            thetagw.build_embedding(cfg.params), cfg, ct_series.CT_DT
        )
        goldens["ct_series"][label] = counts_digest(emp)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
