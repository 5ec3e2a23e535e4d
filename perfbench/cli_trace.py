"""Run one thetagw CLI command with the layer wrappers installed.

``python -m perfbench.cli_trace <cli args>`` behaves like ``python -m
thetagw.cli <cli args>`` (same stdout and exit code) and adds one stderr line
holding the spans recorded inside ``thetagw.cli.main``. Import happens before
the wrappers go in, so it is measured separately by ``import_times``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from .cli_analytic import SPANS_MARK
from .spans import Tracer, install


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(total, scipy part) in seconds from ``python -X importtime`` output.

    The total is the cumulative time of the top-level imports. The scipy
    part is the cumulative time of every scipy module that no other scipy
    module imported, so it includes what scipy pulls in.
    """
    entries = []  # (depth, cumulative us, module) in the order printed
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = scipy = 0
    ancestors: list[str] = []
    # children are printed before their parent, so walk backwards
    for depth, cumulative, module in reversed(entries):
        del ancestors[depth:]
        is_scipy = module.split(".")[0] == "scipy"
        if depth == 0:
            total += cumulative
        if is_scipy and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append(module)
    return total / 1e6, scipy / 1e6


def import_times(samples: int = 3) -> tuple[float, float]:
    """Medians over fresh interpreters of ``parse_importtime``'s pair."""
    runs = [
        parse_importtime(
            subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import thetagw.cli"],
                capture_output=True, text=True, check=True, timeout=120,
            ).stderr
        )
        for _ in range(samples)
    ]
    return tuple(statistics.median(r[i] for r in runs) for i in (0, 1))


def main(argv: list[str]) -> int:
    import thetagw.cli

    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    code = thetagw.cli.main(argv)
    tracer.enabled = False
    sys.stdout.flush()
    print(SPANS_MARK + json.dumps(tracer.export()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
