"""A refusal census: eight analytic subcommands on 100 drawn laws, every exit
sorted by its cause.

The laws come from one fixed draw (default_rng(2026)):
- theta = 10^U(-6, 0);
- a quarter with a >= 1 (a = 1 or 10^U(0, 1)), this theta > 0 and
  c = 10^U(-3, 2);
- the rest with theta negated (floored at -0.999) half the time,
  a = 10^U(-18, log10 0.999), A = 1 or 10^U(0, 10), and q = 1 or 10^U(-25, 0).

`pmf`, `absorb`, `embed`, `qprocess`, `iterate`, `verify`, `classify` and
`gumbel` run on each law through `cli.main`, in process. A correct refusal is
an exit 3 for a law the paper excludes: A = q = 1 with a < 1, which `classify`
refuses, or an embedding that does not exist. `verify` then runs none of its
other checks either, so its refusal counts as a cause of its own. `gumbel`
reads its law as --a and --q with --theta and --A, so it correctly refuses a
law given by c, and one outside the limit regime: q = 1, theta outside
(-1, 0] or A outside [1, 2). Every other exit 3, every exit 4 and
every exit 5 is a defect of a known cause, and so is a `pmf` that exits 0 with
p_0 above q. Each defect the draw meets has a strict xfail that asserts it
never occurs and reports its count over every command, so a fix flips its own
xfail. An exit of no listed cause, or of a known defect the draw did not meet
before, fails the plain test.

Run as a script (PYTHONPATH=src python tests/test_census.py), it prints one
line per (command, exit, cause) with its count.
"""

import collections
import contextlib
import functools
import io
import math
import re
import warnings

import numpy as np
import pytest

from thetagw import cli

COMMANDS = {
    "pmf": ["--k-max=2"],
    "absorb": ["--n=20"],
    "embed": ["--k-max=5"],
    "qprocess": ["--k-max=10"],
    "iterate": [],
    "verify": [],
    "classify": [],
    "gumbel": ["--n=20"],
}

# exits that answer the law correctly: name -> (command or None for any, exit,
# pattern in stderr)
NO_EMBEDDING = r"offspring mean parameter .* outside \(0, 1\+1/theta\]"
CORRECT = {
    "A=q=1-with-a<1": (None, 3, r"A = 1 with q = 1 requires a >= 1"),
    "no-embedding": ("embed", 3, NO_EMBEDDING),
    "verify-no-embedding": ("verify", 3, NO_EMBEDDING),
    "gumbel-needs-a-and-q": ("gumbel", 3, r"gumbel needs --a and --q"),
    "gumbel-q-outside-0-1": ("gumbel", 3, r"q must lie in \[0,1\)"),
    "gumbel-theta-outside-regime": ("gumbel", 3, r"the limit regime needs theta in \(-1, 0\]"),
    "gumbel-A-outside-regime": ("gumbel", 3, r"the limit regime needs A in \[1, 2\)"),
}

# the known defects, one row per command and exit a defect shows in: (name,
# command, exit, pattern in stderr or stdout). A defect is named after the
# command that met it first; the item of ROADMAP.md that takes each up is in
# brackets
P0_CLAMP = r"p_0 = .* is negative beyond the 1e-12 clamp"
H_Q = r"h\(.*\) = .* != q"
H_X_X = r"h\(x\) - x on the integration path"
DEFECTS = (
    ("pmf-p0-clamp", "pmf", 4, P0_CLAMP),  # [9]
    ("pmf-p0-clamp", "verify", 4, P0_CLAMP),  # [9]
    ("pmf-p0-above-q", "pmf", 0, None),  # [9]: p_0 > q (1 + 1e-12), read by _cause
    ("embed-h(q)!=q", "embed", 4, H_Q),  # [9]
    ("embed-h(q)!=q", "verify", 4, H_Q),  # [9]
    ("embed-linear-coefficient", "embed", 4, r"linear coefficient .* did not cancel"),  # [9]
    ("embed-h(x)-x-rounds-to-0", "embed", 4, H_X_X),  # [7]
    ("embed-h(x)-x-rounds-to-0", "verify", 4, H_X_X),  # [7]
    ("embed-flow-check-fails", "embed", 5, r"^quad_residuals: .* FAIL$"),  # [7]
    ("embed-flow-check-fails", "verify", 5, r"^FAIL  embed_quadrature "),  # [7]
    ("embed-s-outside-0-A", "embed", 3, r"s must lie in \[0, A\]"),  # [7, 9]
    ("qprocess-Q(0)-cancels", "qprocess", 4, r"Q\(0\) = .* cancels"),  # [9]
    ("qprocess-Q(0)-underflows", "qprocess", 4, r"Q\(0\) = .* underflows"),  # [9]
    ("verify-coefficient-sum-exceeds-f_t(1)", "verify", 4,
     r"coefficient sum exceeds f_t\(1\)"),  # [12]
    ("verify-iterate-left-0-A", "verify", 4, r"iterate left \[0, A\]"),  # [12]
    ("verify-iterate-identity-fails", "verify", 5, r"^FAIL  iterate_identity "),  # [12]
)

# the defects the checked-in draw meets, each a strict xfail below; a known
# defect met outside this list fails test_every_exit_has_a_known_cause
MET = (
    "pmf-p0-clamp",
    "pmf-p0-above-q",
    "embed-h(q)!=q",
    "embed-linear-coefficient",
    "embed-h(x)-x-rounds-to-0",
    "embed-flow-check-fails",
    "qprocess-Q(0)-cancels",
    "qprocess-Q(0)-underflows",
    "verify-coefficient-sum-exceeds-f_t(1)",
    "verify-iterate-left-0-A",
    "verify-iterate-identity-fails",
)


def _laws(count=100, seed=2026):
    rng = np.random.default_rng(seed)
    laws = []
    for _ in range(count):
        theta = 10.0 ** rng.uniform(-6.0, 0.0)
        if rng.random() < 0.25:
            a = 1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, 1.0)
            laws.append({"theta": theta, "a": a, "c": 10.0 ** rng.uniform(-3.0, 2.0)})
            continue
        if rng.random() < 0.5:
            theta = max(-theta, -0.999)
        a = 10.0 ** rng.uniform(-18.0, math.log10(0.999))
        big_a = 1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, 10.0)
        q = 1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-25.0, 0.0)
        laws.append({"theta": theta, "a": a, "A": big_a, "q": q})
    return laws


def _argv(command, law):
    # --key=value: argparse reads "-5.5e-06" after a bare flag as an option
    return [command, *COMMANDS[command], "--format=text",
            *(f"--{key}={value!r}" for key, value in law.items())]


def _cause(command, code, out, err, law):
    """The cause of one exit: a key of CORRECT or DEFECTS, "ok", or "unknown"."""
    if code == 0 and command == "pmf":
        p0 = float(re.search(r"^p_0 = (\S+)$", out, re.M).group(1))
        return "pmf-p0-above-q" if p0 > law.get("q", 1.0) * (1.0 + 1e-12) else "ok"
    if code == 0:
        return "ok"
    rows = [(name, *row) for name, row in CORRECT.items()] + list(DEFECTS)
    for name, cmd, want, pattern in rows:  # code != 0 here
        if cmd in (None, command) and code == want and re.search(pattern, err + out, re.M):
            return name
    return "unknown"


@functools.lru_cache(maxsize=None)
def census():
    """(command, law index, exit, cause, stderr) for every call, in draw order."""
    rows = []
    for i, law in enumerate(_laws()):
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = cli.main(_argv(command, law))
            out, err = out.getvalue(), err.getvalue()
            rows.append((command, i, code, _cause(command, code, out, err, law), err))
    return tuple(rows)


def counts():
    """(command, exit, cause) -> number of calls."""
    return collections.Counter((cmd, code, cause) for cmd, _, code, cause, _ in census())


def test_every_exit_has_a_known_cause():
    # exit 1 is the unexpected error, and 2 a usage error the argv cannot make
    assert {code for _, _, code, _, _ in census()} <= {0, 3, 4, 5}
    unknown = [(_argv(cmd, _laws()[i]), code, cause, err.strip()[-200:])
               for cmd, i, code, cause, err in census()
               if cause not in ("ok", *CORRECT, *MET)]
    assert not unknown, unknown


@pytest.mark.parametrize("cause", MET)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a known defect the draw meets")
def test_no_census_call_meets(cause):
    found = sum(n for (_, _, c), n in counts().items() if c == cause)
    assert found == 0, f"{found} census calls meet {cause!r}"


if __name__ == "__main__":
    for (command, code, cause), n in sorted(counts().items()):
        print(f"{command:9s} exit {code}  {cause}: {n}")
