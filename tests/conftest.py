"""Shared fixtures: one canonical parameter set per case plus the variants."""

import math

import numpy as np
import pytest

from thetagw import simulate, validate_classify

# canonical desk sets, one per case, plus b-variants used by individual tests
DESK_RAW = {
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

NINE = (
    "case1", "case2", "case3", "case4", "case5",
    "case6", "case7", "case8", "case9",
)


def fft_pmf(p, order):
    """Reference masses p_0..p_order of a theta in (-1, 0) law: the pgf's
    Taylor coefficients from one FFT of f on the circle |s| = r (Abate & Whitt,
    Oper. Res. Lett. 12 (1992) 245-251). With N >= 16(order + 1) points and
    r = e^(-40/N), aliasing stays below e^(-40) and r^(-k) amplifies rounding
    by at most e^2.5."""
    n = 1 << (16 * (order + 1) - 1).bit_length()
    r = math.exp(-40.0 / n)
    s = r * np.exp(2j * np.pi * np.arange(n) / n)
    f = p.big_a - (p.a * (p.big_a - s) ** -p.theta + p.c) ** (-1.0 / p.theta)
    return (np.fft.fft(f)[: order + 1] / n).real * r ** -np.arange(order + 1.0)


@pytest.fixture(autouse=True)
def cold_tables():
    """Each test starts with no cached sampling table, so what it sees of table
    builds and growth does not depend on the tests run before it."""
    simulate._tables.clear()


@pytest.fixture(scope="session")
def desk():
    """name -> (ThetaParams, CaseTag) for every desk set."""
    return {name: validate_classify(raw) for name, raw in DESK_RAW.items()}


@pytest.fixture(scope="session", params=NINE)
def per_case(request, desk):
    """Parametrized over the nine canonical sets."""
    p, tag = desk[request.param]
    return request.param, p, tag


@pytest.fixture(scope="session", params=NINE + ("case5b", "case7b", "case8b", "case9b"))
def tail_case(request, desk):
    """The nine sets plus the explosive b-variants, whose tails take the
    theta != -1 explosive branches with q < 1."""
    p, tag = desk[request.param]
    return request.param, p, tag


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1]
                if key != "passed" or name not in rows:
                    rows[name] = "PASS" if key == "passed" else "FAIL"
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{rows[name]}  {name}")
