"""The QAGS port against scipy.integrate.quad, compared bit for bit.

Value and error estimate must be equal with ==, not merely close: the port
keeps QUADPACK's operations in order, so any difference is a porting fault.
"""

import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

from thetagw import CANONICAL_SETS, absorption, build_embedding, embedding, validate_classify
from thetagw import _quadpack
from thetagw.errors import ConditioningWarning, DomainError, QualityWarning, SingularPathError
from thetagw.verify import _safe_s_points

from conftest import DESK_RAW

TOLERANCES = (1e-6, 1.49e-8, 1e-10, 1e-12, 1e-14)
LIMITS = (3, 10, 50, 200)

# integrable singularities, oscillation, a jump, a sharp peak and two
# divergent integrals: between them they raise every QUADPACK flag from 1 to 5
GENERIC = {
    "log": lambda x: math.log(x),
    "x^-0.9": lambda x: x**-0.9,
    "x^-0.99": lambda x: x**-0.99,
    "1/x": lambda x: 1.0 / x,
    "sin(1/x)": lambda x: math.sin(1.0 / x),
    "step": lambda x: 1.0 if x > 1.0 / 3.0 else 0.0,
    "peak": lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6),
    "cos(100x)": lambda x: math.cos(100.0 * x),
    "x^-1.5": lambda x: x**-1.5,
    "1/|x-1/3|": lambda x: 1.0 / abs(x - 1.0 / 3.0),
}


def both(f, a, b, **kw):
    """((value, err), warned) from scipy and from the port, warnings recorded."""
    out = []
    for fn, category in ((scipy_quad, IntegrationWarning), (_quadpack.quad, QualityWarning)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fn(f, a, b, **kw)
        out.append((res, any(issubclass(w.category, category) for w in caught)))
    return out


@pytest.mark.parametrize("flip", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("name", GENERIC)
def test_generic_integrands_bitwise(name, flip):
    f = GENERIC[name]
    a, b = (1.0, 0.0) if flip else (0.0, 1.0)
    for tol in TOLERANCES:
        for limit in LIMITS:
            (ref, ref_warned), (got, warned) = both(f, a, b, epsabs=tol, epsrel=tol, limit=limit)
            assert got == ref, (name, tol, limit)
            assert warned == ref_warned, (name, tol, limit)


def test_every_flag_is_reached():
    # the generic sweep is only a full check if it meets each exit of dqagse
    flags = set()
    for f in GENERIC.values():
        for tol in TOLERANCES:
            for limit in LIMITS:
                ier = _quadpack._qagse(f, 0.0, 1.0, tol, tol, limit)[2]
                flags.add(ier)
    assert flags == {0, 1, 2, 3, 4, 5}


def recording_quad(calls):
    """A quad that runs scipy and the port on the same call and records both."""

    def quad(f, a, b, **kw):
        (ref, _), (got, _) = both(f, a, b, **kw)
        calls.append((a, b, ref, got))
        return got

    return quad


def test_residual_integrands_bitwise(monkeypatch):
    # the generator-flow integrands of integral_residual, every canonical set
    calls = []
    monkeypatch.setattr(embedding, "quad", recording_quad(calls))
    for raw in CANONICAL_SETS:
        e = build_embedding(validate_classify(raw)[0])
        for s in _safe_s_points(e.params.q):
            for t in (0.5, 1.0, 2.0):
                try:
                    embedding.integral_residual(e, t, s)
                except SingularPathError:
                    continue
    assert len(calls) >= 27
    for a, b, ref, got in calls:
        assert got == ref, (a, b)


def test_tail_completion_integrand_bitwise(monkeypatch):
    # case2h's critical tail 1/(1 + n/2)^2 is still alive at n = 2^14, so its
    # expected extinction time goes through the Euler-Maclaurin completion
    calls = []
    monkeypatch.setattr(absorption, "quad", recording_quad(calls))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)  # no explosions
        absorption.expected_absorption(validate_classify(DESK_RAW["case2h"])[0])
    assert calls
    for a, b, ref, got in calls:
        assert got == ref, (a, b)


def test_flag_warning_names_flag_and_interval():
    with pytest.warns(QualityWarning, match=r"quadrature flag 1 on \[0.0, 1.0\]"):
        _quadpack.quad(GENERIC["sin(1/x)"], 0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=3)


@pytest.mark.parametrize("kw", [
    {"epsabs": 1e-8, "epsrel": 1e-8, "limit": 0},
    {"epsabs": 0.0, "epsrel": 1e-20, "limit": 50},
])
def test_invalid_input_raises(kw):
    with pytest.raises(ValueError):
        scipy_quad(math.exp, 0.0, 1.0, **kw)
    with pytest.raises(DomainError):
        _quadpack.quad(math.exp, 0.0, 1.0, **kw)
