"""Classifier and scalar-summary checks against hand-derived values."""

import math

import numpy as np
import pytest

import thetagw
from thetagw import (
    ConditioningWarning,
    Criticality,
    DomainError,
    InconsistentParamsError,
    ThetaParams,
    UnclassifiableError,
    case_of,
    dual_transform,
    eval_f,
    from_linear_fractional,
    pmf,
    scalar_summary,
    serialize,
    validate_classify,
)

from conftest import DESK_RAW, NINE


EXPECTED_TAG = {
    # case_id, regular, criticality for every desk set
    "case1": ("case1", True, Criticality.SUBCRITICAL),
    "case2": ("case2", True, Criticality.CRITICAL),
    "case2h": ("case2", True, Criticality.CRITICAL),
    "case3": ("case3", True, Criticality.SUPERCRITICAL),
    "case4": ("case4", True, Criticality.SUPERCRITICAL),
    "case5": ("case5", False, Criticality.NON_REGULAR),
    "case5b": ("case5", False, Criticality.NON_REGULAR),
    "case6": ("case6", False, Criticality.NON_REGULAR),
    "case7": ("case7", True, Criticality.SUBCRITICAL),
    "case7b": ("case7", False, Criticality.NON_REGULAR),
    "case8": ("case8", True, Criticality.SUBCRITICAL),
    "case8b": ("case8", False, Criticality.NON_REGULAR),
    "case9": ("case9", True, Criticality.SUBCRITICAL),
    "case9b": ("case9", False, Criticality.NON_REGULAR),
}


@pytest.mark.parametrize("name", sorted(DESK_RAW))
def test_desk_sets_classify(desk, name):
    p, tag = desk[name]
    case_id, regular, crit = EXPECTED_TAG[name]
    assert tag.case_id == case_id
    assert tag.regular is regular
    assert tag.criticality is crit
    # q is a fixed point of f in [0, 1] in every case
    assert abs(eval_f(p, p.q) - p.q) < 1e-12


def test_canonical_c_recovered_from_q(desk):
    # c = (1-a)(A-q)^(-theta), or 1-a on the theta=0 branch
    for name in NINE:
        p, _ = desk[name]
        if p.a >= 1.0:
            continue
        if p.theta == 0.0:
            assert p.c == 1.0 - p.a
        else:
            expect = (1.0 - p.a) * (p.big_a - p.q) ** (-p.theta)
            assert math.isclose(p.c, expect, rel_tol=1e-12)


def test_q_recovered_from_c():
    # theta=1, a=0.5, c=1 inverts to q=0.5 without q being passed
    p, tag = validate_classify({"theta": 1.0, "a": 0.5, "c": 1.0})
    assert tag.case_id == "case3"
    assert math.isclose(p.q, 0.5, rel_tol=1e-14)


def test_redundant_c_q_cross_checked():
    validate_classify({"theta": 1.0, "a": 0.5, "c": 1.0, "q": 0.5})
    with pytest.raises(InconsistentParamsError):
        validate_classify({"theta": 1.0, "a": 0.5, "c": 1.0, "q": 0.6})


def test_declared_case_id_checked():
    validate_classify({"theta": 1.0, "a": 2.0, "c": 1.0, "case_id": "case1"})
    with pytest.raises(InconsistentParamsError):
        validate_classify({"theta": 1.0, "a": 2.0, "c": 1.0, "case_id": "case2"})


@pytest.mark.parametrize(
    "raw",
    [
        {"theta": 2.0, "a": 0.5, "q": 0.5},
        {"theta": 1.0, "a": -1.0, "c": 1.0},
        {"theta": 1.0, "a": 0.5},
        {"theta": 1.0, "a": 0.5, "q": 1.5},
        {"theta": 1.0, "a": 0.5, "q": 0.5, "bogus": 3},
        {"theta": 0.0, "a": 0.5, "c": 0.5},
        {"a": 0.5, "q": 0.5},
    ],
)
def test_domain_rejections(raw):
    with pytest.raises(DomainError):
        validate_classify(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"theta": 1.0, "a": 2.0, "c": 1.0, "A": 2.0},
        {"theta": 0.0, "a": 2.0, "q": 0.5},
        {"theta": -0.5, "a": 1.5, "q": 0.5},
        {"theta": -1.0, "a": 0.5, "q": 0.5, "A": 2.0},
        {"theta": 1.0, "a": 0.5, "q": 1.0},
    ],
)
def test_unclassifiable_corners(raw):
    with pytest.raises(UnclassifiableError):
        validate_classify(raw)


def test_tiny_theta_warns():
    # at |theta| = 1e-6 composition is already off by about 3e-10
    for theta in (1e-9, 1e-6, -1e-6):
        with pytest.warns(ConditioningWarning):
            validate_classify({"theta": theta, "a": 0.5, "q": 0.5})


def test_scalar_summary_desk_values(desk):
    # all values hand-derived from the closed forms of f, f', f'' at 1 and q
    s1 = scalar_summary(desk["case1"][0])
    assert (s1.f_at_1, s1.mean_m, s1.gamma) == (1.0, 0.5, 0.5)
    assert math.isclose(s1.f2_at_1, 0.5, rel_tol=1e-14)

    s2 = scalar_summary(desk["case2"][0])
    assert (s2.mean_m, s2.f2_at_1, s2.gamma) == (1.0, 2.0, 1.0)
    # fractional theta keeps the mean at 1 but blows up the variance
    assert scalar_summary(desk["case2h"][0]).f2_at_1 == math.inf

    s3 = scalar_summary(desk["case3"][0])
    assert (s3.mean_m, s3.gamma) == (2.0, 0.5)
    assert math.isclose(s3.f2_at_1, 8.0, rel_tol=1e-14)

    s4 = scalar_summary(desk["case4"][0])
    assert (s4.f_at_1, s4.mean_m, s4.gamma) == (1.0, math.inf, 0.5)

    s5 = scalar_summary(desk["case5"][0])
    assert math.isclose(s5.f_at_1, 0.75, rel_tol=1e-14)
    assert math.isclose(s5.p_inf, 0.25, rel_tol=1e-14)
    assert s5.mean_m == math.inf

    s6 = scalar_summary(desk["case6"][0])
    assert math.isclose(s6.f_at_1, 0.65, rel_tol=1e-14)
    assert (s6.mean_m, s6.f2_at_1, s6.gamma) == (0.5, 0.0, 0.5)

    for name, f2 in (("case7", 0.375), ("case8", 0.25), ("case9", 0.125)):
        s = scalar_summary(desk[name][0])
        assert (s.f_at_1, s.mean_m, s.gamma) == (1.0, 0.5, 0.5)
        assert math.isclose(s.f2_at_1, f2, rel_tol=1e-14)


def test_summary_matches_generic_evaluator(desk):
    # independent route: f(1) from the generic pgf, mean from a one-sided
    # difference quotient when finite
    for name in NINE:
        p, _ = desk[name]
        s = scalar_summary(p)
        assert abs(eval_f(p, 1.0) - s.f_at_1) < 1e-12
        if math.isfinite(s.mean_m):
            h = 1e-7
            slope = (eval_f(p, 1.0) - eval_f(p, 1.0 - h)) / h
            assert abs(slope - s.mean_m) < 1e-5


def test_d_property():
    p, _ = validate_classify({"theta": 1.0, "a": 2.0, "c": 1.0})
    assert p.d == 1.0
    p2, _ = validate_classify({"theta": 1.0, "a": 0.5, "q": 0.5})
    with pytest.raises(DomainError):
        p2.d


def test_dual_transform_lands_on_unit_interval(desk):
    # fhat(s) = f(sA)/A must hold pointwise, and the dual keeps theta, a
    for name in ("case7", "case7b", "case8", "case8b", "case9", "case9b"):
        p, _ = desk[name]
        ph = dual_transform(p)
        assert ph.big_a == 1.0
        assert math.isclose(ph.q, p.q / p.big_a, rel_tol=1e-14)
        s = np.linspace(0.0, 1.0, 21)
        direct = eval_f(p, s * p.big_a) / p.big_a
        assert np.max(np.abs(eval_f(ph, s) - direct)) < 1e-12
    with pytest.raises(DomainError):
        dual_transform(desk["case3"][0])


def test_from_linear_fractional_matches_geometric():
    p, tag = from_linear_fractional(0.2, 0.4)
    assert tag.case_id == "case3"
    assert math.isclose(p.a, 0.5, rel_tol=1e-14)
    assert math.isclose(p.q, 1.0 / 3.0, rel_tol=1e-12)
    probs = pmf(p, 12)
    assert math.isclose(probs[0], 0.2, rel_tol=1e-12)
    for k in range(1, 13):
        geom = 0.8 * 0.6 ** (k - 1) * 0.4
        assert math.isclose(probs[k], geom, rel_tol=1e-10)


def test_from_linear_fractional_boundaries():
    with pytest.raises(InconsistentParamsError):
        from_linear_fractional(0.2, 1.0)
    with pytest.raises(DomainError):
        from_linear_fractional(1.0, 0.4)
    # supercritical and critical members are reachable too
    assert from_linear_fractional(0.1, 0.9)[1].case_id == "case2"
    assert from_linear_fractional(0.05, 0.99)[1].case_id == "case1"


def test_serialize_round_trip(desk):
    for name in sorted(DESK_RAW):
        p, tag = desk[name]
        doc = serialize(p)
        assert doc["case_id"] == tag.case_id
        p2, tag2 = validate_classify(doc)
        assert p2 == p and tag2 == tag


def test_direct_construction_range_checks():
    with pytest.raises(DomainError):
        ThetaParams(theta=1.0, a=0.5, c=1.0, big_a=0.5, q=0.5)
    with pytest.raises(DomainError):
        ThetaParams(theta=1.0, a=0.5, c=float("nan"), big_a=1.0, q=0.5)


def _direct(**kw):
    return ThetaParams(**{"theta": 1.0, "a": 0.5, "c": 1.0, "big_a": 1.0, "q": 0.5, **kw})


@pytest.mark.parametrize("call, error", [
    (lambda: _direct(theta=1.5), DomainError),
    (lambda: _direct(a=0.0), DomainError),
    (lambda: _direct(c=-1.0), DomainError),
    (lambda: _direct(q=1.5), DomainError),
    (lambda: case_of(_direct(theta=0.0, a=2.0)), UnclassifiableError),
    (lambda: case_of(_direct(theta=-0.5, a=2.0)), UnclassifiableError),
    (lambda: validate_classify({"theta": 1.0, "a": 0.5, "q": 0.5, "A": 0.5}), DomainError),
    (lambda: validate_classify({"theta": 1.0, "a": 0.5, "c": -1.0}), DomainError),
    (lambda: validate_classify({"theta": 1.0, "a": 2.0, "q": 1.0}), DomainError),
    (lambda: validate_classify({"theta": 1.0, "a": 2.0, "c": 0.0}), DomainError),
    (lambda: validate_classify({"theta": 1.0, "a": 0.5, "c": 0.0}), DomainError),
    (lambda: validate_classify({"theta": 1.0, "a": 2.0, "c": 1.0, "q": 0.5}),
     InconsistentParamsError),
    (lambda: validate_classify({"theta": 0.0, "a": 0.5, "q": 0.25, "c": 2.0}),
     InconsistentParamsError),
    (lambda: validate_classify({"theta": 1.0, "a": 0.5, "c": 0.1}), UnclassifiableError),
    # ((1 - a)/c)**(1/theta) overflows: q = A minus a number past 1e308 is -inf
    (lambda: validate_classify({"theta": 1e-3, "a": 0.5, "c": 1e-10}), UnclassifiableError),
    (lambda: validate_classify({"theta": 1.0, "a": 1.0, "c": 1.0, "A": 2.0}),
     UnclassifiableError),
    (lambda: from_linear_fractional(0.2, 0.0), DomainError),
], ids=[
    "direct-theta", "direct-a", "direct-c", "direct-q", "case_of-theta0-a2",
    "case_of-negative-theta-a2", "A-below-1", "c-negative", "a2-q-only", "a2-c0",
    "c0-no-q", "a2-q-not-1", "theta0-c-not-1-a", "c-gives-q-below-0", "c-gives-q-minus-inf",
    "a1-A2", "lf-pr-0",
])
def test_every_rejection_rule(call, error):
    # one input per raise statement in params.py that the other tests leave unrun
    with pytest.raises(error):
        call()


_OUT_OF_RANGE = {"theta": -1.5, "a": 0.0, "c": -1.0, "A": 0.5, "q": 1.5}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "out"])
@pytest.mark.parametrize("key", sorted(_OUT_OF_RANGE))
def test_one_range_rule_for_both_constructors(key, bad):
    # ThetaParams and validate_classify reject a coordinate with one message
    value = _OUT_OF_RANGE[key] if bad == "out" else bad
    field = "big_a" if key == "A" else key
    with pytest.raises(DomainError) as direct:
        _direct(**{field: value})
    raw = {"theta": 1.0, "a": 0.5, "c": 1.0, "A": 1.0, "q": 0.5}
    with pytest.raises(DomainError) as classified:
        validate_classify({**raw, key: value})
    assert str(direct.value) == str(classified.value)
    assert str(direct.value).startswith(f"{key} must lie in ")


def _law(name):
    return validate_classify(DESK_RAW[name])[0]


# each order, count or index argument, with a law or table it applies to
COUNT_ARGUMENTS = {
    "pmf": lambda k: thetagw.pmf(_law("case3"), k),
    "series_coeffs": lambda k: thetagw.series_coeffs(_law("case3"), k),
    "fn_series": lambda k: thetagw.fn_series(_law("case3"), 1.0, k),
    "h_coeffs": lambda k: thetagw.h_coeffs(thetagw.build_embedding(_law("case3")), k),
    "b_triangle": lambda k: thetagw.b_triangle(0.5, k),
    "lattice": lambda k: thetagw.gumbel_limit(0.5, 0.0, theta=-0.1).lattice(k),
    "theta0_scaled_tail-n_lo": lambda k: thetagw.theta0_scaled_tail(_law("case4"), k, 5),
    "theta0_scaled_tail-n_hi": lambda k: thetagw.theta0_scaled_tail(_law("case4"), 1, k),
    "stationary_law": lambda k: thetagw.stationary_law(_law("case3"), k),
    "conditional_limit_b": lambda k: thetagw.conditional_limit_b(_law("case3"), k),
    "critical_limit_w": lambda k: thetagw.critical_limit_w(_law("case2"), k),
    "q_transition_matrix-i_max": lambda k: thetagw.q_transition_matrix(_law("case3"), 1, k, 3),
    "q_transition_matrix-j_max": lambda k: thetagw.q_transition_matrix(_law("case3"), 1, 2, k),
    "q_transition_matrix-n": lambda k: thetagw.q_transition_matrix(_law("case3"), k, 2, 3),
    "q_transition_gf-i": lambda k: thetagw.q_transition_gf(_law("case3"), k, 2, 0.3),
    "q_transition_gf-n": lambda k: thetagw.q_transition_gf(_law("case3"), 1, k, 0.3),
    "compose_iterate": lambda k: thetagw.compose_iterate(_law("case3"), k, 0.5),
    "LimitLaw.prob": lambda k: thetagw.stationary_law(_law("case3"), 5).prob(k),
    "BTriangle.value-i": lambda k: thetagw.b_triangle(0.5, 5).value(k, 4),
    "BTriangle.value-n": lambda k: thetagw.b_triangle(0.5, 5).value(1, k),
    "BTriangle.row": lambda k: thetagw.b_triangle(0.5, 5).row(k),
}


@pytest.mark.parametrize("value", [-1, 2.5, 2.0])
@pytest.mark.parametrize("call", list(COUNT_ARGUMENTS.values()), ids=list(COUNT_ARGUMENTS))
def test_count_arguments_are_nonnegative_integers(call, value):
    # one rule, params._integer: a negative order or count, or any float, is a
    # DomainError, never an IndexError, a TypeError or a silently cut table
    with pytest.raises(DomainError, match="must be"):
        call(value)
    call(np.int64(3))  # numpy integers are integers
