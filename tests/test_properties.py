"""Properties over the admissible parameter space, not only the desk sets."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetagw import (
    DomainError,
    ThetaParams,
    absorption_tails,
    case_of,
    eval_fn,
    serialize,
    validate_classify,
)

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)

# exact branch values plus the interval less 0 < |theta| < 1e-8; below 1e-5 they
# warn of ill-conditioning
THETA = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, -0.5, -1.0 / 3.0]),
    st.floats(-1.0, 1.0).filter(lambda t: t == 0.0 or abs(t) >= 1e-8),
)
LOW_A = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
HIGH_A = st.floats(1.0, 3.0, exclude_min=True)
BIG_A = st.one_of(st.just(1.0), st.floats(1.0, 3.0))
Q = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def admissible(draw):
    """(ThetaParams, CaseTag); a >= 1 takes c, since q = 1 carries nothing there."""
    theta, big_a = draw(THETA), draw(BIG_A)
    if draw(st.booleans()):
        raw = {"theta": theta, "a": draw(LOW_A), "A": big_a, "q": draw(Q)}
    else:
        raw = {"theta": theta, "a": draw(HIGH_A), "A": big_a, "c": draw(st.floats(0.01, 3.0))}
    try:
        return validate_classify(raw)
    except DomainError:
        assume(False)


@PROPERTY
@given(admissible())
def test_serialize_round_trips(pt):
    p, tag = pt
    assert validate_classify(serialize(p)) == (p, tag)


@PROPERTY
@given(THETA, LOW_A, BIG_A, Q)
def test_classified_params_validate(theta, a, big_a, q):
    # whatever case_of classifies, validate_classify admits too: one A = 1, q = 1
    # rule serves both, and theta = -1 there is the pure-death law
    try:
        c = 1.0 - a if theta == 0.0 else (1.0 - a) * (big_a - q) ** (-theta)
        p = ThetaParams(theta=theta, a=a, c=c, big_a=big_a, q=q)
        tag = case_of(p)
    except (ZeroDivisionError, DomainError):  # 0 ** -theta, or no case
        assume(False)
    assert validate_classify(serialize(p)) == (p, tag)


@PROPERTY
@given(admissible(), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_iterates_compose(pt, s, t):
    p, _ = pt
    x = np.linspace(0.0, 1.0, 11)
    y = eval_fn(p, t, x)
    nested = eval_fn(p, s, y)
    # 1e-10, plus what conditioning allows: the closed form takes a power of
    # order 1/|theta| (relative rounding eps/|theta|), and the nested route
    # sees y only to its last bit, to which f_s is steep near A for theta <= 0
    last_bit = np.abs(nested - eval_fn(p, s, np.nextafter(y, -1.0)))
    tol = 1e-10 + 1e-14 * p.big_a / min(1.0, abs(p.theta) or 1.0) + last_bit
    assert np.all(np.abs(eval_fn(p, s + t, x) - nested) <= tol)


# t_tail is left out: see test_absorption.py::test_t_tail_keeps_relative_precision
@PROPERTY
@given(admissible())
def test_t0_t1_tails_nonincreasing(pt):
    p, _ = pt
    tails = absorption_tails(p)
    n = np.arange(0, 200)
    for tail in (tails.t0_tail(n), tails.t1_tail(n)):
        assert np.all(np.diff(tail) <= 0.0)

