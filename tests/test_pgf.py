"""Closed-form iterates against naive composition and series extraction."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from thetagw import (
    DomainError,
    OverflowGuardError,
    ThetaParams,
    absorption_tails,
    build_embedding,
    compose_iterate,
    eval_f,
    eval_fn,
    eval_fn_prime,
    fn_series,
    h_eval,
    q_transition_gf,
    scalar_summary,
    series_coeffs,
    validate_classify,
)


def grid(p):
    return np.linspace(0.0, p.big_a, 50)


def test_iterate_matches_composition_all_cases(per_case):
    # the core closed-form identity: f_n = f o f o ... o f, n <= 20
    name, p, tag = per_case
    s = grid(p)
    for n in range(0, 21):
        closed = eval_fn(p, float(n), s)
        composed = compose_iterate(p, n, s)
        assert np.max(np.abs(closed - composed)) < 1e-10, (name, n)


def test_zero_and_one_step():
    from thetagw import validate_classify

    p, _ = validate_classify({"theta": -0.5, "a": 0.5, "q": 0.3})
    s = grid(p)
    assert np.max(np.abs(eval_fn(p, 0.0, s) - s)) < 1e-15
    assert np.max(np.abs(eval_fn(p, 1.0, s) - eval_f(p, s))) < 1e-15


def test_critical_iterate_value(desk):
    # a = 1, c = 1: f_n(0) = n/(n+1), so f_3(0) = 0.75 exactly
    p, _ = desk["case2"]
    assert eval_fn(p, 3.0, 0.0) == 0.75
    for n in range(1, 40):
        assert math.isclose(eval_fn(p, float(n), 0.0), n / (n + 1.0), rel_tol=5e-16)


def test_fractional_iterates_interpolate(per_case):
    # semigroup property at non-integer times: f_{t+u} = f_t o f_u
    name, p, tag = per_case
    s = grid(p)
    for t, u in ((0.5, 0.5), (0.25, 1.75), (1.3, 2.2)):
        left = eval_fn(p, t + u, s)
        right = eval_fn(p, t, eval_fn(p, u, s))
        assert np.max(np.abs(left - right)) < 1e-12, (name, t, u)


def test_iterate_monotone_in_s(per_case):
    name, p, tag = per_case
    s = grid(p)
    for n in (1.0, 5.0, 17.0):
        vals = eval_fn(p, n, s)
        assert np.all(np.diff(vals) >= -1e-14), (name, n)


def test_prime_matches_difference_quotient(per_case):
    name, p, tag = per_case
    for n in (1.0, 4.0):
        for s in (0.1, 0.45, 0.8 * p.q + 0.05):
            h = 1e-6
            quot = (eval_fn(p, n, s + h) - eval_fn(p, n, s - h)) / (2.0 * h)
            assert abs(eval_fn_prime(p, n, s) - quot) < 1e-6 * max(1.0, abs(quot))


def test_prime_at_fixed_point_is_gamma(per_case):
    # f'(q) drives all conditioned limits; case1 is the a**(-1/theta) outlier
    name, p, tag = per_case
    gamma = scalar_summary(p).gamma
    assert abs(eval_fn_prime(p, 1.0, p.q) - gamma) < 1e-12
    if name == "case1":
        assert gamma == p.a ** (-1.0 / p.theta)
    else:
        assert gamma == p.a


def test_series_matches_pointwise(per_case):
    # Taylor truncation evaluated at small s against the closed form
    name, p, tag = per_case
    ser = fn_series(p, 1.0, 60)
    for s in (0.0, 0.05, 0.1):
        direct = eval_f(p, s)
        assert abs(polyval(s, ser.coeffs) - direct) < 1e-12, name


def test_series_coeffs_truncation_accounting(per_case):
    name, p, tag = per_case
    st = series_coeffs(p, 120)
    assert st.coeffs.min() >= 0.0
    f1 = scalar_summary(p).f_at_1
    assert st.tail_mass_bound >= 0.0
    assert st.coeffs.sum() + st.tail_mass_bound == pytest.approx(f1, abs=1e-12)


def test_edge_snap_at_big_a(desk):
    p, _ = desk["case7"]
    # s = A is a fixed point of every member with theta > 0
    assert eval_f(p, p.big_a) == p.big_a
    assert eval_f(p, p.big_a - 1e-15) == p.big_a
    assert eval_fn(p, 7.0, p.big_a) == p.big_a


def test_domain_rejections(desk):
    p, _ = desk["case3"]
    with pytest.raises(DomainError):
        eval_f(p, -0.1)
    with pytest.raises(DomainError):
        eval_f(p, 1.1)
    with pytest.raises(DomainError):
        eval_fn(p, -1.0, 0.5)
    with pytest.raises(DomainError):
        compose_iterate(p, 2.5, 0.5)


@pytest.mark.parametrize("call", [
    lambda p: eval_fn(p, math.nan, 0.5),
    lambda p: eval_fn(p, 1.0, math.nan),
    lambda p: eval_f(p, math.nan),
    lambda p: series_coeffs(p, 5, t=math.nan),
    lambda p: absorption_tails(p).t0_tail(math.nan),
    lambda p: h_eval(build_embedding(p), math.nan),
    lambda p: q_transition_gf(p, 1, 2, math.nan),
], ids=[
    "eval_fn_t", "eval_fn_s", "eval_f", "series_coeffs", "t0_tail", "h_eval", "q_transition_gf",
])
def test_nan_fails_domain_guards(desk, call):
    # a guard written as x < 0 lets NaN through to a NaN result
    with pytest.raises(DomainError):
        call(desk["case3"][0])


def test_explosive_iterates_lose_mass(desk):
    # non-regular member: f_n(1) falls strictly, total escape 1 - q in the limit
    p, _ = desk["case5b"]
    vals = [eval_fn(p, float(n), 1.0) for n in range(0, 25)]
    assert all(b < a_ for a_, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(p.q, abs=1e-6)


def test_saturated_iterate_takes_its_limit(desk):
    # a = 2: a**n overflows past n = 1023, where f_n rounds to A = q = 1 and
    # f_n' (about 2**-n) is below the smallest double
    p, _ = desk["case1"]
    s = np.linspace(0.0, 1.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2000, 2000.5, 1e300):
            assert np.array_equal(eval_fn(p, n, s), eval_fn(p, 500, s))
            assert np.array_equal(eval_fn_prime(p, n, s), np.zeros_like(s))
    assert eval_fn(p, 2000, 0.0) == 1.0
    with pytest.raises(OverflowGuardError):
        fn_series(p, 2000, 8)


def test_fn_prime_at_a_reads_inf_past_the_float_range():
    # theta > 0: f_t'(A) is the limit a_t^(-1/theta), here 0.12^-1000
    p, _ = validate_classify({"theta": 1e-3, "a": 0.12, "A": 2.44, "q": 0.4})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_fn_prime(p, 1.0, 2.44) == math.inf
        assert eval_fn_prime(p, 1.0, 2.44 - 5e-15) == math.inf  # read as s = A
        both = eval_fn_prime(p, 1.0, np.array([1.0, 2.44]))
    assert math.isfinite(both[0]) and both[1] == math.inf


def test_saturated_iterate_without_finite_limit():
    # outside the admissible cases a > 1 with theta <= 0 diverges
    p = ThetaParams(theta=-0.5, a=2.0, c=1.0, big_a=1.0, q=1.0)
    with pytest.raises(OverflowGuardError):
        eval_fn(p, 2000, 0.5)
