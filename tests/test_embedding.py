"""Continuous-time embedding: skeleton identity, semigroup law, quadrature."""

import math

import numpy as np
import pytest

from thetagw import (
    DomainError,
    SingularPathError,
    build_embedding,
    compose_iterate,
    eval_f,
    eval_fn,
    h_coeffs,
    h_eval,
    integral_residual,
)


def test_time_one_skeleton_is_f(per_case):
    # F_1 must reproduce the discrete offspring pgf everywhere on [0, 1]
    name, p, tag = per_case
    e = build_embedding(p)
    s = np.linspace(0.0, 1.0, 50)
    assert np.max(np.abs(eval_fn(e.params, 1.0, s) - eval_f(p, s))) < 1e-10, name


def test_semigroup_property(per_case):
    name, p, tag = per_case
    e = build_embedding(p)
    s = np.linspace(0.0, 1.0, 50)
    for t, u in ((0.5, 0.5), (0.3, 1.2), (2.0, 0.25)):
        direct = eval_fn(e.params, t + u, s)
        nested = eval_fn(e.params, t, eval_fn(e.params, u, s))
        assert np.max(np.abs(direct - nested)) < 1e-10, (name, t, u)


def test_generator_fixed_points(per_case):
    # h(q) = q is the defining normalization; h(1) = 1 only for proper h
    name, p, tag = per_case
    e = build_embedding(p)
    assert abs(h_eval(e, p.q) - p.q) < 1e-12, name
    assert abs(h_eval(e, 1.0) - e.h_at_1) < 1e-12
    if tag.regular:
        assert e.h_at_1 == pytest.approx(1.0, abs=1e-12)
    assert e.lam > 0.0


def test_defective_generators(desk):
    # A > 1 with q < 1 leaves instantaneous escape mass 1 - h(1) > 0
    for name in ("case7b", "case8b", "case9b"):
        e = build_embedding(desk[name][0])
        assert e.h_at_1 < 1.0 - 1e-3, name
    # the two-point branch collapses h to the constant q
    e6 = build_embedding(desk["case6"][0])
    assert e6.form == "const"
    assert e6.lam == pytest.approx(math.log(2.0), rel=1e-14)
    assert h_eval(e6, 0.77) == desk["case6"][0].q


def test_h_coefficients_account_mass(per_case):
    name, p, tag = per_case
    e = build_embedding(p)
    st = h_coeffs(e, 200)
    assert st.coeffs.min() >= 0.0
    assert st.tail_mass_bound >= 0.0
    assert st.coeffs.sum() + st.tail_mass_bound == pytest.approx(e.h_at_1, abs=1e-9)
    # pointwise: truncated series evaluates h on [0, 1/2] where it converges fast
    for s in (0.0, 0.2, 0.5):
        horner = sum(c * s**k for k, c in enumerate(st.coeffs))
        assert abs(horner - h_eval(e, s)) < 1e-8, (name, s)


def test_critical_h_explicit(desk):
    # a = 1, theta = 1: mu form pins h(s) = 1 - mu(1-s) + mu/2 (1-s)^2
    p, _ = desk["case2"]
    e = build_embedding(p)
    assert e.form == "mu" and e.mu == 1.0
    st = h_coeffs(e, 8)
    # h = 1/2 + s^2/2 for mu = 1, theta = 1
    assert st.coeffs[0] == pytest.approx(0.5, abs=1e-14)
    assert st.coeffs[1] == pytest.approx(0.0, abs=1e-14)
    assert st.coeffs[2] == pytest.approx(0.5, abs=1e-14)
    assert not st.coeffs[3:].any()


def test_theta0_log_coefficients(desk):
    # theta = 0, A = 1: h_k = (1 - h_0)/(k(k-1)) for k >= 2
    p, _ = desk["case4"]
    e = build_embedding(p)
    st = h_coeffs(e, 40)
    h0 = st.coeffs[0]
    assert st.coeffs[1] == 0.0
    for k in range(2, 41):
        assert st.coeffs[k] == pytest.approx((1.0 - h0) / (k * (k - 1.0)), rel=1e-10)
    # mean offspring of the jump law diverges: mu = h'(1) = sum k h_k
    assert e.mu == math.inf


def test_quadrature_residual(per_case):
    # integral of dx/(h(x)-x) along s -> F_t(s) must equal lambda * t
    name, p, tag = per_case
    e = build_embedding(p)
    if p.q == 0.0:
        points = (0.3, 0.6)
    elif p.q >= 1.0:
        points = (0.25, 0.5)
    else:
        points = (p.q / 2.0, (p.q + 1.0) / 2.0)
    for t in (0.5, 1.0, 2.0):
        for s in points:
            try:
                assert abs(integral_residual(e, t, s)) < 1e-6, (name, t, s)
            except SingularPathError:
                continue


def test_quadrature_guards(desk):
    p, _ = desk["case3"]
    e = build_embedding(p)
    assert integral_residual(e, 0.0, 0.25) == 0.0
    # s = q is refused before the flow is evaluated: the integrand's pole
    with pytest.raises(SingularPathError, match="zero of h"):
        integral_residual(e, 1.0, p.q)
    # case3 has F_t(1) = 1, a fixed point away from q: the path is empty
    with pytest.raises(SingularPathError, match="fixed point"):
        integral_residual(e, 1.0, 1.0)
    with pytest.raises(DomainError):
        integral_residual(e, 1.0, 1.5)
    with pytest.raises(DomainError):
        integral_residual(e, -1.0, 0.25)


def test_flow_monotone_toward_q(per_case):
    # below q the flow increases to q, above it decreases (or escapes)
    name, p, tag = per_case
    e = build_embedding(p)
    if p.q > 0.0:
        s = p.q / 2.0
        vals = [float(eval_fn(e.params, t, s)) for t in (0.0, 1.0, 4.0, 16.0)]
        assert all(b >= a_ - 1e-12 for a_, b in zip(vals, vals[1:]))
        # critical convergence is only algebraic, 1 - F_t ~ 1/(2 + t)
        close = 0.06 if tag.criticality.value == "Critical" else 1e-3
        assert vals[-1] == pytest.approx(p.q, abs=close)


def test_real_time_matches_discrete_iterates(per_case):
    # F_n at integer n is exactly the n-fold discrete iterate
    name, p, tag = per_case
    e = build_embedding(p)
    s = np.linspace(0.0, 1.0, 20)
    for n in (2, 5):
        assert np.max(np.abs(eval_fn(e.params, float(n), s) - compose_iterate(p, n, s))) < 1e-10
