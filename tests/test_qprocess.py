"""Harmonic function, conditioned chain and the three limit laws."""

import hashlib
import math

import numpy as np
import pytest

from thetagw import (
    DomainError,
    NumericError,
    OverflowGuardError,
    QFunction,
    TrivialLawError,
    conditional_limit_b,
    critical_limit_w,
    eval_f,
    eval_fn_prime,
    q_transition_gf,
    q_transition_matrix,
    stationary_law,
    validate_classify,
)
from thetagw.qprocess import LawKind


def test_functional_equation(per_case):
    # Q(f(s)) = gamma Q(s) on [0, q] is what makes Q the harmonic function
    name, p, tag = per_case
    qf = QFunction(p)
    if qf.trivial:
        return
    s = np.linspace(0.0, p.q, 40) if p.q > 0.0 else np.zeros(1)
    lhs = qf.raw(eval_f(p, s))
    rhs = qf.gamma * qf.raw(s)
    assert np.max(np.abs(lhs - rhs)) < 1e-10, name


def test_q_vanishes_at_fixed_point(per_case):
    name, p, tag = per_case
    qf = QFunction(p)
    if qf.trivial:
        return
    assert abs(qf.raw(p.q)) < 1e-14
    if p.q > 0.0:
        # normalized version has unit derivative at q
        h = 1e-7
        slope = (qf.normalized(p.q) - qf.normalized(p.q - h)) / h
        assert abs(slope - 1.0) < 1e-5


def test_trivial_critical_family(desk):
    qf = QFunction(desk["case2"][0])
    assert qf.trivial
    assert qf.raw(0.3) == 0.0
    with pytest.raises(TrivialLawError):
        qf.normalized(0.3)
    with pytest.raises(TrivialLawError):
        stationary_law(desk["case2"][0], 10)
    with pytest.raises(TrivialLawError):
        conditional_limit_b(desk["case2"][0], 10)


def test_gamma_values(per_case):
    # Q's eigenvalue is f'(q), taken here from the iterate's derivative
    name, p, tag = per_case
    assert abs(QFunction(p).gamma - eval_fn_prime(p, 1.0, p.q)) < 1e-12, name


def test_conditional_limit_b_case3(desk):
    # the flagship identity: b_j = 2^(-j) for theta=1, a=1/2, q=1/2
    law = conditional_limit_b(desk["case3"][0], 20)
    assert law.kind is LawKind.CONDITIONAL_B
    for j in range(1, 21):
        assert abs(law.prob(j) - 2.0 ** (-j)) < 1e-10
    assert law.partial_sum == pytest.approx(1.0, abs=1e-6)


def test_conditional_limit_b_is_probability(per_case):
    name, p, tag = per_case
    if name == "case2" or p.q <= 0.0:
        return
    law = conditional_limit_b(p, 300)
    assert np.all(law.probs >= -1e-12)
    assert law.partial_sum <= 1.0 + 1e-9


def test_stationary_law_case1(desk):
    # s(1 + d(1-s))^(-2) with d = 1 expands to pi_j = j 2^(-j-1)
    law = stationary_law(desk["case1"][0], 25)
    for j in range(1, 26):
        assert abs(law.prob(j) - j * 2.0 ** (-j - 1)) < 1e-12
    assert law.partial_sum == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("name", [
    "case3", "case4", "case5b", "case6", "case7", "case7b", "case8", "case8b", "case9", "case9b",
])
def test_stationary_law_other_branches(desk, name):
    # the theta = 0 branch is geometric, s(A-q)/(A-sq); every branch is a proper law
    p, _ = desk[name]
    law = stationary_law(p, 400)
    assert abs(law.partial_sum - 1.0) < 1e-11
    if p.theta == 0.0:
        j = np.arange(1, 401)
        geometric = (p.big_a - p.q) / p.big_a * (p.q / p.big_a) ** (j - 1)
        assert np.max(np.abs(law.probs - geometric)) < 1e-12


def test_stationary_law_is_gamma_invariant(desk):
    # pi is stationary for the conditioned kernel: pi P = pi
    p, _ = desk["case1"]
    j_max = 60
    law = stationary_law(p, j_max)
    kernel = q_transition_matrix(p, 1, j_max, j_max)
    pi = law.probs
    image = pi @ kernel
    assert np.max(np.abs(image - pi)) < 1e-8


def test_critical_limit_w(desk):
    # theta = 1, c = 1: w_j = 2^(-j)
    law = critical_limit_w(desk["case2"][0], 20)
    assert law.kind is LawKind.CRITICAL_W
    for j in range(1, 21):
        assert abs(law.prob(j) - 2.0 ** (-j)) < 1e-12
    with pytest.raises(DomainError):
        critical_limit_w(desk["case1"][0], 10)


def test_transition_gf_normalizes(desk):
    for name in ("case1", "case3", "case6"):
        p, _ = desk[name]
        for i in (1, 2, 4):
            for n in (1, 3):
                assert q_transition_gf(p, i, n, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_transition_matrix_rows_sum_to_one(desk):
    p, _ = desk["case3"]
    kernel = q_transition_matrix(p, 2, 5, 400)
    sums = kernel.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-8
    assert kernel.min() >= -1e-12


def test_transition_matrix_matches_gf(desk):
    # coefficient route vs direct pointwise evaluation of the gf
    p, _ = desk["case1"]
    kernel = q_transition_matrix(p, 3, 3, 200)
    s = 0.37
    for i in (1, 2, 3):
        direct = q_transition_gf(p, i, 3, s)
        series_val = sum(kernel[i - 1, j - 1] * s**j for j in range(1, 201))
        assert abs(direct - series_val) < 1e-10


def test_chapman_kolmogorov(desk):
    # two one-step kernels compose to the two-step kernel
    p, _ = desk["case3"]
    big = 260
    k1 = q_transition_matrix(p, 1, big, big)
    k2 = q_transition_matrix(p, 2, 12, 12)
    composed = (k1 @ k1)[:12, :12]
    assert np.max(np.abs(composed - k2)) < 1e-8


# sha256 of the kernels' bytes in the order of the loop below: a change to
# Series * Series or to fn_series must keep them
KERNEL_DIGEST = "fc58da6d823fe63f885b1dfbb5e26a6e9e97b3c06860363c0f13dd711cc84710"


def test_transition_matrix_bytes_are_pinned(desk):
    # no CLI command prints the kernel, so no golden covers its bytes
    digest = hashlib.sha256()
    for p, _ in desk.values():
        if p.q > 0.0:
            for n in (1, 2, 5):
                digest.update(q_transition_matrix(p, n, 12, 300).tobytes())
    assert digest.hexdigest() == KERNEL_DIGEST


def test_q_zero_degenerate(desk):
    p, _ = desk["case5"]
    with pytest.raises(DomainError):
        q_transition_gf(p, 1, 1, 0.5)
    with pytest.raises(DomainError):
        stationary_law(p, 10)
    with pytest.raises(DomainError):
        conditional_limit_b(p, 10)


@pytest.mark.parametrize("call, match", [
    (lambda desk: stationary_law(desk["case3"][0], 5).prob(0), "must be >= 1"),
    (lambda desk: stationary_law(desk["case3"][0], 5).prob(6), "outside"),
    (lambda desk: q_transition_matrix(desk["case5"][0], 1, 3, 3), "q = 0"),
], ids=["limit-law-prob-0", "limit-law-prob-past-support", "kernel-at-q-0"])
def test_input_guards(desk, call, match):
    # j counts from 1 and stops at the truncated support; q = 0 leaves
    # nothing to condition the kernel on
    with pytest.raises(DomainError, match=match):
        call(desk)


def test_transition_kernel_guards_underflow():
    # a = 2, theta = 1/2: f_n'(q) = a**(-2n) underflows from n ~ 540, and a**n
    # itself overflows past n = 1023; the kernel is 0/0 there, not a number
    p, _ = validate_classify({"theta": 0.5, "a": 2.0, "c": 1.0})
    assert math.isfinite(q_transition_gf(p, 1, 100, 0.5))
    for n in (600, 1100):
        with pytest.raises(OverflowGuardError):
            q_transition_gf(p, 1, n, 0.5)
        with pytest.raises(OverflowGuardError):
            q_transition_matrix(p, n, 2, 2)


def test_transition_kernel_small_positive_theta():
    # f_1'(s) at s = A is a**(-1/theta), which overflows at theta = 1e-3; the
    # kernel evaluates f_1' at q and s q only, so it must not form that limit
    p, _ = validate_classify({"theta": 1e-3, "a": 0.12, "A": 2.44, "q": 0.4})
    kernel = q_transition_matrix(p, 1, 5, 5)
    assert np.all(np.isfinite(kernel))
    assert np.all(kernel.sum(axis=1) <= 1.0)


def test_transition_kernel_refuses_subnormal_slope():
    # a = 1e-310 makes f_1'(q) subnormal, so 1/f_1'(q) overflows
    p, _ = validate_classify({"theta": 0.0, "a": 1e-310, "q": 0.5})
    with pytest.raises(OverflowGuardError):
        q_transition_matrix(p, 1, 3, 3)
    with pytest.raises(OverflowGuardError):
        q_transition_gf(p, 1, 1, 0.5)


@pytest.mark.xfail(strict=True, reason=(
    "f_n(sq)/q takes f_n(0) from A minus a power, which keeps only about "
    "1e-16 * A of it; at q = 1e-25 the kernel's rows sum to -4e9 and beyond"))
def test_transition_kernel_at_tiny_q():
    p, _ = validate_classify({"theta": 0.0, "a": 0.5, "A": 2.0, "q": 1e-25})
    try:
        kernel = q_transition_matrix(p, 1, 5, 5)
    except NumericError:  # a refusal would do
        return
    assert np.all(kernel >= 0.0) and np.all(kernel.sum(axis=1) <= 1.0 + 1e-9)


def test_transition_kernel_refuses_rows_past_the_float_range():
    # the kernel's powers of f_n(sq)/q grow as the rows lose their digits
    # (see the xfail above); at 60 x 60 they pass the float range, which the
    # product reports as NumericError, not as a bare ValueError from fsum
    p, _ = validate_classify({"theta": 0.0, "a": 0.5, "A": 2.0, "q": 1e-25})
    with pytest.raises(NumericError, match="passes the float range"):
        q_transition_matrix(p, 1, 60, 60)


def test_transition_kernel_refuses_zero_steps(desk):
    # n = 0 is no transition: the kernel refuses it, as q_transition_gf does,
    # rather than returning the identity
    with pytest.raises(DomainError, match="n must be >= 1"):
        q_transition_matrix(desk["case3"][0], 0, 3, 3)
