"""Properties over the admissible parameter space, not only the desk sets."""

import contextlib
import io
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetagw import (
    ConditioningWarning,
    DomainError,
    NumericError,
    QFunction,
    SingularPathError,
    ThetaParams,
    absorption_tails,
    build_embedding,
    case_of,
    cli,
    conditional_limit_b,
    critical_limit_w,
    dual_transform,
    eval_f,
    eval_fn,
    eval_fn_prime,
    expected_absorption,
    fn_series,
    h_coeffs,
    h_eval,
    integral_residual,
    pmf,
    q_transition_matrix,
    scalar_summary,
    serialize,
    stationary_law,
    validate_classify,
    verify,
)
from thetagw.pgf import _gap, _iterated_constants

from conftest import fft_pmf

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


@PROPERTY
@given(admissible())
def test_expected_absorption_matches_direct_sums(pt):
    # gamma is the geometric rate of every tail, so at gamma <= 0.99 the terms
    # past n = 2^16 are below 0.99^65536 ~ 1e-286 of the first
    p, _ = pt
    assume(scalar_summary(p).gamma <= 0.99)
    tails = absorption_tails(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # null conditioning, small |theta|
        e = expected_absorption(p)
    n = np.arange(0, 1 << 16, dtype=float)
    for value, tail, mass in (
        (e.e_t0_given_finite, tails.t0_tail, p.q),
        (e.e_t1_given_finite, tails.t1_tail, tails.explosion_mass),
        (e.e_t, tails.t_tail, 1.0),
    ):
        if math.isfinite(value):
            direct = math.fsum(tail(n)) / mass
            assert abs(value - direct) <= 1e-9 * abs(direct), (value, direct)


# A at 1, just above 1 and up to 1e300; q at 0, 1, just below 1 and anywhere
WIDE_A = st.one_of(
    st.just(1.0),
    st.integers(1, 15).map(lambda k: 1.0 + 10.0**-k),
    st.integers(1, 300).map(lambda k: 10.0**k),
)
WIDE_Q = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(1, 16).map(lambda k: 1.0 - 10.0**-k),
    st.floats(0.0, 1.0),
)
SUBCOMMANDS = st.sampled_from([
    ["classify"],
    ["pmf", "--k-max", "20"],
    ["iterate"],
    ["absorb", "--n", "20"],
    ["qprocess", "--k-max", "10"],
    ["embed", "--k-max", "10"],
])


@PROPERTY
@given(
    SUBCOMMANDS,
    THETA,
    WIDE_A,
    st.one_of(
        st.tuples(st.just("--q"), LOW_A, WIDE_Q),
        st.tuples(st.just("--c"), HIGH_A, st.floats(0.01, 3.0)),
    ),
)
def test_cli_exits_with_a_documented_code(command, theta, big_a, law):
    # 0 ok, 3 parameter, 4 numeric, 5 failed check; never 1, the unexpected error.
    # --key=value, because argparse reads "-1e-08" after a bare flag as an option
    flag, a, value = law
    argv = [*command, f"--theta={theta!r}", f"--a={a!r}", f"--A={big_a!r}", f"{flag}={value!r}"]
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in (0, 3, 4, 5), (argv, out.getvalue()[-300:])


@PROPERTY
@given(
    st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 0.0, exclude_min=True)),
    st.one_of(st.just(1.0), st.floats(1.0, 2.5)),
    st.one_of(st.none(), st.sampled_from([0.0, 0.2, 1.0, math.inf])),
    LOW_A,
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_cli_gumbel_exits_with_a_documented_code(theta, big_a, r, a, q):
    # 0 ok, 3 outside the regime, 4 numeric; --r takes a finite real only, so
    # r = inf is a usage error (2): that path is declared through A = 1
    argv = ["gumbel", f"--A={big_a!r}", f"--a={a!r}", f"--q={q!r}"]
    argv += [f"--{k}={v!r}" for k, v in (("theta", theta), ("r", r)) if v is not None]
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in ((2,) if r == math.inf else (0, 3, 4)), (argv, out.getvalue()[-300:])


# the conditioned laws of a < 1, against routes that do not share their code.
# q <= 0.6 keeps the stationary law's mass past J = 60 below 0.6^60 * 60 ~ 3e-12;
# below q ~ 1e-16 * A the kernel's f_n(0)/q has no digits left (see
# test_qprocess.py::test_transition_kernel_at_tiny_q)
COND_Q = st.floats(1e-12, 0.6)


def _conditioned(theta, a, big_a, q):
    """The law, or a rejected example where it is outside the family."""
    try:
        return validate_classify({"theta": theta, "a": a, "A": big_a, "q": q})[0]
    except DomainError:
        assume(False)


def _closed_form_rounding(p):
    # as in test_iterates_compose: powers of order 1/|theta| round by eps/|theta|
    return 1e-14 * p.big_a / min(1.0, abs(p.theta) or 1.0)


# below a = 1e-300, q - f_n(0) (about a q ln(A/(A - q)) at n = 1) is subnormal
# and the iterate route has no digits of its own
@PROPERTY
@given(THETA, st.floats(1e-300, 1.0, exclude_max=True), BIG_A, COND_Q)
def test_conditional_limit_b_is_the_yaglom_limit(theta, a, big_a, q):
    # b_j = lim_n q^j [s^j] f_n / (q - f_n(0)), whose error at n is O(j gamma^n):
    # gamma^n < 1e-12 and j <= 20 leave it below 2e-11 of the 1e-10. The library
    # forms Q(0) as a difference of two powers, each of size at most scale, so b
    # carries Q(0)'s relative rounding, a few ulps of scale / |Q(0)|; it refuses
    # Q(0) below 1e-8 of scale (NumericError)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        p = _conditioned(theta, a, big_a, q)
        try:
            b = conditional_limit_b(p, 20).probs
        except NumericError:
            assume(False)
        n = math.ceil(math.log(1e-12) / math.log(scalar_summary(p).gamma))
        f_n = fn_series(p, float(n), 20).coeffs
        yaglom = q ** np.arange(1, 21) * f_n[1:] / absorption_tails(p).t0_tail(n)
    scale = max(1.0, big_a ** -theta, (big_a - q) ** -theta)
    cancel = 2.0**-50 * scale / abs(QFunction(p).raw(0.0))
    tol = 1e-10 + _closed_form_rounding(p) + cancel
    assert np.max(np.abs(yaglom - b)) <= tol, (n, tol)


@PROPERTY
@given(THETA, LOW_A, BIG_A, COND_Q)
def test_stationary_law_is_stationary(theta, a, big_a, q):
    # ||pi P - pi|| on j <= 60: the terms past i = 60 are below the 3e-12 of
    # pi's tail, and 1e-10 leaves room for the 60-term products
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        p = _conditioned(theta, a, big_a, q)
        pi = stationary_law(p, 60).probs
        try:
            kernel = q_transition_matrix(p, 1, 60, 60)
        except NumericError:  # 1/f'(q) overflows for subnormal a
            assume(False)
    tol = 1e-10 + _closed_form_rounding(p)
    assert np.max(np.abs(pi @ kernel - pi)) <= tol


def _w_at(p, n, order):
    """beta**j [s^j] f_n / P(T_0 = n + 1), j = 1..order: the law of Z_n given T_0 = n + 1."""
    theta, c = p.theta, p.c
    beta = 1.0 - (1.0 + c) ** (-1.0 / theta)
    # t0_tail(n) - t0_tail(n + 1) for a = 1, without its cancellation
    mass = (1.0 + c * n) ** (-1.0 / theta) * -math.expm1(-math.log1p(c / (1.0 + c * n)) / theta)
    return beta ** np.arange(1, order + 1) * fn_series(p, float(n), order).coeffs[1:] / mass


@PROPERTY
@given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.1, 100.0))
def test_critical_limit_w_is_the_law_before_extinction(theta, c):
    # W_j = lim_n beta^j [s^j] f_n / (t0_tail(n) - t0_tail(n + 1)), whose error
    # falls like 1/n (5.6e-6 at n = 10^5). Richardson over n, 2n and 4n at
    # n = 10^4 leaves at most 3e-11 for c >= 0.1 and theta down to 0.02; below
    # theta ~ log(4 c n)/600 the tail (1 + 4 c n)**(-1/theta) underflows
    assume(math.log1p(4e4 * c) / theta <= 600.0)
    p, _ = validate_classify({"theta": theta, "a": 1.0, "c": c})
    r1, r2, r4 = (_w_at(p, k * 10**4, 30) for k in (1, 2, 4))
    extrapolated = (4.0 * (2.0 * r4 - r2) - (2.0 * r2 - r1)) / 3.0
    assert np.max(np.abs(extrapolated - critical_limit_w(p, 30).probs)) <= 1e-10


# -- the tails against the closed forms in decimal -----------------------------


def _exact_gap(p, n, s):
    """f_n(s) - q at any s in [0, A] and real n: the closed form of the n-th
    iterate, A - f_n(s) = (a^n (A - s)^(-theta) + (1 - a^n) (A - q)^(-theta))^(-1/theta)
    and (A - q)^(1 - a^n) (A - s)^(a^n) at theta = 0, in decimal on the exact
    values of p's floats and s. 360 digits, because a tail of 1e-300 is a
    difference of numbers of order 1: 80 would leave it none."""
    with localcontext() as ctx:
        ctx.prec = 360
        theta, a, big_a, q, s = (Decimal(x) for x in (p.theta, p.a, p.big_a, p.q, s))
        an, gap, x = a ** Decimal(n), big_a - q, big_a - s
        if theta == 0:
            rest = gap ** (1 - an) * x**an
        elif x == 0:  # (A - s)^(-theta) is infinite for theta > 0, 0 below
            rest = 0 if theta > 0 else ((1 - an) * gap**-theta) ** (-1 / theta)
        else:
            rest = (an * x**-theta + (1 - an) * gap**-theta) ** (-1 / theta)
        return float(gap - rest)


TAIL_LAW = settings(max_examples=100, derandomize=True, deadline=None)
# theta in (-1, 1] with |theta| >= 1e-3, a < 1: cases 3, 4, 5 and 7-9, not 1, 2 or 6
TAIL_THETA = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(-0.99, 0.99).filter(lambda t: abs(t) >= 1e-3)
)
TAIL_A = st.floats(0.05, 0.95)
TAIL_BIG_A = st.one_of(st.just(1.0), st.floats(1.01, 3.0))
EPS = np.finfo(float).eps


def _check_tail(theta, a, big_a, q, s, ulps):
    """The tail at s (0: t0_tail, 1: t1_tail) within ulps * eps / min(1, |theta|)
    relative of _exact_gap, at five n from 0 to where a^n reaches 1e-300; an
    exact tail below 1e-300 is past the promise, and one of 0 must read 0."""
    try:
        p, _ = validate_classify({"theta": theta, "a": a, "A": big_a, "q": q})
    except DomainError:  # A = q = 1 wants a >= 1
        assume(False)
    tails = absorption_tails(p)
    tail = tails.t0_tail if s == 0 else tails.t1_tail
    tol = ulps * EPS / min(1.0, abs(theta) or 1.0)  # the closed form rounds by about eps/|theta|
    last = math.ceil(math.log(1e-300) / math.log(a))
    for n in (0, 1, last // 3, 2 * last // 3, last):
        exact, got = _exact_gap(p, n, s) if s else -_exact_gap(p, n, 0), tail(n)
        if exact == 0.0 or exact >= 1e-300:
            assert abs(got - exact) <= tol * exact, (n, got, exact)


@TAIL_LAW
@given(TAIL_THETA, TAIL_A, TAIL_BIG_A, st.floats(-300.0, math.log10(0.9)))
def test_t1_tail_keeps_relative_precision(theta, a, big_a, log_q):
    # q log-uniform down to 1e-300: t1_tail's gap (A - q)/(A - 1) keeps its
    # digits however small q is
    _check_tail(theta, a, big_a, 10.0**log_q, 1, ulps=16)


@TAIL_LAW
@given(TAIL_THETA, TAIL_A, TAIL_BIG_A, st.one_of(st.just(0.0), st.floats(1e-3, 0.9)))
def test_t0_tail_keeps_relative_precision(theta, a, big_a, q):
    # t0_tail rounds (A - q)/A before it takes the gap, which costs about
    # eps * A/q relative: below 3000 eps for q >= 1e-3 and A <= 3. The loss
    # at smaller q is the strict xfail below
    _check_tail(theta, a, big_a, q, 0, ulps=4096)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "t0_tail takes g0 = 1 - ((A - q)/A)^theta after rounding (A - q)/A, which "
    "leaves eps * A/q of relative error"))
def test_t0_tail_keeps_relative_precision_at_small_q():
    # t0_tail(0) = q exactly. At A = 2 and a = 0.5, for theta = -0.5, 0 and
    # 0.5, it reads 8.2e-8 relative off at q = 1e-9, and -0.0 or 0.0 at q = 1e-20
    errors = {}
    for theta in (-0.5, 0.0, 0.5):
        for q in (1e-9, 1e-20):
            p, _ = validate_classify({"theta": theta, "a": 0.5, "A": 2.0, "q": q})
            assert -_exact_gap(p, 0, 0) == q
            errors[theta, q] = abs(absorption_tails(p).t0_tail(0) - q) / q
    assert max(errors.values()) <= 16 * EPS, errors


@TAIL_LAW
@given(TAIL_THETA, TAIL_A, TAIL_BIG_A, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_gap_is_the_iterate_less_q_inside_the_interval(theta, a, big_a, q):
    # pgf's gap at s between 0 and q and between q and 1, not only at the ends
    # the tails read. Rounding (A - q)/(A - s) costs about eps * A/|s - q|
    # relative, so |s - q| >= 0.05 keeps it below 60 eps (400 drawn laws
    # reached 23 eps/min(1, |theta|))
    try:
        p, _ = validate_classify({"theta": theta, "a": a, "A": big_a, "q": q})
    except DomainError:  # A = q = 1 wants a >= 1
        assume(False)
    tol = 64 * EPS / min(1.0, abs(theta) or 1.0)
    ns = np.array([0.0, 1.0, 5.0, 30.0])
    for s in (q / 2.0, (q + 1.0) / 2.0):
        if abs(s - q) >= 0.05:
            got = _gap(p, ns, s)
            for n, value in zip(ns, got):
                exact = _exact_gap(p, n, s)
                assert abs(value - exact) <= tol * abs(exact), (n, s, value, exact)


@pytest.mark.parametrize("big_a", [1.0, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_gap_at_a_is_a_less_q(theta, big_a):
    # f_n(A) = A for theta >= 0, where the expm1/log1p form reaches A only as
    # a limit: at A = 1 its bracket diverges, and at theta = 0 log(0) raises
    ns = [0.0, 1.0, 2.5, 30.0]
    for a, q in ((0.5, 0.0), (0.3, 0.6), (0.9, 0.99)):
        p, _ = validate_classify({"theta": theta, "a": a, "A": big_a, "q": q})
        assert [float(_gap(p, n, big_a)) for n in ns] == [big_a - q] * 4
        assert _gap(p, np.array(ns), big_a).tolist() == [big_a - q] * 4


# 30 laws with theta in (-1, 0) off the -1/m lattice, where pmf takes the series
# route, and theta = -1e-4 on it: m = 10^4 is past the binomial route's 1029
_rng = np.random.default_rng(22)
NEG_THETA_LAWS = [
    {"theta": float(_rng.uniform(-0.999, -0.001)), "a": float(_rng.uniform(0.05, 0.95)),
     "A": 1.0 if _rng.random() < 0.5 else float(_rng.uniform(1.01, 3.0)),
     "q": float(_rng.uniform(0.0, 0.95))}
    for _ in range(30)
] + [{"theta": -1e-4, "a": 0.5, "q": 0.5}]


@pytest.mark.parametrize("raw", NEG_THETA_LAWS, ids=lambda raw: f"theta{raw['theta']:.4g}")
def test_negative_theta_pmf_matches_fft(raw):
    p, _ = validate_classify(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head, probs = pmf(p, 256), pmf(p, 2048)
    assert np.all(probs >= 0.0) and math.fsum(probs) <= eval_f(p, 1.0)
    assert np.array_equal(head, probs[:257])  # a table's doubling keeps its prefix
    # a mass the 1e-12 clamp zeroed lies below 1e-12 in the reference; any other
    # matches it to 1e-13
    gap = np.abs(probs - fft_pmf(p, 2048))
    assert np.all(gap <= np.where(probs == 0.0, 1e-12, 1e-13))


def test_negative_theta_pmf_prefix_at_the_route_cap():
    p, _ = validate_classify({"theta": -0.891, "a": 0.371, "q": 0.306})
    assert np.array_equal(pmf(p, 10**4)[:2049], pmf(p, 2048))


# -- theta = -1 and theta = 0 through the general routes --------------------


@PROPERTY
@given(LOW_A, Q)
def test_two_point_pmf_is_the_affine_law(a, q):
    # pmf's series route reads theta = -1 off fn_series, the affine (1 - a)q + a*s
    p, _ = validate_classify({"theta": -1.0, "a": a, "q": q})
    law = np.array([(1.0 - a) * q, a, 0.0, 0.0, 0.0, 0.0])
    law[law < 1e-12] = 0.0  # pmf's clamp
    for k in (0, 1, 5):
        assert pmf(p, k).tobytes() == law[: k + 1].tobytes()


@PROPERTY
@given(LOW_A, Q, st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0)))
def test_two_point_slope_is_a_t(a, q, t):
    # at theta = -1 both exponents of the general derivative are 0.0
    p, _ = validate_classify({"theta": -1.0, "a": a, "q": q})
    a_t = _iterated_constants(p, t)[0]
    for s in (0.0, q, 1.0):
        assert eval_fn_prime(p, t, s) == a_t


@PROPERTY
@given(LOW_A, BIG_A, st.floats(0.0, 1.0, exclude_min=True))
def test_theta0_stationary_law_is_geometric(a, big_a, q):
    # s (A - q)/(A - sq) has masses ((A - q)/A) (q/A)^(j - 1); the power
    # recurrence rounds a few times a row, so row j keeps 8 j eps relative
    try:
        p, _ = validate_classify({"theta": 0.0, "a": a, "A": big_a, "q": q})
    except DomainError:  # A = q = 1 wants a >= 1
        assume(False)
    got = stationary_law(p, 40).probs
    j = np.arange(1, 41)
    law = (big_a - q) / big_a * (q / big_a) ** (j - 1.0)
    near = np.abs(got - law) <= 8 * j * np.finfo(float).eps * law
    assert np.all(np.where(got == 0.0, law <= 1e-12 * (1.0 + 1e-12), near))


@PROPERTY
@given(LOW_A, st.floats(1.0, 1e300, exclude_min=True), Q)
def test_theta0_dual_keeps_c_one_minus_a(a, big_a, q):
    p, _ = validate_classify({"theta": 0.0, "a": a, "A": big_a, "q": q})
    assert dual_transform(p).c == 1.0 - a


# -- the continuous-time embedding over the parameter space -----------------


def _embedding_laws(count, seed):
    """count laws: at odds 7 to 3, a log-uniform in [1e-18, 0.95] with A = 1
    or uniform in [1, 3) and q in [0, 1) (0 or 1 at 0.2), else a = 1 (at 0.25)
    or uniform in [1, 3) with c in [0.01, 3); theta uniform in [-1, 1), or one
    of 0, -1, 1 and -0.5 at 0.2. A draw validate_classify refuses (theta <= 0
    with a >= 1, A = q = 1 with a < 1) is drawn again."""
    rng = np.random.default_rng(seed)
    laws = []
    while len(laws) < count:
        theta = float(rng.choice([0.0, -1.0, 1.0, -0.5]) if rng.random() < 0.2
                      else rng.uniform(-1.0, 1.0))
        if rng.random() < 0.7:
            raw = {
                "theta": theta,
                "a": float(10.0 ** rng.uniform(-18.0, math.log10(0.95))),
                "A": 1.0 if rng.random() < 0.5 else float(rng.uniform(1.0, 3.0)),
                "q": float(rng.choice([0.0, 1.0]) if rng.random() < 0.2
                           else rng.uniform(0.0, 1.0)),
            }
        else:
            raw = {"theta": theta, "a": 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 3.0)),
                   "c": float(rng.uniform(0.01, 3.0))}
        try:
            laws.append(validate_classify(raw)[0])
        except DomainError:
            continue
    return laws


# all nine case families: 23 case7, 22 case3, 20 case5, 16 case9, 11 case1,
# 3 case4, 2 each of case2 and case6, 1 case8
EMBED_LAWS = _embedding_laws(100, 24)


def _flow_rate(p, s):
    """dF_t(s)/dt at t = 0 from the iterate's closed form alone: (A - F_t)^(-theta)
    = a^t (A - s)^(-theta) + c (a^t - 1)/(a - 1), A - F_t = (A - q)^(1 - a^t)
    (A - s)^(a^t) at theta = 0, and F_t = a^t s + (1 - a^t) q at theta = -1."""
    theta, a, c, big_a, q = p.theta, p.a, p.c, p.big_a, p.q
    ln_a = math.log(a)
    if theta == -1.0:
        return ln_a * (s - q)
    if theta == 0.0:
        return (big_a - s) * ln_a * (math.log(big_a - q) - math.log(big_a - s))
    w = (big_a - s) ** -theta
    dc = c if a == 1.0 else c * ln_a / (a - 1.0)  # dc_t/dt at t = 0
    return w ** (-1.0 / theta - 1.0) * (ln_a * w + dc) / theta


def test_embedding_generator_is_the_flow_rate_at_zero():
    # lambda (h(s) - s) = dF_t(s)/dt at t = 0 checks the rate and h against the
    # iterate. The worst gap on this draw is 1.3e-13 of lambda max(h(s), s)
    for p in EMBED_LAWS:
        e = build_embedding(p)
        for s in (0.1, 0.37, 0.8):
            h = h_eval(e, s)
            assert abs(e.lam * (h - s) - _flow_rate(p, s)) <= 1e-11 * e.lam * max(h, s), (p, s)


def test_h_coeffs_are_masses_that_sum_to_h_at_1():
    # tail_mass_bound is h(1) less the sum, clipped at 0: a sum past h(1)
    # would show as a sum plus bound above h(1)
    for p in EMBED_LAWS:
        e = build_embedding(p)
        trunc = h_coeffs(e, 256)
        assert np.all(trunc.coeffs >= 0.0), p
        total = float(np.sum(trunc.coeffs)) + trunc.tail_mass_bound
        assert abs(total - e.h_at_1) <= 4 * EPS, (p, total, e.h_at_1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the flow check reaches 1e-6 on 21 of these 100 laws, in six case families "
    "(case3, 4, 5, 7, 8 and 9), all with a below 3e-5: F_t(s) - q keeps few digits "
    "there, so the path QAGS integrates ends in the wrong place. 202 of the 600 "
    "points are skipped, as their path meets q, and a time with every point "
    "skipped reads 0"))
def test_embedding_flow_check_passes(monkeypatch):
    points, skipped = [], []

    def counting(e, t, s):
        points.append((t, s))
        try:
            return integral_residual(e, t, s)
        except SingularPathError:
            skipped.append((t, s))
            raise

    monkeypatch.setattr(verify, "integral_residual", counting)
    failed = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the quadrature's flag notes
        for p in EMBED_LAWS:
            e = build_embedding(p)
            worst = max(verify._embed_quad_residuals(e, (0.5, 1.0, 2.0)))
            if not worst < verify._QUAD_TOL:
                failed[case_of(p).case_id, p.theta, p.a, p.big_a, p.q] = worst
    assert not failed, (
        f"{len(failed)} of {len(EMBED_LAWS)} laws fail, and {len(skipped)} of "
        f"{len(points)} points were skipped: {failed}"
    )
