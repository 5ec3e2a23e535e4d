"""Series arithmetic against math.comb / scipy reference coefficients."""

import hashlib
import math
import warnings
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.special import binom as sp_binom

import thetagw.series
from thetagw import (
    build_embedding,
    conditional_limit_b,
    critical_limit_w,
    h_coeffs,
    pmf,
    pmf_oracle,
    stationary_law,
    validate_classify,
)
from thetagw.errors import ConditioningWarning, DomainError, NumericError, ThetaGWError, UnsupportedFormError
from thetagw.offspring import _neg_recip_m
from thetagw.pgf import fn_series
from thetagw.series import Series, _exact_rows

from conftest import DESK_RAW
from test_census import _laws


def test_constructors():
    s = Series.affine(2.0, -1.0, 5)
    assert s.order == 5
    assert list(s.coeffs[:2]) == [2.0, -1.0]
    assert not s.coeffs[2:].any()
    assert polyval(0.7, Series.affine(3.0, 0.0, 4).coeffs) == 3.0
    assert polyval(0.7, Series.affine(0.0, 1.0, 4).coeffs) == 0.7


def test_ring_ops():
    a = Series.affine(1.0, 2.0, 6)
    b = Series.affine(3.0, -1.0, 6)
    assert np.allclose((a + b).coeffs[:2], [4.0, 1.0])
    assert np.allclose((a - 1.0).coeffs[:2], [0.0, 2.0])
    assert np.allclose((2.0 - a).coeffs[:2], [1.0, -2.0])
    prod = a * b
    # (1+2s)(3-s) = 3 + 5s - 2s^2
    assert np.allclose(prod.coeffs[:3], [3.0, 5.0, -2.0])
    assert not prod.coeffs[3:].any()
    with pytest.raises(UnsupportedFormError):
        a * Series.affine(1.0, 1.0, 3)


def test_pow_integer_matches_binomial():
    n = 7
    s = Series.affine(1.0, 1.0, 12).pow(float(n))
    for k in range(13):
        expect = math.comb(n, k) if k <= n else 0
        assert math.isclose(s.coeffs[k], expect, rel_tol=1e-14, abs_tol=1e-14)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, -1.5, 0.3333333333333333])
def test_pow_fractional_matches_scipy_binom(alpha):
    # (1 - x)^alpha = sum_k binom(alpha, k) (-x)^k; negative integer alpha is
    # excluded because scipy's gamma-based binom hits a pole there
    # (the package side of that case is covered by test_high_order_stability)
    s = Series.affine(1.0, -1.0, 30).pow(alpha)
    ref = sp_binom(alpha, np.arange(31)) * (-1.0) ** np.arange(31)
    assert np.max(np.abs(s.coeffs - ref)) < 1e-12


def test_pow_general_base():
    # (2 - s)^(-0.5) via pow vs explicit rescale 2^(-0.5) (1 - s/2)^(-0.5)
    s = Series.affine(2.0, -1.0, 25).pow(-0.5)
    ref = Series.affine(1.0, -0.5, 25).pow(-0.5) * 2.0 ** (-0.5)
    assert np.max(np.abs(s.coeffs - ref.coeffs)) < 1e-14


def test_pow_needs_positive_constant():
    with pytest.raises(UnsupportedFormError):
        Series.affine(0.0, 1.0, 4).pow(0.5)
    with pytest.raises(UnsupportedFormError):
        Series.affine(-1.0, 1.0, 4).pow(2.0)


@pytest.mark.parametrize("op", [lambda s: s.pow(0.5), Series.log], ids=["pow", "log"])
def test_nan_constant_term_is_rejected(op):
    with pytest.raises(UnsupportedFormError):
        op(Series.affine(math.nan, -1.0, 4))


def test_log_matches_mercator():
    # log(1+x) = x - x^2/2 + x^3/3 - ...
    s = Series.affine(1.0, 1.0, 20).log()
    k = np.arange(1, 21, dtype=float)
    ref = np.concatenate(([0.0], (-1.0) ** (k + 1) / k))
    assert np.max(np.abs(s.coeffs - ref)) < 1e-14


def test_deriv_and_scale_and_shift():
    u = Series([1.0, 2.0, 3.0, 4.0])
    assert list(u.deriv().coeffs) == [2.0, 6.0, 12.0]
    assert list(u.scale_arg(2.0).coeffs) == [1.0, 4.0, 12.0, 32.0]
    assert list(u.mul_s().coeffs) == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("coeffs, expected", [([3.0], [0.0]), ([3.0, 2.0], [2.0])])
def test_deriv_at_low_order(coeffs, expected):
    # a constant's derivative is the order-0 series 0, not an empty one
    assert list(Series(coeffs).deriv().coeffs) == expected


def test_eval_horner():
    u = Series([1.0, -1.0, 0.5])
    x = 0.3
    assert math.isclose(polyval(x, u.coeffs), 1.0 - x + 0.5 * x * x, rel_tol=1e-15)


def test_high_order_stability():
    # coefficient error should stay near rounding level even at order 300:
    # compare (1-x)^(-2) = sum (k+1) x^k, whose values grow only linearly
    s = Series.affine(1.0, -1.0, 300).pow(-2.0)
    ref = np.arange(1.0, 302.0)
    assert np.max(np.abs(s.coeffs - ref) / ref) < 1e-12


def test_rejects_empty():
    with pytest.raises(UnsupportedFormError):
        Series([])


# -- bitwise against the one-generator-per-row forms -------------------------


def _pow_reference(u, alpha):
    n = u.size - 1
    v = np.zeros(n + 1)
    v[0] = u[0] ** alpha
    nz = (np.flatnonzero(u[1:]) + 1).tolist()
    for m in range(1, n + 1):
        acc = math.fsum(
            (j * alpha + (j - m)) * u[j] * v[m - j] for j in nz[: bisect_right(nz, m)]
        )
        v[m] = acc / (m * u[0])
    return v


def _log_reference(u):
    n = u.size - 1
    out = np.zeros(n + 1)
    out[0] = math.log(u[0])
    nz = (np.flatnonzero(u[1:]) + 1).tolist()
    for k in range(1, n + 1):
        acc = math.fsum((k - i) * out[k - i] * u[i] for i in nz[: bisect_left(nz, k)])
        out[k] = (k * u[k] - acc) / (k * u[0])
    return out


def _mul_reference(a, b):
    out = np.empty(a.size)
    for k in range(a.size):
        out[k] = math.fsum(a[j] * b[k - j] for j in range(k + 1))
    return out


def _base(order, kind, seed):
    """u_0 in [1, 2] and |u_j| < 2^-j put |u - u_0| <= 1/2 on |s| <= 2/3, so by
    Cauchy's bound every coefficient of u**alpha, |alpha| <= 100, is below
    2.5**100 * 1.5**k: about 1e92 at order 300, far from overflow."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, order + 1) * 0.5 ** np.arange(order + 1)
    u[0] = 1.0 + rng.random()
    if kind == "sparse":
        u[1::3] = 0.0  # the nonzero u_j are no prefix 1..c
    elif kind == "signed_zero":
        u[1:][rng.random(order) < 0.3] = -0.0
    elif kind in (8, 9):
        u[kind + 1 :] = 0.0  # every row from m = kind on has exactly kind terms
    elif kind == "one":  # one nonzero u_j (j = 1 as in an affine base, or j > 1), ±0.0 elsewhere
        j = 1 if order < 2 or rng.random() < 0.5 else int(rng.integers(2, order + 1))
        u[1:] = np.where(np.arange(1, order + 1) == j, u[1:], np.copysign(0.0, u[1:]))
    elif kind == "constant":  # ±0.0 past u_0
        u[1:] = np.copysign(0.0, u[1:])
    return u


ORDER = st.integers(0, 300)
KIND = st.sampled_from(["dense", "sparse", "signed_zero", 8, 9, "one", "constant"])
SEED = st.integers(0, 2**32 - 1)
# the integers, then what fn_series passes: -theta and -1/theta, and a_t > 0;
# |theta| >= 0.01 keeps |alpha| <= 100, inside the bound of _base
THETA = st.floats(-1.0, 1.0).filter(lambda t: abs(t) >= 0.01)
ALPHA = st.one_of(
    st.integers(-4, 4).map(float),
    THETA.map(lambda t: -t),
    THETA.map(lambda t: -1.0 / t),
    st.floats(0.0, 8.0, exclude_min=True),
)
BITWISE = settings(max_examples=60, derandomize=True, deadline=None)


@BITWISE
@given(ORDER, KIND, SEED, ALPHA)
@example(9, "dense", 0, -0.5)
@example(40, 8, 1, 2.5)
@example(40, 9, 2, -2.0)
# one term a row (u_1 > 0, u_1 < 0, u_10 < 0): at an integer alpha the factor
# j*alpha + (j - m) vanishes, and the lone -0.0 terms must come out as +0.0
@example(40, "one", 5, 1.0)
@example(60, "one", 0, 2.0)
@example(40, "one", 3, 3.0)
# a constant (every row m >= 1 an fsum of no terms) at orders 0, 1 and 300,
# and one term at j = n, whose only row is the last
@example(0, "constant", 0, 0.5)
@example(1, "constant", 1, -2.0)
@example(300, "constant", 2, 1e-17)
@example(40, "one", 69, -0.5)
def test_pow_bitwise_equals_generator(order, kind, seed, alpha):
    u = _base(order, kind, seed)
    ref = _pow_reference(u, alpha)
    assert np.isfinite(ref).all()
    assert Series(u).pow(alpha).coeffs.tobytes() == ref.tobytes()


@BITWISE
@given(ORDER, KIND, KIND, SEED)
@example(0, "dense", "signed_zero", 0)
def test_mul_bitwise_equals_generator(order, left, right, seed):
    a, b = _base(order, left, seed), _base(order, right, seed + 1)
    a[::4] *= -1.0  # negative entries times -0.0 give signed-zero products
    assert (Series(a) * Series(b)).coeffs.tobytes() == _mul_reference(a, b).tobytes()


@BITWISE
@given(ORDER, KIND, KIND, SEED, st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False),
       st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False))
@example(3, "signed_zero", "signed_zero", 0, -0.0, 0.0)
@example(3, "signed_zero", "signed_zero", 1, 0.0, -0.0)
def test_sub_bitwise_equals_numpy(order, left, right, seed, a0, x):
    # subtraction adds the negation; in IEEE arithmetic x - y is x + (-y), so
    # every coefficient keeps the bits of numpy's own difference, signed zeros
    # and infinities included
    a, b = _base(order, left, seed), _base(order, right, seed + 1)
    a[::4] *= -1.0
    a[0] = a0
    assert (Series(a) - Series(b)).coeffs.tobytes() == (a - b).tobytes()
    want = a.copy()
    want[0] = a[0] - x
    assert (Series(a) - x).coeffs.tobytes() == want.tobytes()
    want = -a
    want[0] = x - a[0]
    assert (x - Series(a)).coeffs.tobytes() == want.tobytes()


def _one_rule(ours, ref, warn):
    """ref, a numpy-scalar generator, runs with its warnings ignored. Where it
    raises or returns a coefficient that is not finite, ours must raise
    NumericError; elsewhere it must return ref's bytes. ours runs under warn,
    "error" as pytest has it, so it must warn of nothing either way. Returns
    ref's coefficients, or None where it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = ref()
        except (OverflowError, ValueError):  # fsum past the float range, or inf - inf
            want = None
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        if want is None or not np.isfinite(want).all():
            with pytest.raises(NumericError, match="passes the float range"):
                ours()
        else:
            assert ours().tobytes() == want.tobytes()
    return want


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("u_40", [0.0, math.inf])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("alpha", [-7.5, -1.0, 40.0])
def test_pow_overflow_matches_generator(alpha, sign, u_40, warn, terms=15, u_j=30.0):
    # By default u_j = 30 * sign at 15 of j = 1..20, so rows go through _exact_rows with a
    # zero u_j in every window. The coefficients overflow near order 200, or
    # turn infinite at order 40 where u_40 is infinite. With sign -1 and
    # alpha < 0 every term is positive, so the generator's rows past that are
    # +inf; otherwise its fsum meets -inf + inf and raises. Either way the
    # power raises NumericError. The product u * u is finite unless u_40 is
    # infinite, where inf * 0 leaves a nan
    u = np.zeros(301)
    u[0] = 1.0
    js = [j for j in range(1, 21) if j % 4 != 0][:terms]
    u[js] = u_j * sign
    u[40] = sign * u_40
    want = _one_rule(lambda: Series(u).pow(alpha).coeffs, lambda: _pow_reference(u, alpha), warn)
    assert want is None or not np.isfinite(want).all()
    if sign < 0.0 and alpha < 0.0:
        assert np.isinf(want).sum() > 90
    product = _one_rule(lambda: (Series(u) * Series(u)).coeffs, lambda: _mul_reference(u, u), warn)
    assert np.isfinite(product).all() == (not u_40)


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("u_40", [0.0, math.inf])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("alpha", [-7.5, -1.0, 40.0])
def test_sparse_pow_overflow_matches_generator(alpha, sign, u_40, warn):
    # u_j = 30 * sign at j = 1, 2, 3, 5, 6, 7, 9, and u_40: a sparse base takes
    # the block route, whose zero u_j enter _exact_rows as exact zeros
    test_pow_overflow_matches_generator(alpha, sign, u_40, warn, terms=7)


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("u_40", [0.0, math.inf])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("alpha", [-7.5, -1.0, 40.0])
def test_one_term_pow_overflow_matches_generator(alpha, sign, u_40, warn):
    # u = 1 + 1e10 * sign * s, and u_40: with u_40 = 0 every row is one term,
    # formed as term + 0.0. The coefficients turn infinite near order 30, so
    # at alpha = 40, where the factor of row 41 is 0, that row is 0 * inf = nan
    test_pow_overflow_matches_generator(alpha, sign, u_40, warn, terms=1, u_j=1e10)


@pytest.mark.parametrize("route", [
    lambda: Series.affine(2.0, 0.0, 100).pow(-1.5),  # constant
    lambda: Series.affine(2.0, -1.0, 100).pow(-1.5),  # one term, j = 1
    lambda: Series(_base(100, "one", 0)).pow(0.5),  # one term, j = 15
    lambda: Series(_base(100, "dense", 0)).pow(-0.5),
    lambda: Series(_base(100, "dense", 0)).pow(-0.5, _done=lambda v: True),  # stops after one block
    lambda: Series(_base(100, "one", 0)).log(),
    lambda: Series(_base(100, "dense", 1)) * Series(_base(100, "dense", 2)),
], ids=["constant", "one-term-j1", "one-term-j15", "dense", "dense-done", "log", "product"])
def test_formed_rows_are_one_fresh_float64_array(route):
    # _formed returns the rows as one array of their own, which Series keeps uncopied
    s = route()
    assert type(s.coeffs) is np.ndarray and s.coeffs.dtype == np.float64
    assert s.coeffs.shape == (101,) and s.coeffs.flags.c_contiguous and s.coeffs.flags.owndata
    assert np.isfinite(s.coeffs).all()


@BITWISE
@given(ORDER, st.sampled_from(["affine", "one", "constant"]), SEED)
@example(300, "affine", 0)
@example(300, "one", 4)  # u_15 alone among signed zeros
@example(40, "one", 69)  # u_40 alone at order 40: every row k <= i, and no chain
@example(0, "constant", 5)
@example(1, "constant", 6)
@example(300, "constant", 7)
def test_log_bitwise_equals_generator(order, kind, seed):
    u = _base(order, kind, seed)
    if kind == "affine":
        u[2:] = 0.0
    ref = _log_reference(u)
    assert np.isfinite(ref).all()
    assert Series(u).log().coeffs.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["dense", "sparse", "two"])
def test_log_refuses_two_terms_past_the_constant(kind):
    # the logarithm takes a base with at most one nonzero u_j past u_0
    u = Series([1.0, 0.5, -0.25] + [0.0] * 18 if kind == "two" else _base(20, kind, 3))
    with pytest.raises(UnsupportedFormError, match="one nonzero term"):
        u.log()


@pytest.mark.parametrize("alpha", [-0.37, 2.0])
def test_affine_pow_and_log_call_no_fsum(alpha, monkeypatch):
    # every row of an affine base is one term, formed as term + 0.0: a fall
    # back to the generator route would call math.fsum
    u = Series.affine(1.3, -1.0, 1024)
    want = _pow_reference(u.coeffs, alpha), _log_reference(u.coeffs)

    def no_fsum(terms):
        raise AssertionError("math.fsum called on a one-term row")

    monkeypatch.setattr(math, "fsum", no_fsum)
    got = u.pow(alpha).coeffs, u.log().coeffs
    monkeypatch.undo()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_log_overflow_matches_generator(sign, warn):
    # log(1 + 1e10 sign s) has coefficients -(-1e10 sign)**k / k, which pass
    # the float range near order 31: from there on every generator row is
    # infinite, so the logarithm raises NumericError
    u = Series.affine(1.0, 1e10 * sign, 300).coeffs
    want = _one_rule(lambda: Series(u).log().coeffs, lambda: _log_reference(u), warn)
    assert np.isinf(want).sum() > 260


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("op", ["pow", "log"])
def test_overflowing_denominator_keeps_generator_bytes(op, warn):
    # row m divides by m * u_0, which overflows from m = 2 on at u_0 = 1e308
    # while the rows themselves stay finite: no error and no warning
    u = np.array([1e308, 1.0, 0.0, 0.0])
    ours, ref = (lambda: Series(u).pow(0.5).coeffs, lambda: _pow_reference(u, 0.5))
    if op == "log":
        ours, ref = (lambda: Series(u).log().coeffs, lambda: _log_reference(u))
    assert 2.0 * float(u[0]) == math.inf
    assert np.isfinite(_one_rule(ours, ref, warn)).all()


@pytest.mark.parametrize("name", ["case3", "case9b"])
def test_dense_pow_and_mul_bitwise_across_blocks(name, monkeypatch):
    # fn_series's inner series, the dense base of the oracle's powers, at an
    # order of 35 blocks and rows of up to 1100 terms
    p, _ = validate_classify(DESK_RAW[name])
    calls, real = [], Series.pow
    monkeypatch.setattr(Series, "pow", lambda s, alpha: calls.append((s.coeffs, alpha)) or real(s, alpha))
    fn_series(p, 1.0, 1100)
    monkeypatch.undo()
    (u, alpha), = [(c, a) for c, a in calls if np.count_nonzero(c[1:]) > 1]
    v = Series(u).pow(alpha).coeffs
    assert v.tobytes() == _pow_reference(u, alpha).tobytes()
    assert (Series(u) * Series(v)).coeffs.tobytes() == _mul_reference(u, v).tobytes()


def _inner_base(name, order, monkeypatch):
    """(u, alpha) of fn_series's dense power for a desk law: the oracle's base."""
    p, _ = validate_classify(DESK_RAW[name])
    calls, real = [], Series.pow
    monkeypatch.setattr(Series, "pow", lambda s, alpha: calls.append((s.coeffs, alpha)) or real(s, alpha))
    fn_series(p, 1.0, order)
    monkeypatch.undo()
    (base,) = [(c, a) for c, a in calls if np.count_nonzero(c[1:]) > 1]
    return base


@pytest.mark.parametrize("name", ["case3", "case9b"])
def test_refused_blocks_keep_generator_bytes(name, monkeypatch):
    # with every block refused, each row adds its history terms, as the block
    # formed them, and its in-block terms in one fsum
    u, alpha = _inner_base(name, 200, monkeypatch)
    monkeypatch.setattr(thetagw.series, "_exact_rows", lambda terms: None)
    assert Series(u).pow(alpha).coeffs.tobytes() == _pow_reference(u, alpha).tobytes()


def _formed_blocks(call, monkeypatch, full=False):
    """(call()'s bytes, or its refusal's class and message; the 32-row blocks of
    dense power rows it formed). full=True forms every row: no room fits
    pgf._TAU = 1.0 below the clamp."""
    blocks, real = [], thetagw.series._exact_rows
    with monkeypatch.context() as m:
        m.setattr(thetagw.series, "_exact_rows", lambda terms: blocks.append(1) or real(terms))
        if full:
            m.setattr(thetagw.pgf, "_TAU", 1.0)
        try:
            out = call().tobytes()
        except ThetaGWError as exc:
            out = (type(exc).__name__, str(exc))
    return out, len(blocks)


@pytest.mark.parametrize("order", [50, 256, 1024])
def test_stopped_extraction_keeps_every_byte(order, monkeypatch):
    # every third law of a 300-law census draw: pmf_oracle, and pmf where it
    # takes the series route, give the bytes or refusal of a full formation
    stopped = refused = 0
    for raw in _laws(300, 7)[::3]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                p, _ = validate_classify(raw)
        except ThetaGWError:
            continue
        calls = [pmf_oracle]
        if -1.0 < p.theta < 0.0 and _neg_recip_m(p.theta) is None:  # pmf's series route
            calls.append(pmf)
        for call in calls:
            got, blocks = _formed_blocks(lambda: call(p, order), monkeypatch)
            want, all_blocks = _formed_blocks(lambda: call(p, order), monkeypatch, full=True)
            assert got == want, (raw, call.__name__)
            stopped += blocks < all_blocks
            refused += isinstance(got, tuple)
    assert stopped > 0 and refused > 0


@pytest.mark.parametrize("name", ["case5", "case4"])
def test_heavy_tails_form_every_row(name, monkeypatch):
    # case5's masses fall like k^(-3/2) and stay above the clamp; case4 takes
    # no dense power at all
    p, _ = validate_classify(DESK_RAW[name])
    got, blocks = _formed_blocks(lambda: pmf_oracle(p, 1024), monkeypatch)
    assert (got, blocks) == _formed_blocks(lambda: pmf_oracle(p, 1024), monkeypatch, full=True)
    assert blocks == (32 if name == "case5" else 0)


@pytest.mark.parametrize("name", ["case3", "case9b"])
def test_light_tails_stop_by_row_128(name, monkeypatch):
    p, _ = validate_classify(DESK_RAW[name])
    got, blocks = _formed_blocks(lambda: pmf_oracle(p, 1024), monkeypatch)
    assert (got, 32) == _formed_blocks(lambda: pmf_oracle(p, 1024), monkeypatch, full=True)
    assert blocks <= 4


def test_no_room_below_the_clamp_forms_every_row(monkeypatch):
    # A/|theta| = 2000: f(1) may round by up to 8 eps*A/|theta| = 3.6e-12, more
    # than the clamp leaves, so no stop, though only 5 masses of 1025 are nonzero
    p, _ = validate_classify({"theta": -0.5, "a": 0.5, "A": 1000.0, "q": 0.5})
    got, blocks = _formed_blocks(lambda: pmf_oracle(p, 1024), monkeypatch)
    assert blocks == 32 and np.count_nonzero(np.frombuffer(got)) == 5


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("order", [0, 1, 31, 32, 33, 64, 65])
def test_pow_block_edges_bitwise_equal_generator(order, kind):
    # orders at the edges of the 32-row blocks; at order 0, and for a sparse
    # base at order 1, no u_j past u_0 is nonzero
    u = _base(order, kind, order)
    for alpha in (-0.5, 2.5, 7.0):
        assert Series(u).pow(alpha).coeffs.tobytes() == _pow_reference(u, alpha).tobytes()


def test_pow_rows_far_apart_in_one_block_bitwise_equal_generator():
    # u_j = 2**(-220 - 40 j), zero from j = 22 on, and alpha = -4.5: v_m is near
    # 2**(990 - 40 m), so the rows of the first block lie about 2**1240 apart,
    # and the block's one sigma, set by its first row, splits its last in many passes
    u = np.ldexp(1.0, -220 - 40 * np.arange(65))
    ref = _pow_reference(u, -4.5)
    assert np.isfinite(ref).all() and np.log2(abs(ref[1])) - np.log2(abs(ref[32])) > 1200
    assert Series(u).pow(-4.5).coeffs.tobytes() == ref.tobytes()


@pytest.mark.parametrize("alpha", [1e307, -1e307])
def test_zero_u_j_stay_out_of_overflowing_factors(alpha):
    # j*alpha overflows from j = 18 on, where every u_j is zero, while the
    # generator's rows, over u_1, u_2 and u_5 alone, stay finite: an inf factor
    # times a zero u_j must make no nan, in the block's own terms nor in the
    # history of a block that _exact_rows refuses
    u = np.zeros(41)
    u[[0, 1, 2, 5]] = 1.0, 1e-300, 1e-300, -1e-300
    ref = _pow_reference(u, alpha)
    assert np.isfinite(ref).all()
    assert Series(u).pow(alpha).coeffs.tobytes() == ref.tobytes()


def _block(rows, width, seed, spread, kind):
    """rows x width terms, magnitudes e**(-spread)..e**spread."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((rows, width)) * np.exp(rng.uniform(-spread, spread, (rows, width)))
    if kind == "cancel":  # the second half is minus the first: sums of 0 or one term
        half = width // 2
        t[:, half : 2 * half] = -t[:, :half]
    elif kind == "zeros":  # every other row is signed zeros
        t[::2] = np.copysign(0.0, t[::2])
    elif kind == "subnormal":  # every other row scaled down to a largest term of 2**-1030
        t[::2] *= 2.0**-1030 / np.abs(t[::2]).max(axis=1, keepdims=True)
    elif kind == "far":  # largest terms from 2**900 in the first row down to 2**-1000 in the last
        t /= np.abs(t).max(axis=1, keepdims=True)
        t *= np.ldexp(1.0, np.linspace(900, -1000, rows).astype(int))[:, None]
    return t


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.integers(1, 32),
    st.integers(1, 1100),
    SEED,
    st.floats(0.0, 600.0),
    st.sampled_from(["plain", "cancel", "zeros", "subnormal"]),
)
@example(32, 1100, 0, 600.0, "plain")
@example(3, 1, 1, 0.0, "zeros")
@example(5, 1024, 2, 600.0, "subnormal")
@example(7, 1001, 3, 300.0, "cancel")
def test_exact_rows_sum_like_fsum(rows, width, seed, spread, kind):
    t = _block(rows, width, seed, spread, kind)
    before = t.tobytes()
    parts = _exact_rows(t)
    assert t.tobytes() == before  # the block is left as it is
    assert parts is not None and len(parts) == rows
    got = np.array([math.fsum(part) for part in parts])
    assert got.tobytes() == np.array([math.fsum(row) for row in t.tolist()]).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 32), st.integers(1, 1100), SEED, st.floats(0.0, 600.0))
@example(32, 1100, 0, 600.0)
@example(32, 1, 1, 0.0)
def test_exact_rows_split_rows_far_below_the_blocks_sigma(rows, width, seed, spread):
    # one sigma serves the block, set by its largest term near 2**900, so a row
    # near 2**-1000 is split only once the passes come down to it. Each pass
    # shrinks the residuals by at least 2**(52 - M), so the block needs at most
    # (e + 1074) / (52 - M) + 1 passes, e the exponent of its largest term:
    # a refusal is allowed only where that passes 60
    t = _block(rows, width, seed, spread, "far")
    parts = _exact_rows(t)
    top = math.frexp(np.abs(t).max())[1]
    assert parts is not None or (top + 1074) / (52 - (width + 1).bit_length()) + 1 > 60
    if parts is not None:
        got = np.array([math.fsum(part) for part in parts])
        assert got.tobytes() == np.array([math.fsum(row) for row in t.tolist()]).tobytes()


def test_exact_rows_refuses_what_it_cannot_split():
    t = _block(4, 100, 0, 10.0, "plain")
    t /= np.abs(t).max()
    for bad in (math.inf, -math.inf, math.nan, -(2.0**993)):  # 2**(1000 - M), M = 7
        t2 = t.copy()
        t2[2, 50] = bad
        assert _exact_rows(t2) is None
    assert _exact_rows(t * np.nextafter(2.0**993, 0.0)) is not None  # the largest term below it
    # each pass shrinks the residuals by at least 2**(52 - M) = 2**33 (M = 19):
    # terms every 16 binades from 2**970 down to 2**-1074 take 60 passes, and
    # from 2**980 down 61, one more than it makes
    for top, refused in ((970, False), (980, True)):
        scales = np.arange(top, -1075, -16)
        row = np.zeros((1, 2**18))
        row[0, : scales.size] = np.ldexp(1.0 + np.random.default_rng(1).random(scales.size), scales)
        parts = _exact_rows(row)
        assert (parts is None) == refused
        assert refused or math.fsum(parts[0]) == math.fsum(row[0].tolist())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(1, 16),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.booleans(),
    st.floats(-300.0, 2.0),
    st.booleans(),
)
@example(3, 1.0, 1.0, True, -17.0, False)
def test_affine_pow_keeps_small_exponents(order, c0, ratio, neg_ratio, log_alpha, neg_alpha):
    # [s^k] (c0 + c1 s)^alpha = c0^alpha * prod_{i<=k} (alpha - i + 1)/i * (c1/c0),
    # for |alpha| from 1e-300 to 100; |c1/c0| >= 1/2 keeps the terms normal floats.
    # The factor is spelled alpha - (i - 1), so that the first one is alpha itself
    alpha = (-1.0 if neg_alpha else 1.0) * 10.0**log_alpha
    c1 = (-ratio if neg_ratio else ratio) * c0
    got = Series.affine(c0, c1, order).pow(alpha).coeffs
    ref = [c0**alpha]
    for i in range(1, order + 1):
        ref.append(ref[-1] * (alpha - (i - 1)) / i * (c1 / c0))
    assert got.tolist() == pytest.approx(ref, rel=1e-12, abs=0.0)


# sha256 over pmf_oracle, stationary_law, conditional_limit_b, critical_limit_w
# and h_coeffs at orders 256 and 1024 (the orders the ct_series benchmark
# times) on every desk set, in this order; a law that raises DomainError or
# NumericError adds its class name. Recorded before subtraction became the
# addition of a negation, so any change to the Series arithmetic that moves
# one of these bits fails here
DESK_LAWS_DIGEST = "59327b3db108e3501e0f65398964f2750e1b778741587af0124bf2d3f83b1b24"


def test_desk_laws_bytes_are_pinned():
    laws = (
        pmf_oracle,
        lambda p, k: stationary_law(p, k).probs,
        lambda p, k: conditional_limit_b(p, k).probs,
        lambda p, k: critical_limit_w(p, k).probs,
        lambda p, k: h_coeffs(build_embedding(p), k).coeffs,
    )
    digest = hashlib.sha256()
    for name in sorted(DESK_RAW):
        p, _ = validate_classify(DESK_RAW[name])
        for order in (256, 1024):
            for law in laws:
                try:
                    digest.update(law(p, order).tobytes())
                except (DomainError, NumericError) as exc:
                    digest.update(type(exc).__name__.encode())
    assert digest.hexdigest() == DESK_LAWS_DIGEST
