"""Series arithmetic against math.comb / scipy reference coefficients."""

import math
import warnings
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.special import binom as sp_binom

from thetagw import validate_classify
from thetagw.errors import NumericError, UnsupportedFormError
from thetagw.pgf import fn_series
from thetagw.series import _SCALAR_TERMS, Series, _exact_rows

from conftest import DESK_RAW


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


def test_log_pow_consistency():
    # exp is not implemented, so check log(u^alpha) = alpha log(u) instead
    u = Series.affine(1.5, -0.25, 18)
    left = u.pow(0.7).log()
    right = u.log() * 0.7
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-13


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
    return u


ORDER = st.integers(0, 300)
KIND = st.sampled_from(["dense", "sparse", "signed_zero", 8, 9, "one"])
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
    # u_j = 30 * sign at j = 1, 2, 3, 5, 6, 7, 9, and u_40: at most
    # _SCALAR_TERMS nonzero u_j, so every row is a generator
    test_pow_overflow_matches_generator(alpha, sign, u_40, warn, terms=_SCALAR_TERMS - 1)


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("u_40", [0.0, math.inf])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("alpha", [-7.5, -1.0, 40.0])
def test_one_term_pow_overflow_matches_generator(alpha, sign, u_40, warn):
    # u = 1 + 1e10 * sign * s, and u_40: with u_40 = 0 every row is one term,
    # formed as term + 0.0. The coefficients turn infinite near order 30, so
    # at alpha = 40, where the factor of row 41 is 0, that row is 0 * inf = nan
    test_pow_overflow_matches_generator(alpha, sign, u_40, warn, terms=1, u_j=1e10)


@BITWISE
@given(ORDER, st.sampled_from(["affine", "dense", "sparse", "one"]), SEED)
@example(300, "affine", 0)
@example(300, "sparse", 1)
@example(300, "one", 4)  # u_15 alone among signed zeros
def test_log_bitwise_equals_generator(order, kind, seed):
    u = _base(order, kind, seed)
    if kind == "affine":
        u[2:] = 0.0
    ref = _log_reference(u)
    assert np.isfinite(ref).all()
    assert Series(u).log().coeffs.tobytes() == ref.tobytes()


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
    # log(1 + 30 sign (s + ... + s^7)) has coefficients near 30**k / k, which
    # overflow near order 200: past it the generator's rows are +inf with
    # sign -1, while with sign 1 its fsum meets -inf + inf and raises
    u = np.zeros(301)
    u[0] = 1.0
    u[1:8] = 30.0 * sign
    want = _one_rule(lambda: Series(u).log().coeffs, lambda: _log_reference(u), warn)
    assert np.isinf(want).sum() > 90 if sign < 0.0 else want is None


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
    (u, alpha), = [(c, a) for c, a in calls if np.count_nonzero(c[1:]) > _SCALAR_TERMS]
    v = Series(u).pow(alpha).coeffs
    assert v.tobytes() == _pow_reference(u, alpha).tobytes()
    assert (Series(u) * Series(v)).coeffs.tobytes() == _mul_reference(u, v).tobytes()


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
