"""Offspring masses: each route against the series-extraction oracle."""

import hashlib
import math

import numpy as np
import pytest

from thetagw import (
    DomainError,
    INFINITE,
    NumericError,
    OffspringTable,
    TruncationError,
    build_embedding,
    h_coeffs,
    pmf,
    pmf_oracle,
    scalar_summary,
    theta0_scaled_tail,
    validate_classify,
)
from thetagw import offspring
from thetagw.offspring import K_MAX_RATIO, K_MAX_TRIANGLE, _pmf_table, b_triangle

from conftest import DESK_RAW, NINE, fft_pmf


def test_pmf_matches_oracle_all_desk_sets(desk):
    # dual-route check: recursion masses vs pgf Taylor coefficients
    for name in sorted(DESK_RAW):
        p, _ = desk[name]
        direct = pmf(p, 60)
        oracle = pmf_oracle(p, 60)
        assert np.max(np.abs(direct - oracle)) < 1e-9, name


def test_pmf_matches_oracle_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(60):
        theta = float(rng.uniform(-0.99, 1.0)) or 0.5
        a = float(rng.uniform(0.05, 0.95))
        big_a = float(rng.choice([1.0, 1.0, rng.uniform(1.05, 2.5)]))
        hi = min(1.0, big_a) - 1e-9
        q = float(rng.uniform(0.0, hi))
        if theta == -1.0 and big_a != 1.0:
            big_a = 1.0
        p, _ = validate_classify({"theta": theta, "a": a, "q": q, "A": big_a})
        assert np.max(np.abs(pmf(p, 50) - pmf_oracle(p, 50)) ) < 1e-9


@pytest.mark.parametrize("name", ["case3", "case9b"])
def test_pmf_matches_oracle_at_order_1024(desk, name):
    # the orders at which the oracle's dense powers run through many blocks
    p, _ = desk[name]
    assert np.max(np.abs(pmf(p, 1024) - pmf_oracle(p, 1024))) < 1e-9


def test_two_point_law(desk):
    p, _ = desk["case6"]
    probs = pmf(p, 5)
    assert probs[0] == (1.0 - p.a) * p.q
    assert probs[1] == p.a
    assert not probs[2:].any()


def test_closed_form_first_masses(desk):
    # theta=1, a=1, c=1: f(s) = 1 - (1-s)/(2-s) has p_k = 2^(-k) for k >= 1
    p, _ = desk["case2"]
    probs = pmf(p, 20)
    assert math.isclose(probs[0], 0.5, rel_tol=1e-14)
    for k in range(1, 21):
        assert math.isclose(probs[k], 2.0 ** -(k + 1), rel_tol=1e-12)


def test_monotone_from_one():
    # masses are nonincreasing from p_1 on for theta in (0,1], A=1
    rng = np.random.default_rng(1)
    for _ in range(40):
        theta = float(rng.uniform(0.05, 1.0))
        a = float(rng.uniform(0.05, 2.0))
        if a >= 1.0:
            raw = {"theta": theta, "a": a, "c": float(rng.uniform(0.1, 3.0))}
        else:
            raw = {"theta": theta, "a": a, "q": float(rng.uniform(0.0, 0.95))}
        p, _ = validate_classify(raw)
        probs = pmf(p, 200)
        assert np.all(np.diff(probs[1:]) <= 1e-12)


def test_neg_recip_route_agrees_with_triangle(desk):
    # theta = -1/2 dispatches to the binomial-sum route; force the triangle
    # route on the same parameters and compare
    from thetagw.offspring import _pmf_triangle

    for name in ("case5", "case5b", "case9"):
        p, _ = desk[name]
        fast = pmf(p, 400)
        slow = _pmf_triangle(p, 400)
        assert np.max(np.abs(fast - slow)) < 1e-11, name


def test_neg_recip_third():
    # theta = -1/3 exercises m = 3 with a three-series binomial sum
    p, _ = validate_classify({"theta": -1.0 / 3.0, "a": 0.4, "q": 0.2})
    assert np.max(np.abs(pmf(p, 80) - pmf_oracle(p, 80))) < 1e-10


def test_theta0_ratio_and_scaled_tail(desk):
    p, _ = desk["case4"]
    probs = pmf(p, 400)
    # two-term ratio p_n / p_{n-1} = (n-a-1)/(nA)
    n = np.arange(3, 401, dtype=float)
    ratio = probs[3:] / probs[2:-1]
    assert np.max(np.abs(ratio - (n - p.a - 1.0) / (n * p.big_a))) < 1e-12
    scaled = theta0_scaled_tail(p, 100, 120)
    assert np.max(np.abs(scaled - probs[100:121] * p.big_a ** np.arange(100, 121))) < 1e-15
    with pytest.raises(DomainError):
        theta0_scaled_tail(desk["case3"][0], 1, 5)


def test_theta0_scaled_tail_from_one(desk):
    # the window from n = 1 is the same product as any later window
    p, _ = desk["case8"]
    full = theta0_scaled_tail(p, 1, 40)
    assert full.size == 40
    for k in range(1, 41):
        assert full[k - 1] == theta0_scaled_tail(p, k, 40)[0]


def test_theta0_tail_exponent(desk):
    # p_n A^n n^(1+a) must flatten; check the 5000..10000 window drift
    for name in ("case4", "case8"):
        p, _ = desk[name]
        n = np.arange(5000, 10001, dtype=float)
        scaled = theta0_scaled_tail(p, 5000, 10000) * n ** (1.0 + p.a)
        rel = (scaled.max() - scaled.min()) / scaled.mean()
        assert rel < 0.05, name


def test_triangle_values():
    # B_{1,2} = 1+theta and one hand-advanced row
    tri = b_triangle(0.5, 5)
    assert tri.value(1, 2) == 1.5
    # B_{1,3} = (3-2-0.5) B_{1,2} = 0.75; B_{2,3} = (1+2*0.5) B_{1,2} = 3
    assert tri.value(1, 3) == 0.75
    assert tri.value(2, 3) == 3.0
    with pytest.raises(DomainError):
        tri.value(3, 3)
    with pytest.raises(DomainError):
        b_triangle(0.0, 5)


def test_triangle_nonnegative_for_positive_theta():
    for theta in (0.25, 0.5, 1.0):
        tri = b_triangle(theta, 60)
        for n in range(2, 61):
            assert np.all(tri.row(n) >= 0.0)


def test_triangle_sign_failure_documented():
    # for theta in (-1, 0) with non-integer 1/|theta| the triangle goes
    # negative; scaling the rows keeps them finite but not of one sign, so the
    # row sums would cancel, and pmf takes the series route there instead
    tri = b_triangle(-0.7, 40)
    assert any(np.any(tri.row(n) < 0.0) for n in range(2, 41))


# off the -1/m lattice the triangle's scaled rows of theta < 0 cancel: they gave
# p_102 = 2.08e-6 where the reference gives 6.20e-6, after drifting from order 65
CANCELLING = {"theta": -0.891, "a": 0.371, "q": 0.306}


def test_triangle_masses_match_oracle_past_the_warning():
    # the series route keeps every mass, also past the order where the
    # triangle cancelled; the reference is an FFT of the closed form
    p, _ = validate_classify(CANCELLING)
    probs = pmf(p, 102)
    assert np.max(np.abs(probs - fft_pmf(p, 102))) < 1e-15
    assert np.array_equal(probs, pmf_oracle(p, 102))


@pytest.mark.parametrize("name, cap", [
    ("case1", K_MAX_TRIANGLE), ("case4", K_MAX_RATIO), ("case5", K_MAX_RATIO),
    ("case6", K_MAX_RATIO), ("cancelling", K_MAX_TRIANGLE),
])
def test_pmf_route_cap(desk, name, cap):
    # the O(K^2) triangle and series routes stop at 10^4 before any work, the
    # ratio routes at 10^6
    p, _ = desk[name] if name in desk else validate_classify(CANCELLING)
    with pytest.raises(DomainError, match="largest this route computes"):
        pmf(p, cap + 1)
    assert _pmf_table(p).k_max == cap


@pytest.mark.parametrize("call, expected", [
    (lambda desk: b_triangle(0.5, 4).row(1), DomainError),
    # row 0 at order 0, as at any order: a table's doubling relies on it
    (lambda desk: pmf(desk["case5b"][0], 0), lambda desk: pmf(desk["case5b"][0], 8)[:1]),
    (lambda desk: pmf(desk["case6"][0], 0), lambda desk: [0.15]),
], ids=["triangle-row-1", "lattice-order-0", "two-point-order-0"])
def test_input_guards(desk, call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(desk)
    else:
        assert np.array_equal(call(desk), expected(desk))


def test_mass_accounting(per_case):
    name, p, tag = per_case
    s = scalar_summary(p)
    probs = pmf(p, 2000 if p.theta in (0.0, -1.0) else 800)
    total = probs.sum() + s.p_inf
    # everything but the truncated tail, which is tiny for these orders
    assert total <= 1.0 + 1e-12
    assert total > 1.0 - 0.05


def test_table_layout_and_lookup(desk):
    p, _ = desk["case5b"]
    table = _pmf_table(p)
    s = scalar_summary(p)
    assert table.boundaries[0] == s.p_inf
    assert np.all(np.diff(table.boundaries) >= 0.0)
    # u below the escape mass is an explosive draw
    assert table.lookup(s.p_inf / 2.0) == INFINITE
    assert table.lookup(s.p_inf + 1e-12) == 0
    # extension on demand: a draw just under coverage cap forces doubling
    before = table.order
    table.lookup((table.coverage + 1.0) / 2.0)  # in the mass beyond the table
    assert table.order > before


@pytest.mark.parametrize("u", [math.nan, -0.5, 1.0, 1.5])
def test_lookup_refuses_a_draw_outside_the_unit_interval(desk, u):
    # refused before the table grows: a u of 1.5 would otherwise double
    # case3's triangle table to its 10^4 cap before a TruncationError
    table = _pmf_table(desk["case3"][0])
    head = table.boundaries.copy()
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\)"):
        table.lookup(u)
    assert table.order == 256
    assert np.array_equal(table.boundaries, head)


def test_zero_mass_cell_skipped(desk):
    # case5 has p_0 = 0 exactly: the first draw above the escape mass is k=1
    p, _ = desk["case5"]
    table = _pmf_table(p)
    assert table.boundaries[1] == table.boundaries[0]
    assert table.lookup(table.p_inf + 1e-12) == 1


def test_table_extension_preserves_prefix(desk):
    p, _ = desk["case3"]
    t1 = _pmf_table(p)
    head = t1.boundaries.copy()
    t1._rebuild(4 * t1.order)
    assert np.array_equal(t1.boundaries[: head.size], head)


@pytest.mark.parametrize("name", ["case1", "case9b", "case8", "case6"])
def test_table_from_masses_escape_and_cap(desk, name):
    # a table of h's coefficients (one embedding form each) grown by doubling
    # from 256 to its 4096 cap is, bit for bit, the one build at order 4096
    e = build_embedding(desk[name][0])
    escape = max(1.0 - e.h_at_1, 0.0)
    table = OffspringTable(lambda k: h_coeffs(e, k).coeffs, escape, 4096)
    assert (table.order, table.p_inf) == (256, escape)
    assert not table.ensure_coverage(math.inf)
    assert table.order == 4096
    fixed = np.concatenate(([escape], escape + np.cumsum(h_coeffs(e, 4096).coeffs)))
    assert np.array_equal(table.boundaries, fixed)


def test_failed_extension_keeps_the_table():
    # a build that raises leaves the order and the boundaries it had, so a
    # cap test that reads the order still matches the cells
    def masses(order):
        if order > 256:
            raise NumericError("no masses past order 256")
        return np.full(order + 1, 1e-3)

    table = OffspringTable(masses, 0.0, 4096)
    head = table.boundaries.copy()
    with pytest.raises(NumericError, match="past order 256"):
        table.ensure_coverage(0.9)
    assert table.order == 256
    assert np.array_equal(table.boundaries, head)


def test_table_cap_raises(desk, monkeypatch):
    # case5 (theta = -1/2) takes the ratio route; a lower cap is reached by
    # one doubling from the first build
    monkeypatch.setattr(offspring, "K_MAX_RATIO", 512)
    p, _ = desk["case5"]
    table = _pmf_table(p)
    assert (table.order, table.k_max) == (256, 512)
    with pytest.raises(TruncationError):
        table.lookup(1.0 - 1e-9)
    assert table.order == 512


def test_sample_offspring_statistics(desk):
    # case6 supports {0, 1, infinity} with masses (1-a)q, a, 1-f(1)
    p, _ = desk["case6"]
    table = _pmf_table(p)
    rng = np.random.default_rng(7)
    draws = np.array([table.lookup(float(rng.random())) for _ in range(40000)])
    assert set(np.unique(draws)) == {0.0, 1.0, INFINITE}
    assert abs((draws == 0.0).mean() - 0.15) < 0.01
    assert abs((draws == 1.0).mean() - 0.5) < 0.01
    assert abs(np.isinf(draws).mean() - 0.35) < 0.01


def test_sample_offspring_escape_rate(desk):
    # case7b has light k^(-3) tails, so 40k raw draws never overrun the table
    p, _ = desk["case7b"]
    table = _pmf_table(p)
    s = scalar_summary(p)
    rng = np.random.default_rng(11)
    draws = np.array([table.lookup(float(rng.random())) for _ in range(40000)])
    assert abs(np.isinf(draws).mean() - s.p_inf) < 0.01


# sha256 over pmf at orders 256, 512, ..., 2^19 and 10^6, then the table's
# boundaries at 10^6, for the theta = -1/m route (m = 2 and m = 3).
NEG_RECIP_DIGESTS = {
    "case5": ({"theta": -0.5, "a": 0.5, "q": 0.0},
              "5500df63a0c295ccd8490477b1842040e711d57b96f663dcb7360c92e3a2e1a6"),
    "case5b": ({"theta": -0.5, "a": 0.5, "q": 0.3},
               "40628dbd67d4e21aaa008fb5abb18eb0b76d373a4cda027129a8e6b4d360ad42"),
    "case9b": ({"theta": -0.5, "a": 0.5, "A": 2.0, "q": 0.5},
               "3b6ab831b9d4f3ac6acf8a0ee2fee8d81a6c9bdea833748d190fa7f9194cc4b1"),
    "third": ({"theta": -1.0 / 3.0, "a": 0.5, "q": 0.3},
              "ce36575dbc977a2dc06e43fc8bb06ec5ef927307e5322178b966751e0093b628"),
}


@pytest.mark.parametrize("name", sorted(NEG_RECIP_DIGESTS))
def test_neg_recip_tables_byte_identical(name):
    raw, want = NEG_RECIP_DIGESTS[name]
    p, _ = validate_classify(raw)
    h = hashlib.sha256()
    for order in [256 * 2**k for k in range(12)] + [10**6]:
        h.update(pmf(p, order).tobytes())
    table = _pmf_table(p)
    table._rebuild(10**6)
    h.update(table.boundaries.tobytes())
    assert h.hexdigest() == want


# sha256 over pmf at orders 64, 4096 and 65536 on two theta = -1/m laws, and
# how many of their prefactors C(m, j) a^j c^(m - j) underflow to 0; the route
# skips those, which would only add exact zeros to masses that are never -0.0
ZERO_PREFACTOR_DIGESTS = {
    "m1000": ({"theta": -1.0 / 1000.0, "a": 1e-5, "q": 0.3}, 936,
              "b5cf9406cda3fe0ab9ef871d3fffd5689c510919c871fc378581fe14bd2c75a1"),
    "m600": ({"theta": -1.0 / 600.0, "a": 1e-3, "A": 2.0, "q": 0.5}, 493,
             "f7efd47d2766d5ccae085c4d812b67750d916847594f360f234b3094c9cfd841"),
}


@pytest.mark.parametrize("name", sorted(ZERO_PREFACTOR_DIGESTS))
def test_neg_recip_zero_prefactors_byte_identical(name):
    raw, zeros, want = ZERO_PREFACTOR_DIGESTS[name]
    p, _ = validate_classify(raw)
    m = round(-1.0 / p.theta)
    prefs = [math.comb(m, j) * p.a**j * p.c ** (m - j) for j in range(1, m + 1)]
    assert prefs.count(0.0) == zeros
    h = hashlib.sha256()
    for order in (64, 4096, 65536):
        h.update(pmf(p, order).tobytes())
    assert h.hexdigest() == want
