"""Ring laws, exp/log inversion and the product/sum expansion helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    BULK_IMAGE_PRODUCT,
    CORNER_PRODUCT,
    SURFACE_H_IMAGE_PRODUCT,
    SURFACE_LOG_LAMBERT,
    expand_product,
    geometric_inverse,
    inversion_lambert,
    lambert_sum_loop,
)
from potts_sd import closedform as cf
from potts_sd import relations
from potts_sd.closedform import rational_series
from potts_sd.errors import TruncationError
from potts_sd.qseries import (
    LaurentPolyS,
    TruncatedSeries,
    lambert_families,
    lambert_sum,
    log_geometric_inverse,
    log_product,
)

ORDER = 20


def random_series(draw, min_deg=0, max_terms=6):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-9, 9),
                st.integers(min_deg, ORDER),
                st.integers(-3, 3),
            ),
            min_size=0,
            max_size=max_terms,
        )
    )
    return TruncatedSeries.from_terms(terms, order=ORDER)


series_strategy = st.builds(
    lambda terms: TruncatedSeries.from_terms(terms, order=ORDER),
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(0, ORDER), st.integers(-3, 3)),
        min_size=0,
        max_size=6,
    ),
)

positive_series_strategy = st.builds(
    lambda terms: TruncatedSeries.from_terms(terms, order=ORDER),
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(1, ORDER), st.integers(-3, 3)),
        min_size=0,
        max_size=6,
    ),
)


def test_geometric_identity():
    one = TruncatedSeries.one(ORDER)
    t = TruncatedSeries.term(1, 1, 0, order=ORDER)
    geo = geometric_inverse(1, 1, 0, ORDER)
    assert (one - t) * geo == one


def test_monomial_multiplication():
    a = TruncatedSeries.term(1, 2, 1, order=ORDER)  # s t^2
    b = TruncatedSeries.term(1, 3, -1, order=ORDER)  # t^3 / s
    assert a * b == TruncatedSeries.term(1, 5, 0, order=ORDER)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(positive_series_strategy)
def test_exp_log_round_trip(a):
    one = TruncatedSeries.one(ORDER)
    assert (one + (a.exp() - 1)).log() == a.truncate(min(a.order, ORDER))


@settings(max_examples=40, deadline=None)
@given(positive_series_strategy)
def test_log_exp_round_trip(a):
    one = TruncatedSeries.one(ORDER)
    assert (one + a).log().exp() == one + a


@settings(max_examples=40, deadline=None)
@given(positive_series_strategy, positive_series_strategy)
def test_exp_is_additive_to_multiplicative(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


# lead c * s^e * t^d (a monomial at a negative, zero or positive degree) plus a tail
unit_lead_series_strategy = st.builds(
    lambda c, d, e, tail: TruncatedSeries.from_terms(
        [(c, d, e)] + [(v, d + 1 + k, sd) for v, k, sd in tail], order=ORDER
    ),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2)]),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(0, ORDER), st.integers(-3, 3)),
        max_size=6,
    ),
)


@settings(max_examples=60, deadline=None)
@given(unit_lead_series_strategy)
def test_reciprocal_inverts(x):
    r = x.reciprocal()
    assert r.order == x.order - 2 * x.min_deg
    assert x * r == TruncatedSeries.one(x.order - 2 * x.min_deg)


@pytest.mark.parametrize("c", [1, -1, 3, Fraction(-2, 5)])
@pytest.mark.parametrize("sdeg, tdeg", [(0, 1), (1, 2), (-2, 4), (3, 16)])
def test_reciprocal_and_log_match_geometric_oracles(c, sdeg, tdeg):
    for order in (1, 7, 24, 48):
        x = TruncatedSeries.one(order) - TruncatedSeries.term(c, tdeg, sdeg, order=order)
        r, g = x.reciprocal(), x.log()
        assert (r.order, g.order) == (order, order)
        assert r.to_json_dict() == geometric_inverse(c, tdeg, sdeg, order).to_json_dict()
        assert g.to_json_dict() == (-log_geometric_inverse(c, tdeg, sdeg, order)).to_json_dict()


def test_kernel_result_orders():
    # exp and log keep the input's order; reciprocal moves it by twice the lead degree
    a = TruncatedSeries.from_terms([(1, 3, 1), (2, 5, 0)], order=11)
    assert a.exp().order == 11
    assert (TruncatedSeries.one(11) + a).log().order == 11
    assert TruncatedSeries.zero(9).exp() == TruncatedSeries.one(9)
    assert TruncatedSeries.zero(9).exp().order == 9
    assert TruncatedSeries.one(9).log().is_zero() and TruncatedSeries.one(9).log().order == 9
    assert (a + 1).reciprocal().order == 11
    assert a.reciprocal().order == 11 - 6
    assert TruncatedSeries.from_terms([(2, -2, 1), (1, 0, 0)], order=11).reciprocal().order == 15


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy)
def test_s_inversion_is_ring_map(a, b):
    assert (a * b).subst_s_inv() == a.subst_s_inv() * b.subst_s_inv()
    assert (a + b).subst_s_inv() == a.subst_s_inv() + b.subst_s_inv()


def test_log_of_geometric():
    # log(1/(1 - t^n)) = sum_k t^{nk}/k
    n = 3
    geo = geometric_inverse(1, n, 0, ORDER)
    expected = TruncatedSeries.from_terms(
        [(Fraction(1, k), n * k, 0) for k in range(1, ORDER // n + 1)], order=ORDER
    )
    assert geo.log() == expected


def test_reciprocal_needs_monomial_lead():
    a = TruncatedSeries.from_terms([(1, 0, 0), (1, 0, 1)], order=ORDER)  # 1 + s
    with pytest.raises(TruncationError):
        a.reciprocal()


def test_reciprocal_of_shifted_monomial_lead():
    # leading term -s t^{-2}: invertible in the Laurent ring
    a = TruncatedSeries.from_terms([(-1, -2, 1), (1, 0, 0), (2, 3, -1)], order=ORDER)
    assert a * a.reciprocal() == TruncatedSeries.one(a.order - 4)


def test_log_requires_unit_constant():
    with pytest.raises(TruncationError):
        TruncatedSeries.from_terms([(2, 0, 0), (1, 1, 0)], order=ORDER).log()
    with pytest.raises(TruncationError):
        TruncatedSeries.from_terms([(1, 0, 0), (1, 0, 1)], order=ORDER).exp()


def test_log_product_odd_q_powers():
    # prod_k (1 - q^{2k+1}) through q^4: 1 - q - q^3 + q^4
    got = log_product([(0, 4, 8, 1)], 16).exp()
    expected = TruncatedSeries.from_terms([(1, 0, 0), (-1, 4, 0), (-1, 12, 0), (1, 16, 0)], order=16)
    assert got.to_json_dict() == expected.to_json_dict()


def test_log_product_empty():
    assert log_product([], 12).to_json_dict() == TruncatedSeries.zero(12).to_json_dict()


def test_log_product_rejects_nontruncating():
    with pytest.raises(TruncationError):
        log_product([(0, 0, 4, 1)], 12)
    with pytest.raises(TruncationError):
        log_product([(0, 4, 0, 1)], 12)


def test_corner_product_log_equals_sum():
    # log prod (1-q^{4k-3})^{-1}(1-q^{4k-2})^{-4}(1-q^{4k-1})^{-1}
    #   = sum_n (q^n + 4 q^{2n} + q^{3n})/(n (1 - q^{4n}))
    order = 32
    lam = lambert_sum_loop([(1, 4, 0), (4, 8, 0), (1, 12, 0)], 16, -1, order)
    assert log_product([(0, 4, 16, -1), (0, 8, 16, -4), (0, 12, 16, -1)], order) == lam


def test_log_product_equals_the_log_of_the_expanded_product():
    # both typed product forms, coefficients and order, at every T
    for T in range(1, 61):
        for families in (CORNER_PRODUCT, SURFACE_H_IMAGE_PRODUCT, BULK_IMAGE_PRODUCT):
            prod = expand_product([(1, *f) for f in families], T)
            got = log_product(families, T)
            assert got.to_json_dict() == prod.log().to_json_dict(), (families, T)
            assert got.exp().to_json_dict() == prod.to_json_dict(), (families, T)


def test_inversion_images_are_the_mapped_lists():
    # f_s's, S_b's and log G's lam - u images truncate: nothing is split, and
    # the derived families are the hand-mapped list's, through every T
    lists = {
        "SURFACE_V_LAMBERT": cf.SURFACE_V_LAMBERT,
        "BULK_COUPLING_LAMBERT": cf.BULK_COUPLING_LAMBERT,
        "SURFACE_LOG_LAMBERT": SURFACE_LOG_LAMBERT,
    }
    for name, lam in lists.items():
        families, split = relations._image_families(lam)
        assert split == [], name
        assert families == lambert_families(*inversion_lambert(lam)), name
        for T in range(1, 61):
            ref = lambert_sum_loop(*inversion_lambert(lam), T)
            assert log_product(families, T).to_json_dict() == ref.to_json_dict(), (name, T)


def test_bulk_image_splits_its_one_nontruncating_factor():
    # f_b's image splits exactly (1 - s t^-2)^-1, that is 1 - w^2/q, and the
    # rest is the mapped list's truncating half plus the typed product, through every T
    families, split = relations._image_families(cf.BULK_LAMBERT)
    assert split == [(1, -2, -1)]
    for T in range(1, 61):
        typed = lambert_sum_loop([(1, 6, -1), (-1, 10, -1)], 4, +1, T) + log_product(BULK_IMAGE_PRODUCT, T)
        assert log_product(families, T).to_json_dict() == typed.to_json_dict(), T


def test_surface_h_image_splits_its_one_nontruncating_factor():
    # f'_s's image splits exactly (1 - s t^-2)^-1, that is 1 - w^2/q, and the
    # rest is the typed product times exp of the short list, through every T
    families, split = relations._image_families(cf.SURFACE_H_LAMBERT)
    assert split == [(1, -2, -1)]
    for T in range(1, 61):
        b_small = lambert_sum_loop([(1, 10, -1), (-1, 14, -1)], 8, +1, T)
        typed = b_small + log_product(SURFACE_H_IMAGE_PRODUCT, T)
        assert (-log_product(families, T)).to_json_dict() == typed.to_json_dict(), T


@pytest.mark.parametrize("sdeg", [-1, 0, 1])
@pytest.mark.parametrize("expo", [1, -1, 2, -2, 4, -4])
def test_log_product_is_a_lambert_sum(sdeg, expo):
    # log prod_k (1 - s^b t^(t0 + k tstep))^e = sum_n -e s^(bn) t^(n t0) / (n (1 - t^(n tstep)))
    for t0, tstep in ((1, 1), (2, 4), (6, 16), (14, 8)):
        for T in (1, 7, 24, 48):
            got = log_product([(sdeg, t0, tstep, expo)], T)
            expected = lambert_sum_loop([(-expo, t0, sdeg)], tstep, -1, T)
            assert got.to_json_dict() == expected.to_json_dict(), (t0, tstep, T)


# the seven closedform lists, log G, the lam - u images of S_b and log G, and
# the short list of f_sp's typed image
ALL_LAMBERT = [
    *(getattr(cf, name) for name in dir(cf) if name.endswith("_LAMBERT")),
    SURFACE_LOG_LAMBERT,
    inversion_lambert(cf.BULK_COUPLING_LAMBERT),
    inversion_lambert(SURFACE_LOG_LAMBERT),
    ([(1, 10, -1), (-1, 14, -1)], 8, +1),
]


def test_lambert_sum_equals_the_double_loop():
    # the product expansion against the term-by-term loop: coefficients, their
    # int or Fraction type, and the order, at every T
    assert len(ALL_LAMBERT) == 11
    for T in range(1, 61):
        for lam in ALL_LAMBERT:
            got, ref = lambert_sum(*lam, T), lambert_sum_loop(*lam, T)
            assert got.to_json_dict() == ref.to_json_dict(), (lam, T)
            assert {(d, e): type(v) for d, p in got.coeffs.items() for e, v in p.c.items()} == {
                (d, e): type(v) for d, p in ref.coeffs.items() for e, v in p.c.items()
            }, (lam, T)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dstep", [1, 3, 8])
def test_lambert_sum_equals_the_double_loop_off_the_lists(sign, dstep):
    # numerators, s-degrees and denominator steps that no list above uses
    numer = [(1, 1, 0), (-2, 3, 1), (3, 6, -1), (5, 2, 2)]
    for T in (1, 7, 24, 48):
        got, ref = lambert_sum(numer, dstep, sign, T), lambert_sum_loop(numer, dstep, sign, T)
        assert got.to_json_dict() == ref.to_json_dict(), T


def test_lambert_families():
    # 1/(1 + t^(4n)) = sum_m (-t^(4n))^m splits by the parity of m; 1/(1 - y^n) does not
    assert lambert_families([(3, 2, 1), (0, 6, 1)], 4, +1) == [(1, 2, 8, -3), (1, 6, 8, 3)]
    assert lambert_families([(3, 2, 1)], 4, -1) == [(1, 2, 4, -3)]
    with pytest.raises(ValueError):
        lambert_families([(1, 2, 1)], 4, 0)
    with pytest.raises(TruncationError):
        lambert_families([(1, 2, 1)], 0, 1)


def test_series_types_are_unhashable():
    # equal series may differ in order, and a constant LaurentPolyS equals its
    # int, so no hash can agree with ==
    assert TruncatedSeries.term(1, 2, 0, order=4) == TruncatedSeries.term(1, 2, 0, order=8)
    assert LaurentPolyS.const(3) == 3
    for x in (TruncatedSeries.term(1, 2, 0, order=4), LaurentPolyS.const(3)):
        with pytest.raises(TypeError):
            hash(x)


def test_lambert_zero_numerator():
    assert lambert_sum([(0, 2, 1)], 4, 1, 12).is_zero()
    assert lambert_sum([], 4, 1, 12).is_zero()


def test_lambert_rejects_nonpositive_degree():
    with pytest.raises(TruncationError):
        lambert_sum([(1, 0, 1)], 4, 1, 12)
    with pytest.raises(TruncationError):
        lambert_sum([(1, -2, 1)], 4, 1, 12)


def test_lambert_commutes_with_s_inversion():
    # s -> 1/s on the result equals negating every w-power in the pattern
    numer = [(1, 2, 1), (-1, 6, -1)]
    flipped = [(1, 2, -1), (-1, 6, 1)]
    a = lambert_sum(numer, 8, 1, ORDER)
    assert a.subst_s_inv() == lambert_sum(flipped, 8, 1, ORDER)


def test_leading_coefficient_of_surface_sum():
    # n = 1 term of the vertical-surface sum starts at s * t^2
    from potts_sd.closedform import f_surface_v_series

    c = f_surface_v_series(8).coeff(2)
    assert c == LaurentPolyS({1: 1})


def test_leading_coefficient_of_horizontal_surface_sum():
    # onset at t^2 with coefficient 1/s (rotation image of the vertical one)
    from potts_sd.closedform import f_surface_h_series

    c = f_surface_h_series(8).coeff(2)
    assert c == LaurentPolyS({-1: 1})


def test_serialization_round_trip():
    a = TruncatedSeries.from_terms(
        [(Fraction(3, 7), 2, 1), (-2, 5, -4), (Fraction(-11, 3), 0, 0)], order=9
    )
    assert TruncatedSeries.from_json_dict(a.to_json_dict()) == a
    d = a.to_json_dict()
    assert d["var"] == "q^(1/4)"
    assert all(isinstance(t["s_terms"][0]["num"], str) for t in d["terms"])


def test_truncation_tracking_through_mul():
    # multiplying by a series of minimal degree d extends validity by d
    a = TruncatedSeries.from_terms([(1, 2, 0)], order=10)
    b = TruncatedSeries.from_terms([(1, 3, 0)], order=10)
    assert (a * b).order == 12


# -- the kernel against a naive all-Fraction reference -------------------------
#
# The reference keeps every coefficient as a Fraction and runs the plain
# double loops and per-degree recurrences on maps t-degree -> {s-degree:
# Fraction}: products term by term, exp/log/reciprocal as weighted
# convolutions, pow by the same square-and-multiply.  The kernel must agree
# with it on every coefficient and on the propagated order.

_REF_INF = 10**9
KERNEL_ORDER = 12

coefficient_strategy = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),  # Fraction(4, 2) has denominator 1
)


def _terms(tdeg_lo, tdeg_hi, max_size=6):
    return st.lists(
        st.tuples(coefficient_strategy, st.integers(tdeg_lo, tdeg_hi), st.integers(-3, 3)),
        max_size=max_size,
    )


def _ref_from_terms(terms, order):
    out = {}
    for c, td, sd in terms:
        if td <= order:
            p = out.setdefault(td, {})
            p[sd] = p.get(sd, Fraction(0)) + Fraction(c)
    return order, _ref_clean(out)


def _ref_clean(coeffs):
    out = {}
    for d, p in coeffs.items():
        p = {e: v for e, v in p.items() if v != 0}
        if p:
            out[d] = p
    return out


def _ref_poly_mul(p1, p2):
    out = {}
    for e1, v1 in p1.items():
        for e2, v2 in p2.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v != 0}


def _ref_poly_add(p1, p2, scale=Fraction(1)):
    out = dict(p1)
    for e, v in p2.items():
        out[e] = out.get(e, Fraction(0)) + scale * v
    return {e: v for e, v in out.items() if v != 0}


def _ref_mul(a, b):
    (oa, ca), (ob, cb) = a, b
    ma = min(ca) if ca else _REF_INF
    mb = min(cb) if cb else _REF_INF
    order = min(oa + mb, ob + ma, _REF_INF)
    out = {}
    for d1, p1 in ca.items():
        for d2, p2 in cb.items():
            if d1 + d2 <= order:
                out[d1 + d2] = _ref_poly_add(out.get(d1 + d2, {}), _ref_poly_mul(p1, p2))
    return order, _ref_clean(out)


def _ref_conv(a, b, n, weighted):
    acc = {}
    for k, ak in a.items():
        if 1 <= k <= n and (n - k) in b:
            acc = _ref_poly_add(acc, _ref_poly_mul(ak, b[n - k]), Fraction(k if weighted else 1))
    return acc


def _ref_shift(a, tdeg, sdeg, coeff):
    order, ca = a
    return order + tdeg, {d + tdeg: {e + sdeg: v * coeff for e, v in p.items()} for d, p in ca.items()}


def _ref_reciprocal(a):
    order, ca = a
    d0 = min(ca)
    (e0, c0), = ca[d0].items()
    g_order, g = _ref_shift(a, -d0, -e0, 1 / Fraction(c0))
    r = {0: {0: Fraction(1)}}
    for n in range(1, g_order + 1):
        c = _ref_poly_add({}, _ref_conv(g, r, n, weighted=False), Fraction(-1))
        if c:
            r[n] = c
    return _ref_shift((g_order, r), -d0, -e0, 1 / Fraction(c0))


def _ref_log(a):
    order, f = a
    g = {}
    for n in range(1, order + 1):
        c = _ref_poly_add(f.get(n, {}), _ref_conv(g, f, n, weighted=True), Fraction(-1, n))
        if c:
            g[n] = c
    return order, g


def _ref_exp(a):
    order, g = a
    f = {0: {0: Fraction(1)}}
    for n in range(1, order + 1):
        c = _ref_poly_add({}, _ref_conv(g, f, n, weighted=True), Fraction(1, n))
        if c:
            f[n] = c
    return order, f


def _ref_pow(a, n):
    if n == 0:
        return a[0], {0: {0: Fraction(1)}}
    base = a if n > 0 else _ref_reciprocal(a)
    n = abs(n)
    out = None
    while n:
        if n & 1:
            out = base if out is None else _ref_mul(out, base)
        n >>= 1
        if n:
            base = _ref_mul(base, base)
    return out


def assert_canonical(x):
    """The storage invariant: an integral coefficient is an int, never a Fraction."""
    for p in x.coeffs.values():
        for v in p.c.values():
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


def assert_matches(x, ref):
    assert_canonical(x)
    order, coeffs = ref
    assert x.order == order
    assert {d: dict(p.c) for d, p in x.coeffs.items()} == coeffs


def _with_ref(terms_strategy, prefix=()):
    return terms_strategy.map(
        lambda terms: (
            TruncatedSeries.from_terms(list(prefix) + terms, order=KERNEL_ORDER),
            _ref_from_terms(list(prefix) + terms, KERNEL_ORDER),
        )
    )


laurent_pair = _with_ref(_terms(-3, KERNEL_ORDER))
positive_pair = _with_ref(_terms(1, KERNEL_ORDER))
unit_constant_pair = _with_ref(_terms(1, KERNEL_ORDER), prefix=[(1, 0, 0)])
monomial_lead_pair = st.tuples(
    coefficient_strategy.filter(lambda c: c != 0), st.integers(-3, 3), st.integers(-3, 3), _terms(0, 8)
).map(
    lambda x: (
        TruncatedSeries.from_terms([(x[0], x[1], x[2])] + [(c, x[1] + 1 + k, e) for c, k, e in x[3]], order=KERNEL_ORDER),
        _ref_from_terms([(x[0], x[1], x[2])] + [(c, x[1] + 1 + k, e) for c, k, e in x[3]], KERNEL_ORDER),
    )
)


@settings(max_examples=60, deadline=None)
@given(laurent_pair, laurent_pair)
def test_kernel_mul_matches_fraction_reference(a, b):
    assert_canonical(a[0])
    assert_matches(a[0] * b[0], _ref_mul(a[1], b[1]))


@settings(max_examples=40, deadline=None)
@given(positive_pair)
def test_kernel_exp_matches_fraction_reference(a):
    assert_matches(a[0].exp(), _ref_exp(a[1]))


@settings(max_examples=40, deadline=None)
@given(unit_constant_pair)
def test_kernel_log_matches_fraction_reference(a):
    assert_matches(a[0].log(), _ref_log(a[1]))


@settings(max_examples=40, deadline=None)
@given(monomial_lead_pair)
def test_kernel_reciprocal_matches_fraction_reference(a):
    assert_matches(a[0].reciprocal(), _ref_reciprocal(a[1]))


@settings(max_examples=30, deadline=None)
@given(monomial_lead_pair, st.integers(-2, 3))
def test_kernel_pow_matches_fraction_reference(a, n):
    assert_matches(a[0].pow(n), _ref_pow(a[1], n))


# rational formulas N(q, w^2) / D(q, w^2) with integer Laurent polynomials N
# and D, q**a w^(2b) = s^b t^(4a+2b) for a, b in [-1, 1] x [-2, 2], and a
# monomial lowest term in D; every t-degree lies in [-8, 8], so a reference
# denominator through t^(24 + 3*8) leaves num/den exact through t^24
_RATIO_MAX_ORDER = 24
_RATIO_REF_DEN_ORDER = _RATIO_MAX_ORDER + 3 * 8

_laurent_term = st.tuples(st.integers(-9, 9).filter(bool), st.integers(-1, 1), st.integers(-2, 2))
_denominator = st.tuples(
    _laurent_term,
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(0, 1), st.integers(-2, 2)).filter(lambda x: 2 * x[1] + x[2] > 0),
        max_size=3,
    ),
).map(lambda x: [x[0]] + [(c, x[0][1] + da, x[0][2] + db) for c, da, db in x[1]])


def _formula_poly(q, w2, terms):
    out = 0
    for c, a, b in terms:
        m = q**a * w2**b
        out = out + c * m if c > 0 else out - (-c) * m
    return out


def _ref_laurent(terms, order):
    return _ref_from_terms([(c, 4 * a + 2 * b, b) for c, a, b in terms], order)


@settings(max_examples=40, deadline=None)
@given(st.lists(_laurent_term, max_size=4), _denominator, st.integers(-4, _RATIO_MAX_ORDER))
def test_rational_series_matches_fraction_reference(num, den, order):
    # -(-N / D) runs + - * / ** and unary minus on the exact pairs
    negated = [(-c, a, b) for c, a, b in num]
    x = rational_series(lambda q, w2: -(_formula_poly(q, w2, negated) / _formula_poly(q, w2, den)), order)
    ref_order, ref = _ref_mul(_ref_laurent(num, _REF_INF), _ref_reciprocal(_ref_laurent(den, _RATIO_REF_DEN_ORDER)))
    assert ref_order >= order
    assert_matches(x, (order, {d: p for d, p in ref.items() if d <= order}))


@settings(max_examples=30, deadline=None)
@given(
    laurent_pair,
    st.integers(-3, 3),
    st.integers(-3, 3),
    coefficient_strategy.filter(lambda c: c != 0),
    st.lists(st.tuples(coefficient_strategy, st.integers(1, 6), st.integers(-2, 2)), max_size=3),
)
def test_shift_and_lambert_store_integral_values_as_int(a, tdeg, sdeg, coeff, numer):
    assert_matches(a[0].shift(tdeg, sdeg, coeff), _ref_shift(a[1], tdeg, sdeg, Fraction(coeff)))
    assert_canonical(lambert_sum(numer, 4, 1, KERNEL_ORDER))
    assert_canonical(lambert_sum(numer, 8, -1, KERNEL_ORDER))
