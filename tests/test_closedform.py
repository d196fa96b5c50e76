"""Closed-form free energies: representations, series, recursions, criticals."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import oracles
from potts_sd import closedform as cf
from potts_sd.errors import ConvergenceError, DomainError, TruncationError
from potts_sd.params import SpectralParams, _Q, _delta, _exp_K2, _xi, couplings
from potts_sd.relations import _sp_from, default_grid
from potts_sd.qseries import LaurentPolyS, TruncatedSeries, lambert_families, log_product

POINTS = [(0.2, 1.0), (0.15, 1.7), (0.3, 0.8), (0.25, 0.6)]


@pytest.mark.parametrize("q,s", POINTS)
def test_bulk_two_representations(q, s):
    sp = SpectralParams.from_q_s(q, s)
    a, b = cf.f_bulk(sp), cf.f_bulk(sp, form="coupling")
    assert b == pytest.approx(a, rel=1e-13)


@pytest.mark.parametrize("q,s", POINTS)
def test_surface_two_representations(q, s):
    sp = SpectralParams.from_q_s(q, s)
    a, b = cf.f_surface_v(sp), cf.f_surface_v(sp, form="log")
    assert b == pytest.approx(a, rel=1e-13, abs=1e-15)


def test_corner_two_representations():
    a, b = cf.f_corner(0.3), cf._corner_log(0.3, 1e-19, "q = 0.3")
    assert b == pytest.approx(a, rel=1e-13)


def test_corner_product_stops_at_the_float_range():
    # near q = 1 the float products of exp(f_c) shrink towards the float range:
    # inside it the product form matches the sum, beyond it (q > 0.9994) it is
    # refused instead of returning a value that lost its digits
    assert cf._corner_log(0.999, 1e-19, "q = 0.999") == pytest.approx(cf.f_corner(0.999), rel=1e-12)
    with pytest.raises(DomainError, match="below the smallest float"):
        cf._corner_log(0.9995, 1e-19, "q = 0.9995")


def test_surface_vanishes_at_w2_equals_q():
    # termwise zero of the sum at the strip edge (evaluated just inside)
    sp = SpectralParams(0.2, math.sqrt(0.2) * (1 + 1e-9))
    assert abs(cf.f_surface_v(sp)) < 1e-7


def test_surface_h_diverges_logarithmically_at_w2_equals_q():
    # at w^2 = q the summand is (1-q^n)(1-q^{2n})/(n(1+q^{2n})) ~ 1/n, so
    # f_sp -> +inf (exp(-f_sp) has a simple zero there); partial sums grow
    # by ln 2 per doubling
    q = 0.2
    term = lambda n: (1 - q**n) * (1 - q ** (2 * n)) / (n * (1 + q ** (2 * n)))
    s1000 = sum(term(n) for n in range(1, 1001))
    s2000 = sum(term(n) for n in range(1, 2001))
    assert s2000 - s1000 == pytest.approx(math.log(2), rel=1e-3)
    with pytest.raises(DomainError):
        cf.f_surface_h(SpectralParams(q, math.sqrt(q)))


def test_sum_refuses_past_max_terms():
    # a ratio within 1e-9 of 1 needs more than _MAX_TERMS terms to meet the tail bound
    sp = SpectralParams(0.2, math.sqrt(0.2 * (1 + 1e-9)))
    with pytest.raises(ConvergenceError, match="tail bound"):
        cf.f_surface_h(sp)


def test_rotation_exchanges_surfaces_numeric():
    sp = SpectralParams.from_q_s(0.2, 1.4)
    rot = SpectralParams.from_q_s(0.2, 1 / 1.4)
    assert cf.f_surface_h(sp) == pytest.approx(cf.f_surface_v(rot), rel=1e-13)
    assert cf.f_bulk(sp) == pytest.approx(cf.f_bulk(rot), rel=1e-13)


@pytest.mark.parametrize("q,s", POINTS)
def test_product_continuations_equal_the_sums(q, s):
    # in the physical strip the continued products give exp(-f) of the certified sums
    sp = SpectralParams.from_q_s(q, s)
    w2, cp = sp.w2, couplings(sp)
    exp_bulk = cp.eK1 * cp.eK2 * (1 + q) / cf._exp_lambert(cf.BULK_COUPLING_LAMBERT, q, w2)
    assert exp_bulk == pytest.approx(math.exp(-cf.f_bulk(sp)), rel=1e-13)
    exp_surface_v = cf._exp_lambert(cf.SURFACE_LOG_LAMBERT, q, w2) / cf._surface_prefactor(q, w2)
    assert exp_surface_v == pytest.approx(math.exp(-cf.f_surface_v(sp)), rel=1e-13)
    exp_surface_h = 1 / cf._exp_lambert(cf.SURFACE_H_LAMBERT, q, w2)
    assert exp_surface_h == pytest.approx(math.exp(-cf.f_surface_h(sp)), rel=1e-13)
    # below the strip, q^2 < w^2 < q (the inversion image among them), exp(-f_sp) is negative
    for w2_below in (q * q / w2, q * q + 0.01 * (q - q * q), (q * q + q) / 2, q - 0.01 * (q - q * q)):
        assert cf._exp_lambert(cf.SURFACE_H_LAMBERT, q, w2_below) < 0, w2_below


def test_continuations_match_the_typed_products():
    # the products read off the Lambert lists against the hand-typed symbols,
    # at the verify grid and the grid's lam - u images
    for q, f in default_grid():
        w2 = _sp_from(q, f).w2
        for x in (w2, q * q / w2):
            for name, typed in oracles.TYPED_EXP_LAMBERT.items():
                got = cf._exp_lambert(getattr(cf, name), q, x)
                assert got == pytest.approx(typed(q, x), rel=1e-14), (name, q, x)


def test_corner_product_matches_the_typed_symbols():
    # bit for bit at the verify grid's q, at q = 0.01 .. 0.99 and in mpmath; a
    # random float q can differ in the last bit (7 in 20000 on glibc), where
    # the symbol q**2.0 (C pow) rounds apart from the typed q*q
    for q in [q for q, _ in default_grid()] + [k / 100 for k in range(1, 100)] + [0.999]:
        assert cf._corner_log(q, 1e-19, "") == oracles.typed_corner_log(q, 1e-19, ""), q
    rng = random.Random(20161)
    for q in (rng.uniform(0.001, 0.999) for _ in range(2000)):
        assert cf._corner_log(q, 1e-19, "") == pytest.approx(oracles.typed_corner_log(q, 1e-19, ""), rel=1e-15), q
    for eps in (0.005, 0.011, 0.02, 0.05, 0.1, 0.5, 1.0, 2.0):
        with mpmath.workprec(128):
            qm = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(eps))
            typed = float(oracles.typed_corner_log(qm, mpmath.mpf(10) ** -40, ""))
        assert cf.fc_asymptote(eps)[0] == typed, eps


def test_isotropic_equals_general_at_s1():
    q = 0.22
    sp = SpectralParams.from_q_s(q, 1.0)
    assert cf.f_bulk(sp) == pytest.approx(cf.f_bulk_isotropic_sum(q), rel=1e-13)
    assert cf.f_bulk(sp) == pytest.approx(cf.f_bulk_isotropic_product(q), rel=1e-13)
    assert cf.f_surface_v(sp) == pytest.approx(cf.f_surface_isotropic_sum(q), rel=1e-13)
    assert cf.f_surface_v(sp) == pytest.approx(cf.f_surface_isotropic_product(q), rel=1e-13)
    assert cf.f_surface_v(sp) == pytest.approx(cf.f_surface_h(sp), rel=1e-13)


def test_sums_match_the_recorded_eval_rows():
    # the 300 eval rows recorded for the benchmark pin the float sums, and so
    # the tail bound each sum derives from its Lambert list
    path = Path(__file__).parents[1] / "perfbench" / "eval_reference.json"
    for point in json.loads(path.read_text())["points"]:
        row = point["row"]
        sp = SpectralParams(row["q"], row["w"])
        got = {"f_b": cf.f_bulk(sp), "f_s": cf.f_surface_v(sp), "f_sp": cf.f_surface_h(sp), "f_c": cf.f_corner(sp.q)}
        for name, value in got.items():
            assert value == pytest.approx(row[name], rel=1e-13, abs=0), (point, name)


def test_convergence_domain_guard():
    with pytest.raises(DomainError):
        cf.f_bulk(SpectralParams(0.3, 0.5))  # q/w^2 > 1: bulk sum diverges
    with pytest.raises(DomainError):
        cf.f_corner(1.2)


def test_series_two_representations():
    for T in (12, 20):
        assert cf.f_bulk_series(T) == cf.f_bulk_series(T, form="coupling")
        assert cf.f_surface_v_series(T) == cf.f_surface_v_series(T, form="log")


def test_corner_list_is_vjs_product():
    # f_c has one list; VJ's product, typed in the oracles, is its families negated
    assert [(b, t0, tstep, -e) for b, t0, tstep, e in lambert_families(*cf.CORNER_LAMBERT)] == list(
        oracles.CORNER_PRODUCT
    )
    for T in range(1, 61):
        got = -log_product(oracles.CORNER_PRODUCT, T)
        assert got.to_json_dict() == cf.f_corner_series(T).to_json_dict(), T


def test_series_rotation_covariance():
    T = 16
    fb = cf.f_bulk_series(T).series
    assert fb.subst_s_inv() == fb
    assert cf.f_surface_v_series(T).subst_s_inv() == cf.f_surface_h_series(T)
    fc = cf.f_corner_series(T)
    assert fc.s_free() and fc.subst_s_inv() == fc


def test_series_match_numeric_values():
    T = 40
    q, s = 0.04, 1.3
    sp = SpectralParams.from_q_s(q, s)
    t = q**0.25
    fb = 4 * math.log(t) + float(cf.f_bulk_series(T).series.eval(t, s))
    assert fb == pytest.approx(cf.f_bulk(sp), abs=1e-12)
    assert float(cf.f_surface_v_series(T).eval(t, s)) == pytest.approx(cf.f_surface_v(sp), abs=1e-12)
    assert float(cf.f_surface_h_series(T).eval(t, s)) == pytest.approx(cf.f_surface_h(sp), abs=1e-12)
    assert float(cf.f_corner_series(T).eval(t, s)) == pytest.approx(cf.f_corner(q), abs=1e-12)


def test_corner_series_first_coefficients():
    fc = cf.f_corner_series(12)
    assert fc.coeff(4) == LaurentPolyS.const(-1)
    assert fc.coeff(8) == LaurentPolyS.const(Fraction(-9, 2))


def test_corner_vanishes_at_small_q():
    assert abs(cf.f_corner(1e-8)) < 1.1e-8


def test_vj_isotropic_series():
    T = 24
    assert oracles.eval_s(cf.f_bulk_series(T).series, 1) == cf.f_bulk_isotropic_series(T).series
    assert oracles.eval_s(cf.f_surface_v_series(T), 1) == cf.f_surface_isotropic_series(T)


def test_inversion_derivation_bulk_coefficients():
    der = cf.derive_from_inversion(order=18, n_max=9)
    for n in range(1, 10):
        T = der.cb[n].order
        one = TruncatedSeries.one(T)
        qn = TruncatedSeries.term(1, 4 * n, 0, order=T)
        assert der.cb[n] == qn * (one - qn) * (one + qn).reciprocal() * Fraction(1, n)
        assert der.db[n] == der.cb[n].shift(4 * n)


def test_inversion_derivation_surface_coefficients():
    der = cf.derive_from_inversion(order=18, n_max=9)
    for n in range(1, 10):
        T = der.cs[n].order
        one = TruncatedSeries.one(T)
        qn = TruncatedSeries.term(1, 4 * n, 0, order=T)
        q2n = TruncatedSeries.term(1, 8 * n, 0, order=T)
        expect_cs = qn * (one + qn) * (one + q2n).reciprocal() * Fraction(1, n)
        assert der.cs[n] == expect_cs
        assert der.ds[n] == -(qn.pow(3)) * (one + qn) * (one + q2n).reciprocal() * Fraction(1, n)


def test_inversion_derivation_reproduces_closed_forms():
    T = 20
    der = cf.derive_from_inversion(order=T)
    assert der.bundle.f_b == cf.f_bulk_series(T)
    assert der.bundle.f_s == cf.f_surface_v_series(T)
    assert der.bundle.f_sp == cf.f_surface_h_series(T)
    assert der.bundle.f_c.is_zero()
    assert der.corner_constant is cf.UNDETERMINED


def test_xi_series_consistency():
    # xi - e^{K2(u)} e^{K2(lam-u)} = Q - 1 as exact series
    T = 16
    offset = cf.rational_series(lambda q, w2: _exp_K2(q, w2) * _exp_K2(q, q * q / w2), T)
    lhs = cf.rational_series(_xi, T) - offset
    assert lhs == cf.rational_series(lambda q, w2: _Q(q), T) - 1


def test_xi_series_matches_numeric():
    T = 40
    q, s = 0.05, 1.2
    sp = SpectralParams.from_q_s(q, s)
    assert float(cf.rational_series(_xi, T).eval(q**0.25, s)) == pytest.approx(_xi(q, sp.w2), rel=1e-12)


def test_delta_series_matches_numeric():
    T = 40
    q, s = 0.05, 0.8
    sp = SpectralParams.from_q_s(q, s)
    assert float(cf.rational_series(_delta, T).eval(q**0.25, s)) == pytest.approx(_delta(q, sp.w2), rel=1e-12)


def test_rational_series_refuses_a_denominator_it_cannot_divide_by():
    with pytest.raises(TruncationError, match="zero"):
        cf.rational_series(lambda q, w2: w2 / (q - q), 16)
    # the t^0 coefficient of 1 + w^4/q is 1 + s^2, not a monomial in s
    with pytest.raises(TruncationError, match="monomial"):
        cf.rational_series(lambda q, w2: q / (1 + w2 * w2 / q), 16)


# -- critical region ----------------------------------------------------------

def test_conjugate_modulus_identities():
    for eps in (0.8, 0.9, 1.0):
        rep = cf.conjugate_modulus_report(eps, prec_bits=256)
        assert all(v <= 1e-12 for v in rep.values()), (eps, rep)


def test_euler_odd_split():
    rep = cf.conjugate_modulus_report(0.7)
    assert rep["euler_odd_split"] <= 1e-12


def test_conjugate_modulus_refuses_before_any_product(monkeypatch):
    # at eps = 3400 only P(q'^{1/4}) is too long; it is refused before the
    # shorter products (about 1e5 factors each) run
    finished = []
    qprod = cf._qprod

    def counting(*args):
        out = qprod(*args)
        finished.append(args[2])
        return out

    monkeypatch.setattr(cf, "_qprod", counting)
    with pytest.raises(DomainError, match="product factors"):
        cf.conjugate_modulus_report(3400)
    assert finished == []


def test_fc_asymptote_monotone_approach():
    r = [cf.fc_asymptote(e)[1] for e in (0.05, 0.03, 0.02)]
    assert r[0] < r[1] < r[2] < 1


def test_fc_asymptote_far_regime():
    _, ratio = cf.fc_asymptote(1.0)
    assert abs(ratio - 1) > 0.5  # asymptote inapplicable at large eps


def test_fc_asymptote_converged_regime():
    # the 5% agreement holds once eps <= ~0.011: the exact subleading
    # relative term is (5/2) ln 2 * 8 eps / pi ~ 4.41 eps
    _, ratio = cf.fc_asymptote(0.011)
    assert abs(ratio - 1) <= 0.05


def test_continuation_correction_decays_as_lam_shrinks():
    at_small_lam = cf.fs_continuation_check(0.4, 0.1)
    at_large_lam = cf.fs_continuation_check(0.8, 0.2)
    assert at_small_lam < at_large_lam  # suppression exp(-pi^2/(2 lam))


def test_singular_decay_rate():
    slope, expected = cf.singular_decay_fit()
    assert abs(slope - expected) <= 0.05 * abs(expected)


def test_isotropic_product_expansions_as_series():
    # bulk: q exp(-f_b) = (1+q)(1-q^{1/2})^{-2} prod_k [(1-q^{2k-1/2})/(1-q^{2k+1/2})]^4
    from potts_sd.qseries import TruncatedSeries, log_product

    T = 24
    one = TruncatedSeries.one(T)
    q = TruncatedSeries.term(1, 4, 0, order=T)
    half = TruncatedSeries.term(1, 2, 0, order=T)  # q^{1/2} = t^2
    prod_b = log_product([(0, 6, 8, 4), (0, 10, 8, -4)], T).exp()
    rhs_b = (one + q) * (one - half).reciprocal().pow(2) * prod_b
    assert (-cf.f_bulk_isotropic_series(T).series).exp() == rhs_b
    # surface: exp(-f_s) = (1-q^{1/2}) prod_k [(1-q^{4k-1/2})/(1-q^{4k-5/2})]^2
    prod_s = log_product([(0, 14, 16, 2), (0, 6, 16, -2)], T).exp()
    rhs_s = (one - half) * prod_s
    assert (-cf.f_surface_isotropic_series(T)).exp() == rhs_s
