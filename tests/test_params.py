"""Parameter conversions, scalar functions, and their cross-route checks."""

import math
from fractions import Fraction

import pytest

from oracles import RationalPoint, dual_couplings
from potts_sd.errors import DomainError, PoleError
from potts_sd.params import (
    SpectralParams,
    _check_pole,
    _delta,
    _xi,
    couplings,
    inversion_image,
    rotation_image,
    solve_q_from_Q,
)


def test_from_qw_round_trip():
    sp = SpectralParams(0.25, math.sqrt(0.5))
    assert sp.lam == pytest.approx(math.log(2), rel=1e-15)
    assert sp.u == pytest.approx(math.log(2) / 4, rel=1e-15)
    assert sp.s == pytest.approx(1.0, rel=1e-14)
    assert sp.t == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    # round trip through (lam, u)
    sp2 = SpectralParams(math.exp(-2 * sp.lam), math.exp(-2 * sp.u))
    assert sp2.q == pytest.approx(sp.q, rel=1e-15)
    assert sp2.w == pytest.approx(sp.w, rel=1e-15)


def test_Q_limit_at_q_to_one():
    assert SpectralParams(0.999999, 0.9999).Q == pytest.approx(4.0, abs=1e-9)


def test_Q_five_point():
    # independent oracle: q + 1/q = Q - 2 solved by the quadratic formula
    q = solve_q_from_Q(5.0)
    assert q == pytest.approx(0.3819660113, abs=1e-9)
    sp = SpectralParams.from_q_s(q, 1.0)
    assert sp.Q == pytest.approx(5.0, abs=1e-9)


def test_from_qw_domain_errors():
    with pytest.raises(DomainError):
        SpectralParams(1.5, 0.5)
    with pytest.raises(DomainError):
        SpectralParams(0.5, -0.1)
    with pytest.raises(DomainError):
        SpectralParams(0.0, 0.5)


def test_couplings_k1_vanishes_at_w2_near_q():
    # w^2 -> q is the K2 pole; just outside the guard K1 ~ 0
    q = 0.2
    sp = SpectralParams(q, math.sqrt(q * (1 + 1e-6)))
    cp = couplings(sp)
    assert abs(cp.K1) < 1e-5


def test_couplings_isotropic_symmetry():
    sp = SpectralParams.from_q_s(0.17, 1.0)
    cp = couplings(sp)
    assert cp.K1 == pytest.approx(cp.K2, rel=1e-12)


def test_couplings_two_routes_agree():
    # the hyperbolic forms are checked internally; a mismatch raises
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    lam, u = sp.lam, sp.u
    assert cp.eK1 == pytest.approx(math.sinh(2 * lam - 2 * u) / math.sinh(2 * u), rel=1e-12)
    assert cp.eK2 == pytest.approx(math.sinh(lam + 2 * u) / math.sinh(lam - 2 * u), rel=1e-12)


def test_couplings_pole_errors_are_named():
    with pytest.raises(PoleError) as e1:
        couplings(SpectralParams(0.2, 1.0 - 1e-12))
    assert "w2=1" in str(e1.value)
    with pytest.raises(PoleError) as e2:
        couplings(SpectralParams(0.2, math.sqrt(0.2) * (1 + 1e-12)))
    assert "w2=q" in str(e2.value)


def test_couplings_exact_inversion_identity():
    # e^{K1(u)} e^{K1(lam-u)} = 1 exactly in rational arithmetic
    q, w2 = Fraction(1, 5), Fraction(2, 5)
    eK1 = (w2 / q) * (1 - q * q / w2) / (1 - w2)
    w2i = q * q / w2
    eK1i = (w2i / q) * (1 - q * q / w2i) / (1 - w2i)
    assert eK1 * eK1i == 1


def test_dual_couplings_self_dual_point():
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    # bond-local dual: the self-dual point swaps the couplings
    K1s, K2s = dual_couplings(cp.K1, cp.K2, cp.Q, swap_rows=False)
    assert K1s == pytest.approx(cp.K2, rel=1e-12)
    assert K2s == pytest.approx(cp.K1, rel=1e-12)
    # row-interchange dual: the self-dual point is fixed
    K1r, K2r = dual_couplings(cp.K1, cp.K2, cp.Q)
    assert K1r == pytest.approx(cp.K1, rel=1e-12)
    assert K2r == pytest.approx(cp.K2, rel=1e-12)


def test_dual_couplings_strong_coupling_limit():
    K1s, _ = dual_couplings(1.0, 40.0, 5.0)
    assert K1s == pytest.approx(0.0, abs=1e-15)


def test_dual_couplings_involution():
    Q = 5.0
    K1s, K2s = dual_couplings(1.0, 1.0, Q)
    K1ss, K2ss = dual_couplings(K1s, K2s, Q)
    assert K1ss == pytest.approx(1.0, rel=1e-12)
    assert K2ss == pytest.approx(1.0, rel=1e-12)


def test_dual_couplings_domain():
    with pytest.raises(DomainError):
        dual_couplings(-0.5, 1.0, 5.0)


def xi(sp):
    return _xi(sp.q, sp.w2)


def delta(sp):
    return _delta(sp.q, sp.w2)


def test_xi_two_routes():
    sp = SpectralParams(0.2, math.exp(math.log(0.2) / 4))  # u = lam/4
    cp = couplings(sp)
    spi = inversion_image(sp)
    eK2i = (1 / spi.w2) * (1 - spi.q * spi.w2) / (1 - spi.q / spi.w2)
    assert xi(sp) == pytest.approx(cp.eK2 * eK2i + sp.Q - 1, rel=1e-12)


def test_xi_negative_and_symmetric():
    for ufrac in (0.01, 0.1, 0.25, 0.4, 0.49):
        sp = SpectralParams(0.2, 0.2 ** ufrac)  # w = q^{u/lam}
        assert xi(sp) < 0, ufrac
        assert xi(inversion_image(sp)) == pytest.approx(xi(sp), rel=1e-12)


def test_xi_vanishes_as_u_to_zero():
    sp = SpectralParams(0.2, 1 - 1e-6)  # u -> 0+ means w -> 1-
    assert -1e-4 < xi(sp) < 0


def test_xi_pole_guard():
    # xi's and Delta's pole, u = lam/2, is the K2 pole that ``couplings`` names
    sp = SpectralParams(0.2, math.sqrt(0.2))
    with pytest.raises(PoleError, match="w2=q"):
        couplings(sp)
    with pytest.raises(PoleError, match="u=lam/2"):
        _check_pole(sp.w2 * (1 + 1e-12), sp.q, "u=lam/2")
    _check_pole(sp.w2 * (1 + 1e-9), sp.q, "u=lam/2")  # outside POLE_RTOL: no error


def test_delta_at_u_zero_is_Q():
    sp = SpectralParams(0.2, 1 - 1e-13)  # w = 1 means e^{K2} = 1, Delta = Q
    assert delta(sp) == pytest.approx(sp.Q, rel=1e-9)


def test_delta_isotropic_and_generic():
    for (q, ufrac) in [(0.3, 0.25), (0.3, 0.1), (0.15, 0.35)]:
        lam = -math.log(q) / 2
        u = ufrac * lam
        sp = SpectralParams(math.exp(-2 * lam), math.exp(-2 * u))
        cp = couplings(sp)
        assert delta(sp) == pytest.approx(cp.eK2 + cp.Q - 1, rel=1e-12)
        hyperbolic = 2 * math.cosh(lam) * math.sinh(2 * lam - 2 * u) / math.sinh(lam - 2 * u)
        assert delta(sp) == pytest.approx(hyperbolic, rel=1e-12)


def test_rotation_fixes_isotropic_point():
    sp = SpectralParams.from_q_s(0.2, 1.0)
    rot = rotation_image(sp)
    assert rot.w == pytest.approx(sp.w, rel=1e-14)


def test_rotation_involution_and_coupling_swap():
    sp = SpectralParams(0.2, 0.6)
    rr = rotation_image(rotation_image(sp))
    assert rr.w == pytest.approx(sp.w, rel=1e-14)
    cp, cpr = couplings(sp), couplings(rotation_image(sp))
    assert cpr.K1 == pytest.approx(cp.K2, rel=1e-12)
    assert cpr.K2 == pytest.approx(cp.K1, rel=1e-12)


def test_inversion_image_numeric():
    q = 0.2
    lam = -math.log(q) / 2
    sp = SpectralParams(math.exp(-2 * lam), math.exp(-0.2 * lam))
    inv = inversion_image(sp)
    assert inv.u == pytest.approx(0.9 * lam, rel=1e-12)
    assert inv.w2 == pytest.approx(q * q / sp.w2, rel=1e-12)
    assert inv.s * sp.s == pytest.approx(q, rel=1e-12)  # s -> q/s
    # involution
    assert inversion_image(inv).w == pytest.approx(sp.w, rel=1e-13)


def test_inverted_couplings_negate_K1():
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    cpi = couplings(inversion_image(sp))
    assert cpi.eK1 * cp.eK1 == pytest.approx(1.0, rel=1e-12)
    # e^{K2(lam-u)} = 2 - Q - e^{K2(u)}
    assert cpi.eK2 == pytest.approx(2 - cp.Q - cp.eK2, rel=1e-12)
    with pytest.raises(DomainError):
        _ = cpi.K2  # negative Boltzmann factor has no real log


def test_physical_flag():
    assert SpectralParams.from_q_s(0.2, 1.0).physical
    assert not SpectralParams.from_q_s(0.3, 0.5).physical
    assert not SpectralParams(0.2, 0.2).physical


def test_rational_point():
    pt = RationalPoint(Fraction(1, 2), Fraction(9, 16))
    assert pt.q == Fraction(1, 16)
    assert pt.w2 == Fraction(9, 64)
    assert pt.sqrt_Q == Fraction(17, 4)
    assert pt.Q == pt.sqrt_Q**2  # (1+q)^2/q = q + 2 + 1/q exactly
    sp = pt.to_float()
    assert sp.q == pytest.approx(1 / 16)


def test_rational_point_validation():
    with pytest.raises(DomainError):
        RationalPoint(Fraction(3, 2), Fraction(1))
    with pytest.raises(DomainError):
        RationalPoint(Fraction(1, 2), Fraction(-1))
