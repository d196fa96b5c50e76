"""Acceptance gates (see README), one test or test pair per criterion.

Each criterion prints a single PASS line on success.  Three historically
targeted sub-claims are mathematically unattainable and are kept as strict
expected failures documenting the true behaviour, with their attainable
content asserted in companion tests:

  - criterion 5 at (q, s) = (0.3, 0.5): the point lies outside the
    physical strip (w^2 = 0.274 < q = 0.3); at the strip edge w^2 = q the
    anisotropy weight vanishes and a frozen branch crosses the continued
    one, so "dominant eigenvalue" fails there while exact spectrum
    membership and the two-representation identity hold;
  - criterion 6 at q = 0.2: the self-dual correlation length (~exp(pi^2 /
    (2 lam)) ~ 460) makes width-12 strips effectively critical, so the
    deviation is ~0.48/N^2 = 2.8e-3 rather than exponentially small; the
    exponential regime (and the 1e-6 threshold) is reached at q = 0.02;
  - the corner asymptote ratio at eps = 0.02 is exactly 0.9141, deviation
    (5/2)ln(2) * 8 eps/pi + O(eps^2) = 8.8%; the 5% window opens only for
    eps <= ~0.0113.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    SixVertexWeights,
    _apply_t1,
    _apply_t2,
    dominant_eigenvalue,
    double_row_matrix,
    eval_s,
    f_bulk_series_coupling,
    f_surface_v_series_log,
    fk_partition,
    potts_bruteforce,
    power_law_limit,
    sector_states,
    sixvertex_partition,
    transfer_inversion_defects,
)
from potts_sd import bethe, closedform as cf, relations
from potts_sd.lattice import LatticeSpec, extract_free_energies, extraction_table
from potts_sd.params import SpectralParams, _xi, couplings, inversion_image, solve_q_from_Q
from potts_sd.qseries import LaurentPolyS, TruncatedSeries

GATE_ORDER = 16


def report(num, text):
    print(f"\nACCEPTANCE {num:02d}: PASS  ({text})")


# -- 1: three-oracle equivalence ---------------------------------------------

def test_criterion_01_three_oracle_equivalence():
    t0 = time.time()
    lattices = [(1, 2), (2, 2), (2, 3), (3, 3)]
    couplings_list = [(2, 0.5, 0.7), (3, 1.0, 0.3), (5, 0.7, 0.7)]
    for Q, K1, K2 in couplings_list:
        # exact rational inputs shared by both enumeration oracles
        eK1 = Fraction(math.exp(K1))
        eK2 = Fraction(math.exp(K2))
        w6 = SixVertexWeights.from_couplings(Q, float(eK1), float(eK2))
        for (M, N) in lattices:
            spec = LatticeSpec(M, N)
            zb = potts_bruteforce(spec, Q, eK1=eK1, eK2=eK2)
            zf = fk_partition(spec, Fraction(Q), eK1 - 1, eK2 - 1)
            assert zb == zf, (Q, M, N)  # exact Fraction equality
            z6 = sixvertex_partition(spec, w6)
            val = Q ** (M * N / 2) * z6
            assert abs(val - float(zb)) <= 1e-12 * float(zb), (Q, M, N)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"12 lattices x 3 couplings, exact + 1e-12, {elapsed:.1f}s")


# -- 2-4: the finite-lattice series programme --------------------------------

@pytest.fixture(scope="module")
def gate_bundle(gate_logz_table):
    return extract_free_energies(gate_logz_table, GATE_ORDER)


def test_criterion_02_series_reproduction(gate_bundle):
    t0 = time.time()
    assert gate_bundle.f_b == f_bulk_series_coupling(GATE_ORDER)
    assert gate_bundle.f_b == cf.f_bulk_series(GATE_ORDER)
    assert gate_bundle.f_s == f_surface_v_series_log(GATE_ORDER)
    assert gate_bundle.f_s == cf.f_surface_v_series(GATE_ORDER)
    assert gate_bundle.f_sp == cf.f_surface_h_series(GATE_ORDER)
    assert gate_bundle.f_c == cf.f_corner_series(GATE_ORDER)
    report(2, f"lattice == closed forms exactly through t^{GATE_ORDER}, checked in {time.time()-t0:.1f}s")


@pytest.mark.slow
def test_criterion_02_nightly_long_run():
    """The long-run order (t^36 = q^9 by default; see README for the
    width/runtime scaling of the row-transfer method at high orders)."""
    import os

    order = int(os.environ.get("POTTS_SD_NIGHTLY_ORDER", "36"))
    bundle = extract_free_energies(extraction_table(order), order)
    assert bundle.f_b == cf.f_bulk_series(order)
    assert bundle.f_s == cf.f_surface_v_series(order)
    assert bundle.f_sp == cf.f_surface_h_series(order)
    assert bundle.f_c == cf.f_corner_series(order)


def test_criterion_03_corner_properties(gate_bundle):
    fc = gate_bundle.f_c
    assert fc.s_free()
    assert fc == cf.f_corner_series(GATE_ORDER)
    # independent expansion oracle for the first two coefficients:
    # n=1 gives -(q + 4q^2 + q^3)(1 + q^4 + ...), n=2 gives -(q^2 + ...)/2
    assert fc.coeff(4) == LaurentPolyS.const(-1)
    assert fc.coeff(8) == LaurentPolyS.const(Fraction(-9, 2))
    report(3, "f_c s-free; coefficients -1 and -9/2 confirmed")


def test_criterion_04_isotropic_agreement(gate_bundle):
    assert eval_s(gate_bundle.f_b.series, 1) == cf.f_bulk_isotropic_series(GATE_ORDER).series
    assert eval_s(gate_bundle.f_s, 1) == cf.f_surface_isotropic_series(GATE_ORDER)
    report(4, "s=1 series equal the isotropic product expansions exactly")


# -- 5: root solver vs diagonalization ----------------------------------------

IN_STRIP_POINTS = [(0.2, 1.0), (0.2, 2.0)]
OFF_STRIP_POINT = (0.3, 0.5)


def test_criterion_05_bethe_vs_diagonalization():
    t0 = time.time()
    for (q, s) in IN_STRIP_POINTS:
        w = math.sqrt(s * math.sqrt(q))
        for N in (2, 3, 4):
            br = bethe.solve(N, q, w)
            lam2, lam2b = bethe.eigenvalue(br, q, w)
            assert abs(lam2 - lam2b) <= 1e-12 * abs(lam2)
            mat, _ = double_row_matrix(N, q, w)
            dom = dominant_eigenvalue(mat)
            assert abs(lam2.real - dom) <= 1e-10 * abs(dom), (q, s, N)
    # off-strip point: the two-representation identity still holds at 1e-12
    # and the continued eigenvalue remains in the spectrum at 1e-10
    q, s = OFF_STRIP_POINT
    w = math.sqrt(s * math.sqrt(q))
    for N in (2, 3, 4):
        br = bethe.solve(N, q, w)
        lam2, lam2b = bethe.eigenvalue(br, q, w)
        assert abs(lam2 - lam2b) <= 1e-12 * abs(lam2)
        mat, _ = double_row_matrix(N, q, w)
        vals = np.linalg.eigvals(mat)
        assert np.min(np.abs(vals - lam2)) <= 1e-10 * abs(lam2)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, f"in-strip dominant 1e-10; off-strip membership; two forms 1e-12; {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason="(0.3, 0.5) lies outside the physical strip (w^2 < q); a frozen branch is dominant there")
def test_criterion_05_off_strip_point_as_stated():
    q, s = OFF_STRIP_POINT
    w = math.sqrt(s * math.sqrt(q))
    for N in (2, 3, 4):
        br = bethe.solve(N, q, w)
        lam2, _ = bethe.eigenvalue(br, q, w)
        mat, _ = double_row_matrix(N, q, w)
        dom = dominant_eigenvalue(mat)
        assert abs(lam2.real - dom) <= 1e-10 * abs(dom)


# -- 6: surface convergence ----------------------------------------------------

def test_criterion_06_surface_convergence_attainable():
    # exponential regime (q = 0.02): the stated thresholds hold
    q = 0.02
    for s in (1.0, 2.0):
        w = math.sqrt(s * math.sqrt(q))
        tab = bethe.surface_convergence(12, q, w)
        devs = [abs(r.deviation) for r in tab.rows]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert tab.decay_rate <= 0.5  # geometric
        assert devs[-1] <= 1e-6, (s, devs[-1])
    # effectively-critical regime (q = 0.2): 1/N^2 law, extrapolation wins
    tab = bethe.surface_convergence(12, 0.2, math.sqrt(math.sqrt(0.2)))
    devs = [abs(r.deviation) for r in tab.rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert 0.3 < devs[-1] * 144 < 0.6  # ~0.48/N^2
    assert abs(power_law_limit(tab.rows) - tab.f_s_closed) <= 2e-4
    report(6, "geometric + 1e-6 at q=0.02 (s=1,2); 1/N^2 law and extrapolation at q=0.2")


@pytest.mark.xfail(strict=True, reason="at q=0.2 the correlation length exceeds the width; corrections are ~0.48/N^2 = 2.8e-3, not exponentially small")
def test_criterion_06_as_stated():
    for s in (1.0, 2.0):
        w = math.sqrt(s * math.sqrt(0.2))
        tab = bethe.surface_convergence(12, 0.2, w)
        assert abs(tab.rows[-1].deviation) <= 1e-6, (s, tab.rows[-1].deviation)


# -- 7: identity suite ----------------------------------------------------------

def test_criterion_07_identity_suite():
    for r in relations.verify_free_energy_relations_series(20):
        assert r.passed, r.identity
    for r in relations.verify_free_energy_relations_numeric():
        assert r.passed and r.max_defect <= 1e-11, (r.identity, r.max_defect)
    # the matrix identities' scalar parents, exactly in (q, w^2) ...
    for r in (relations.verify_matrix_inversion(), relations.verify_VV()):
        assert r.passed and r.ring == "exact", r.identity
    # ... and the dense T1, T2 and V products at self-dual points with integer
    # Q, with the couplings at lam - u taken from the point's inversion image
    for Q in (5, 6, 7):
        sp = relations._sp_from(solve_q_from_Q(Q), 0.3)
        d = transfer_inversion_defects(3, Q, couplings(sp), couplings(inversion_image(sp)), _xi(sp.q, sp.w2))
        assert max(d.values()) <= 1e-11, (Q, d)
    report(7, "6 relations exact-series + 1e-11 numeric; coupling maps exact; dense T1, T2, V at Q = 5, 6, 7 to 1e-11")


# -- 8: inversion-derived coefficients ------------------------------------------

def test_criterion_08_inversion_coefficients():
    der = cf.derive_from_inversion(order=20, n_max=9)
    for n in range(1, 10):
        T = der.cb[n].order
        one = TruncatedSeries.one(T)
        qn = TruncatedSeries.term(1, 4 * n, 0, order=T)
        assert der.cb[n] == qn * (one - qn) * (one + qn).reciprocal() * Fraction(1, n)
        T = der.cs[n].order
        one = TruncatedSeries.one(T)
        qn = TruncatedSeries.term(1, 4 * n, 0, order=T)
        q2n = TruncatedSeries.term(1, 8 * n, 0, order=T)
        assert der.cs[n] == qn * (one + qn) * (one + q2n).reciprocal() * Fraction(1, n)
        assert der.ds[n] == -qn.pow(3) * (one + qn) * (one + q2n).reciprocal() * Fraction(1, n)
    assert der.bundle.f_c.is_zero()  # every n > 0 corner coefficient vanishes
    assert der.corner_constant is cf.UNDETERMINED
    assert der.bundle.f_b == cf.f_bulk_series(20)
    assert der.bundle.f_s == cf.f_surface_v_series(20)
    report(8, "printed coefficient values reproduced exactly for n <= 9; corner constant undetermined")


# -- 9: critical-region checks ---------------------------------------------------

def test_criterion_09_critical_checks():
    t0 = time.time()
    for eps in (0.8, 0.9, 1.0):
        rep = cf.conjugate_modulus_report(eps, prec_bits=256)
        assert all(v <= 1e-12 for v in rep.values()), (eps, rep)
    ratios = [cf.fc_asymptote(e)[1] for e in (0.05, 0.03, 0.02)]
    assert ratios[0] < ratios[1] < ratios[2] < 1  # monotone approach
    _, r011 = cf.fc_asymptote(0.011)
    assert abs(r011 - 1) <= 0.05
    slope, expected = cf.singular_decay_fit()
    assert abs(slope - expected) <= 0.05 * abs(expected)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(9, f"modular identities 1e-12 at 256 bits; decay slope within 5%; {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason="exact asymptote ratio at eps=0.02 is 0.9141, 8.6% off; 5% agreement needs eps <= ~0.0113")
def test_criterion_09_asymptote_ratio_as_stated():
    _, ratio = cf.fc_asymptote(0.02)
    assert abs(ratio - 1) <= 0.05


# -- 10: seeded property suites ---------------------------------------------------

def _random_series(rng, order=16):
    terms = [
        (int(rng.integers(-9, 10)), int(rng.integers(0, order + 1)), int(rng.integers(-3, 4)))
        for _ in range(int(rng.integers(1, 6)))
    ]
    return TruncatedSeries.from_terms(terms, order=order)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(20160704)
    # ring laws and exp/log inversion to order >= 20
    for _ in range(25):
        a, b, c = (_random_series(rng, 20) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).subst_s_inv() == a.subst_s_inv() * b.subst_s_inv()
    for _ in range(10):
        a = _random_series(rng, 20).shift(1)  # strictly positive degrees
        a = a.truncate(20)
        assert ((TruncatedSeries.one(20) + a).log()).exp() == TruncatedSeries.one(20) + a
    # two-representation identity on random (non-solution) root sets
    for _ in range(20):
        N = int(rng.integers(1, 6))
        z = rng.uniform(-1, 1, N) + 1j * rng.uniform(0.2, 1.5, N)
        q, w = float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.3, 0.8))
        va, vb = bethe.eigenvalue(z, q, w)
        assert abs(va - vb) <= 1e-11 * abs(va)
    # solved-root invariants at a random in-strip point
    q = float(rng.uniform(0.1, 0.3))
    s = float(rng.uniform(0.8, 1.5))
    br = bethe.solve(4, q, math.sqrt(s * math.sqrt(q)))
    assert br.residual <= 1e-12
    assert np.all(br.roots.imag > 1e-8)
    # down-arrow conservation on random sector states
    for _ in range(10):
        N = int(rng.integers(2, 5))
        sp = SpectralParams.from_q_s(float(rng.uniform(0.05, 0.35)), float(rng.uniform(0.7, 1.4)))
        weights = SixVertexWeights.from_spectral(sp)
        states = sector_states(N)
        s0 = int(states[int(rng.integers(len(states)))])
        for apply, w in ((_apply_t1, weights.w_odd), (_apply_t2, weights.w_even)):
            out = apply({s0: 1.0}, N, w)
            assert all(bin(x).count("1") == N for x in out)
    report(10, "seeded property suites: ring laws, exp/log, s<->1/s, root identities, conservation")
