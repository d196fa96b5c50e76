"""Partition-function oracles, the arrow-model contraction, and extraction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potts_sd import cli, closedform as cf, lattice
from potts_sd.errors import ConvergenceError, DomainError, ExtractionError, SizeGuardError
from oracles import (
    _TOP as oracle_top,
    RationalPoint,
    SixVertexWeights,
    _apply_t1,
    _apply_t2,
    _apply_vertex_poly as oracle_apply_vertex_poly,
    _t1_diagonal,
    dict_z_normalized,
    dominant_eigenvalue,
    double_row_matrix,
    fk_partition,
    fraction_extract_free_energies,
    fraction_series_logZ,
    max_eigenvalue,
    potts_bruteforce,
    potts_transfer_T2,
    potts_transfer_V,
    sector_states,
    sixvertex_equivalent_potts,
)
from potts_sd.lattice import (
    LatticeSpec,
    extract_free_energies,
    extraction_table,
    series_logZ,
)
from potts_sd.params import SpectralParams, _delta, couplings
from potts_sd.qseries import TruncatedSeries

GATE_ORDER = 16


def test_bruteforce_free_field():
    assert potts_bruteforce(LatticeSpec(2, 2), 3, 0.0, 0.0) == pytest.approx(81)


def test_bruteforce_two_sites():
    Q, K1 = 4, 0.7
    z = potts_bruteforce(LatticeSpec(1, 2), Q, K1, 0.3)
    assert z == pytest.approx(Q * math.exp(K1) + Q * (Q - 1), rel=1e-14)


def test_fk_trivial_cases():
    assert fk_partition(LatticeSpec(2, 2), 3, 0, 0) == 81
    Q, v1 = Fraction(7, 2), Fraction(2, 3)
    assert fk_partition(LatticeSpec(1, 2), Q, v1, 0) == Q * Q + Q * v1


def test_bruteforce_equals_fk_exactly():
    # exact rational inputs: identical Fractions from both oracles
    Q = 3
    eK1, eK2 = Fraction(7, 4), Fraction(5, 3)
    for spec in (LatticeSpec(1, 2), LatticeSpec(2, 2), LatticeSpec(2, 3)):
        zb = potts_bruteforce(spec, Q, eK1=eK1, eK2=eK2)
        zf = fk_partition(spec, Fraction(Q), eK1 - 1, eK2 - 1)
        assert zb == zf


def test_bruteforce_fk_cross_float():
    spec = LatticeSpec(2, 3)
    Q, K1, K2 = 5, 0.7, 0.3
    zb = potts_bruteforce(spec, Q, K1, K2)
    zf = fk_partition(spec, Q, math.exp(K1) - 1, math.exp(K2) - 1)
    assert zb == pytest.approx(zf, rel=1e-12)


def test_bruteforce_guard():
    with pytest.raises(SizeGuardError):
        potts_bruteforce(LatticeSpec(4, 4), 5, 0.1, 0.1)


def test_fk_guard():
    with pytest.raises(SizeGuardError):
        fk_partition(LatticeSpec(4, 5), 3, 0.5, 0.5)  # 31 edges > 24


def test_sixvertex_equivalence_smallest():
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    _, zp = sixvertex_equivalent_potts(LatticeSpec(1, 2), sp)
    zf = fk_partition(LatticeSpec(1, 2), cp.Q, cp.eK1 - 1, cp.eK2 - 1)
    assert zp == pytest.approx(zf, rel=1e-13)


@pytest.mark.parametrize("M,N", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_three_oracle_agreement(M, N):
    sp = SpectralParams(0.23, 0.62)
    cp = couplings(sp)
    spec = LatticeSpec(M, N)
    zf = fk_partition(spec, cp.Q, cp.eK1 - 1, cp.eK2 - 1)
    _, zp = sixvertex_equivalent_potts(spec, sp)
    assert zp == pytest.approx(zf, rel=1e-12)


def test_sixvertex_equivalence_exact_rational():
    pt = RationalPoint(Fraction(1, 2), Fraction(9, 16))
    x1 = (pt.s - pt.t**2) / (1 - pt.s * pt.t**2)
    v1, v2 = pt.sqrt_Q * x1, pt.sqrt_Q / x1
    for spec in (LatticeSpec(1, 2), LatticeSpec(2, 2), LatticeSpec(2, 3), LatticeSpec(3, 3)):
        zf = fk_partition(spec, pt.Q, v1, v2)
        _, zp = sixvertex_equivalent_potts(spec, pt)
        assert zp == zf  # exact equality of Fractions


def test_down_arrow_conservation_random_states():
    rng = np.random.default_rng(7)
    N = 4
    sp = SpectralParams(0.2, 0.6)
    weights = SixVertexWeights.from_spectral(sp)
    states = sector_states(N)
    for _ in range(20):
        s0 = int(rng.choice(states))
        for apply, w in ((_apply_t1, weights.w_odd), (_apply_t2, weights.w_even)):
            out = apply({s0: 1.0}, N, w)
            assert all(bin(s).count("1") == N for s in out)


def test_sector_preserved_under_full_contraction():
    # every state reached from the boundary has exactly N down arrows
    N = 3
    sp = SpectralParams(0.25, 0.65)
    weights = SixVertexWeights.from_spectral(sp)
    vec = {0: 1.0}
    for j in range(N):
        vec = {s | (1 << (2 * j)): a * weights.b_down for s, a in vec.items()} | {
            s | (1 << (2 * j + 1)): a * weights.b_up for s, a in vec.items()
        }
    for apply, w in ((_apply_t1, weights.w_odd), (_apply_t2, weights.w_even), (_apply_t1, weights.w_odd)):
        vec = apply(vec, N, w)
        assert all(bin(s).count("1") == N for s in vec)


def reference_z_normalized(spec, order):
    """The dict fold of a single rectangle, read once at height M."""
    return dict_z_normalized(spec, order)[-1]


@pytest.mark.parametrize("n", range(2, 6))
def test_sweep_heights_equal_single_rectangle_folds(n):
    # every height of the width-n sweep against its own fold from scratch;
    # the widths 2..5 cover every rectangle the t^16 gate table contracts
    sweep = lattice._series_z_normalized(LatticeSpec(GATE_ORDER // 2 + 3 - n, n), GATE_ORDER)
    assert len(sweep) == GATE_ORDER // 2 + 3 - n
    for m, raw in enumerate(sweep, 1):
        assert raw == reference_z_normalized(LatticeSpec(m, n), GATE_ORDER), (m, n)


@pytest.mark.parametrize("M, N", [(6, 6), (9, 5)])
def test_sweep_top_equals_single_rectangle_fold_at_t20(M, N):
    # every height, the top one being the single-rectangle fold
    assert lattice._series_z_normalized(LatticeSpec(M, N), 20) == dict_z_normalized(LatticeSpec(M, N), 20)


@pytest.mark.parametrize("order", [8, 12, 16])
def test_every_table_sweep_equals_the_dict_oracle(order):
    # the widths and heights ``extraction_table`` contracts at this order
    K = order // 2 + 2
    for n in range(2, max(2, (K + 1) // 2) + 1):
        spec = LatticeSpec(K + 1 - n, n)
        assert lattice._series_z_normalized(spec, order) == dict_z_normalized(spec, order), spec


@pytest.mark.slow
def test_widest_t24_sweep_equals_the_dict_oracle():
    assert lattice._series_z_normalized(LatticeSpec(7, 7), 24) == dict_z_normalized(LatticeSpec(7, 7), 24)


def test_top_sum_equals_the_top_row_fold():
    # a seeded vector on every sector state at N = 4, against the dict _TOP row
    N, order = 4, 12
    layout = lattice._key_layout(LatticeSpec(3, N), order)
    rng = np.random.default_rng(5)
    vec = {}
    for state in sector_states(N):
        tdegs, sdegs, cs = rng.integers(0, order + 1, 3), rng.integers(-3, 4, 3), rng.integers(-9, 10, 3)
        vec[state] = {(int(td), int(sd)): int(c) for td, sd, c in zip(tdegs, sdegs, cs) if c}
    shift = layout.tb + layout.sb
    terms = sorted(
        ((state << shift) | (td << layout.sb) | (sd + layout.offset), c)
        for state, p in vec.items()
        for (td, sd), c in p.items()
    )
    keys, coefs = (np.array(x, dtype=np.int64) for x in zip(*terms))
    folded = vec
    for j in range(N):
        folded = oracle_apply_vertex_poly(folded, 2 * j, 2 * j + 1, oracle_top, order)
    assert lattice._top_sum(keys, coefs, N, layout) == folded[sum(1 << (2 * j) for j in range(N))]


def test_kernel_refuses_keys_wider_than_int64(monkeypatch, capsys):
    # 100 columns need 200 state bits: refused before the first move
    moves = []
    monkeypatch.setattr(lattice, "_apply_move", lambda *a: moves.append(a))
    with pytest.raises(SizeGuardError):
        series_logZ(LatticeSpec(2, 100), 8)
    assert cli.main(["lattice", "--M", "2", "--N", "100", "--order", "8"]) == 1
    # the t^8 table's widest keys, 4x3, take 6 + 4 + 5 = 15 bits: with 14, no sweep starts
    monkeypatch.setattr(lattice, "_KEY_BITS", 14)
    assert cli.main(["lattice", "--order", "8", "--extract"]) == 1
    assert "15-bit keys" in capsys.readouterr().err
    assert moves == []


def test_kernel_refuses_a_coefficient_past_its_bound(monkeypatch, capsys):
    monkeypatch.setattr(lattice, "_COEFF_LIMIT", 4)
    assert cli.main(["lattice", "--order", "8", "--extract"]) == 3
    assert "packed int64 contraction kernel" in capsys.readouterr().err


def test_kernel_refuses_an_s_degree_at_the_end_of_its_field(monkeypatch, capsys):
    # a 2-bit s field leaves sdeg -1 and 0 inside its margins; s^1 arrives within the first row
    exact = lattice._key_layout
    monkeypatch.setattr(lattice, "_key_layout", lambda spec, order: exact(spec, order)._replace(sb=2, offset=2))
    assert cli.main(["lattice", "--order", "8", "--extract"]) == 3
    assert "s-degree reached the end of its key field" in capsys.readouterr().err


def test_series_logz_1x2_oracle():
    # log(q^2 Z_P) with Z_P = Q e^{K1} + Q(Q-1), expanded symbolically
    T = 16
    one = TruncatedSeries.one(T)
    term = lambda c, td, sd: TruncatedSeries.term(c, td, sd, order=T)
    sqrtQ = term(1, -2, 0) + term(1, 2, 0)
    Q = sqrtQ * sqrtQ
    x1 = (term(1, 0, 1) - term(1, 2, 0)) * (one - term(1, 2, 1)).reciprocal()
    q2 = term(1, 8, 0)
    zp = q2 * Q * sqrtQ * x1 + q2 * Q * Q
    assert zp.coeff(0) == 1
    assert series_logZ(LatticeSpec(1, 2), T) == [zp.log()]


def test_series_logz_transpose_covariance():
    T = 10
    a = series_logZ(LatticeSpec(3, 4), T)
    b = series_logZ(LatticeSpec(4, 3), T)
    assert a[-1].subst_s_inv() == b[-1]
    assert a[1].subst_s_inv() == series_logZ(LatticeSpec(4, 2), T)[-1]


def test_series_logz_logs_only_the_heights_read(monkeypatch, capsys):
    # the extraction table keeps (1, 2) and the cells m >= n of each sweep,
    # and ``lattice --M --N`` prints one height: only those are logged
    T = 10
    assert series_logZ(LatticeSpec(4, 3), T, [4, 2]) == [series_logZ(LatticeSpec(4, 3), T)[m - 1] for m in (4, 2)]
    logs = []
    log_numerators = TruncatedSeries.log_numerators  # the recursion every log runs
    monkeypatch.setattr(TruncatedSeries, "log_numerators", lambda self: logs.append(self.order) or log_numerators(self))
    extraction_table(16)
    assert logs == [16] * 21  # 9 + 6 + 4 + 2 heights of widths 2..5, not all 30
    logs.clear()
    assert cli.main(["lattice", "--M", "9", "--N", "9", "--order", "18"]) == 0
    assert logs == [18]


def exact_form(series):
    """The order and every coefficient with its type: equal forms are bit-identical series."""
    return series.order, {d: {e: (type(v), v) for e, v in p.c.items()} for d, p in series.coeffs.items()}


@pytest.mark.parametrize("M, N", [(4, 3), (9, 5), (9, 9)])
def test_series_logz_equals_the_fraction_oracle(monkeypatch, M, N):
    T = 18
    sweep = lattice._series_z_normalized(LatticeSpec(M, N), T)
    monkeypatch.setattr(lattice, "_series_z_normalized", lambda spec, order: sweep)  # one sweep for both sides
    expected = fraction_series_logZ(sweep, N, T)
    assert [exact_form(g) for g in series_logZ(LatticeSpec(M, N), T)] == [exact_form(g) for g in expected]


def test_series_logz_matches_numeric_evaluation():
    # evaluate the exact series at a small rational point and compare with
    # the float partition function
    T = 28
    pt = RationalPoint(Fraction(1, 5), Fraction(1, 1))
    spec = LatticeSpec(3, 3)
    s = series_logZ(spec, T)[-1]
    val = float(s.eval(pt.t, pt.s))
    _, zp = sixvertex_equivalent_potts(spec, pt)
    expected = math.log(float(pt.q) ** 9 * float(zp))
    assert val == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("M, N", [(m, n) for m in range(1, 4) for n in range(2, 5)])
def test_series_contraction_equals_exact_rational_oracle(M, N):
    # at its top degree the normalised contraction is an exact polynomial;
    # evaluate every height of one sweep at a rational point against the
    # generic six-vertex contraction
    spec = LatticeSpec(M, N)
    sweep = lattice._series_z_normalized(spec, 4 * (M * (N - 1) + N * (M - 1)) + 2 * (M + N))
    assert len(sweep) == M
    t, s = Fraction(1, 3), Fraction(2, 5)
    for m, raw in enumerate(sweep, 1):
        z6, _ = sixvertex_equivalent_potts(LatticeSpec(m, N), RationalPoint(t, s))
        expected = t ** (2 * m * N) * z6 * (1 - s * t * t) ** (m * (N - 1)) * (1 - t * t / s) ** (N * (m - 1))
        assert sum(c * t**td * s**sd for (td, sd), c in raw.items()) == expected, m


def rectangles(K):
    """Every (m, n) with m, n >= 1 and m + n <= K."""
    return {(m, n) for m in range(1, K) for n in range(1, K + 1 - m)}


def ansatz_table(order):
    """G(m, n) = -mn f_b - m f_s - n f'_s - f_c from the closed forms, on every
    rectangle the extraction reads at ``order``."""
    b = cf.series_bundle(order)
    return {
        (m, n): -(m * n) * b.f_b.series - m * b.f_s - n * b.f_sp - b.f_c
        for (m, n) in rectangles(order // 2 + 3)
    }


def cluster_term(table, m, n):
    """phi(m, n): the double second difference of G, with G = 0 off the quadrant."""
    c = (1, -2, 1)
    return sum(
        (c[i] * c[j] * table[(m - i, n - j)] for i in range(3) for j in range(3) if i < m and j < n),
        TruncatedSeries.zero(table[(m, n)].order),
    )


def test_extraction_synthetic_round_trip():
    # compose log Z from the closed-form bundle on every rectangle and
    # recover the bundle exactly
    T = 8
    bundle = extract_free_energies(ansatz_table(T), T)
    assert bundle.f_b == cf.f_bulk_series(T)
    assert bundle.f_s == cf.f_surface_v_series(T)
    assert bundle.f_sp == cf.f_surface_h_series(T)
    assert bundle.f_c == cf.f_corner_series(T)


@pytest.mark.parametrize("T", [*range(2, 21, 2), pytest.param(24, marks=pytest.mark.slow)])
def test_extraction_equals_the_fraction_oracle(T):
    def form(b):
        return b.f_b.logq_coeff, *(exact_form(s) for s in (b.f_b.series, b.f_s, b.f_sp, b.f_c)), b.route, b.meta

    table = extraction_table(T)
    assert form(extract_free_energies(table, T)) == form(fraction_extract_free_energies(table, T))


def test_extraction_reads_the_denominators_of_its_cells():
    # shifting f_c by t^4/11 shifts every G by -t^4/11 and keeps the spare
    # diagonal at zero; 11 divides no denominator of the t^8 closed forms
    T = 8
    delta = TruncatedSeries.term(Fraction(1, 11), 4, 0, order=T)
    bundle = extract_free_energies({mn: g - delta for mn, g in ansatz_table(T).items()}, T)
    assert bundle.f_c == cf.f_corner_series(T) + delta
    assert bundle.f_b == cf.f_bulk_series(T)
    assert bundle.f_s == cf.f_surface_v_series(T)
    assert bundle.f_sp == cf.f_surface_h_series(T)


def test_extraction_detects_nonstabilized_input():
    T = 8
    table = ansatz_table(T)
    # corrupt one spare-diagonal rectangle (m + n = T/2 + 3) at one order
    table[(4, 3)] = table[(4, 3)] + TruncatedSeries.term(1, 6, 0, order=T)
    with pytest.raises(ExtractionError) as e:
        extract_free_energies(table, T)
    assert e.value.first_failing_order == 6


def test_extraction_enforces_stabilization_bound():
    # the table must reach the spare diagonal m + n = T/2 + 3
    T = 8
    table = ansatz_table(T)
    extract_free_energies(table, T)
    del table[(5, 2)]
    with pytest.raises(DomainError):
        extract_free_energies(table, T)


def test_real_extraction_small_order():
    T = 8
    swept = []

    def recording_map(fn, specs):
        swept.extend(specs)
        return map(fn, specs)

    table = extraction_table(T, map=recording_map)
    assert set(table) == rectangles(7)
    # one sweep per width, reaching the spare diagonal m + n = T/2 + 3: no
    # contraction is wider than T/4 + 1 = 3
    assert swept == [LatticeSpec(5, 2), LatticeSpec(4, 3)]
    bundle = extract_free_energies(table, T)
    assert set(bundle.meta["rectangles"]) == rectangles(6)
    assert set(bundle.meta["spare_diagonal"]) == rectangles(7) - rectangles(6)
    assert bundle.f_b == cf.f_bulk_series(T)
    assert bundle.f_s == cf.f_surface_v_series(T)
    assert bundle.f_sp == cf.f_surface_h_series(T)
    assert bundle.f_c == cf.f_corner_series(T)


def test_extraction_detects_a_faulty_kernel_weight(monkeypatch):
    # hop right in T1 rows: s - t^4 instead of s - t^2
    monkeypatch.setitem(lattice._T1_GAUGED, "35", ((1, 0, 1), (-1, 4, 0)))
    with pytest.raises(ExtractionError) as e:
        extract_free_energies(extraction_table(8), 8)
    assert 0 < e.value.first_failing_order <= 8
    assert cli.main(["lattice", "--order", "8", "--extract"]) == 2


def test_builder_shortcuts_equal_direct_contractions():
    T = 12
    assert series_logZ(LatticeSpec(3, 5), T)[-1] == series_logZ(LatticeSpec(5, 3), T)[-1].subst_s_inv()
    table = extraction_table(T)
    for n in range(2, 9):
        assert table[(1, n)] == series_logZ(LatticeSpec(1, n), T)[-1]


def test_cluster_terms_on_the_gate_table(gate_logz_table):
    T = GATE_ORDER
    K = T // 2 + 2
    for m, n in rectangles(K + 1):
        phi = cluster_term(gate_logz_table, m, n)
        if m == 1 and n >= 3 or n == 1 and m >= 3:
            assert phi.is_zero(), (m, n)
        elif m >= 2 and n >= 2:
            assert phi.is_zero() or phi.min_deg >= 2 * (m + n) - 4, (m, n)


def test_t2_eigenvector_all_ones():
    # T2 |ones> = Delta^N |ones> with Delta = e^{K2} + Q - 1 for the
    # Q-state site matrix actually built
    N, Q = 3, 3
    eK2 = 1.7
    t2 = potts_transfer_T2(N, Q, eK2)
    ones = np.ones(Q**N)
    out = t2 @ ones
    assert np.allclose(out, (eK2 + Q - 1) ** N * ones, rtol=1e-12)
    # and _delta is that combination at a (q, w)-consistent Q
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    assert _delta(sp.q, sp.w2) == pytest.approx(cp.eK2 + sp.Q - 1, rel=1e-12)


def test_transfer_V_N1_is_T2():
    Q = 3
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    v = potts_transfer_V(1, Q, cp.eK1, cp.eK2)
    t2 = potts_transfer_T2(1, Q, cp.eK2)
    assert np.allclose(v, t2, rtol=1e-12)


def test_transfer_V_hand_check_Q2_N2():
    # V = S T1 S with S = (B^{1/2})^{x2}, B = [[e,1],[1,e]] at Q = 2 (and
    # its Q = 3 analogue)
    eK1, eK2 = 1.8, 1.5
    for Q in (2, 3):
        v = potts_transfer_V(2, Q, eK1, eK2)
        b = np.ones((Q, Q)) + (eK2 - 1) * np.eye(Q)
        vals, vecs = np.linalg.eigh(b)
        bs = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        S = np.kron(bs, bs)
        # spin rows s0 + Q*s1 (00,10,01,11 at Q = 2) in base-Q little-endian
        # order; T1 weight e^{K1 [s0=s1]}
        t1 = np.diag([eK1 if s0 == s1 else 1.0 for s1 in range(Q) for s0 in range(Q)])
        assert np.allclose(v, S @ t1 @ S, atol=1e-12)


def test_V_at_zero_coupling():
    Q, N = 3, 2
    v = potts_transfer_V(N, Q, 1.0, 1.0)
    val, _ = max_eigenvalue(v)
    assert val == pytest.approx(Q**N, rel=1e-12)


def test_max_eigenvalue_T2_rank_structure():
    Q, N = 3, 3
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    val, vec = max_eigenvalue(potts_transfer_T2(N, Q, cp.eK2))
    assert val == pytest.approx((cp.eK2 + Q - 1) ** N, rel=1e-12)
    v = vec / vec[0]
    assert np.allclose(v, np.ones(Q**N), atol=1e-10)


def test_transfer_matrices_guard_the_spin_dimension():
    # 3^8 = 6561 spin rows exceed the dense guard of 4096
    with pytest.raises(SizeGuardError):
        potts_transfer_T2(8, 3, 1.5)
    with pytest.raises(SizeGuardError):
        potts_transfer_V(8, 3, 1.8, 1.5)
    with pytest.raises(SizeGuardError):
        _t1_diagonal(8, 3, 1.8)


def test_max_eigenvalue_rejects_a_non_symmetric_matrix():
    # the symmetric solve's eigenpair misses [[1,1],[0,2]]; the residual says so
    with pytest.raises(ConvergenceError):
        max_eigenvalue(np.array([[1.0, 1.0], [0.0, 2.0]]))


def test_transfer_V_not_positive_definite_rejected():
    with pytest.raises(DomainError):
        potts_transfer_V(2, 3, 1.5, 0.5)


def test_double_row_N1_spectrum():
    # N=1 double row is the single K1-type vertex pair: eigenvalues 1, e^{K1}
    sp = SpectralParams(0.2, 0.6)
    cp = couplings(sp)
    mat, _ = double_row_matrix(1, sp.q, sp.w)
    vals = sorted(np.linalg.eigvals(mat).real)
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == pytest.approx(cp.eK1, rel=1e-12)
    assert dominant_eigenvalue(mat) == pytest.approx(cp.eK1, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_down_arrow_conservation_property(N, seed):
    rng = np.random.default_rng(seed)
    q = float(rng.uniform(0.05, 0.4))
    s = float(rng.uniform(0.6, 1.6))
    sp = SpectralParams.from_q_s(q, s)
    weights = SixVertexWeights.from_spectral(sp)
    states = sector_states(N)
    s0 = int(states[int(rng.integers(len(states)))])
    for apply, w in ((_apply_t1, weights.w_odd), (_apply_t2, weights.w_even)):
        out = apply({s0: 1.0}, N, w)
        assert all(bin(x).count("1") == N for x in out)


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec(0, 3)
    with pytest.raises(DomainError):
        LatticeSpec(2, 1)


def test_sixvertex_width_guard():
    sp = SpectralParams(0.2, 0.6)
    with pytest.raises(SizeGuardError):
        sixvertex_equivalent_potts(LatticeSpec(1, 13), sp)
