"""Root-equation solver: limits, invariants, eigenvalue cross-checks."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dominant_eigenvalue, double_row_matrix, limit_eigenvalue, power_law_limit
from potts_sd import bethe, closedform
from potts_sd.errors import ConvergenceError, DomainError
from potts_sd.params import SpectralParams, couplings


def phi_reference(z, q, w):
    """The log-form defect Phi_j, one cmath.log per factor and per pair."""
    N = len(z)
    out = np.empty(N, dtype=complex)
    for j in range(N):
        zj = z[j]
        val = -(2 * N + 2) * cmath.log(zj) + 2j * math.pi * (j + 1)
        val += 2 * N * (
            cmath.log(1 - w * zj)
            + cmath.log(1 - q * zj / w)
            - cmath.log(1 - w / zj)
            - cmath.log(1 - q / (w * zj))
        )
        for m in range(N):
            if m == j:
                continue
            zm = z[m]
            val -= (
                cmath.log(1 - q * zj * zm)
                + cmath.log(1 - q * zj / zm)
                - cmath.log(1 - q * zm / zj)
                - cmath.log(1 - q / (zj * zm))
            )
        out[j] = val
    return out


def random_angle_set(N, seed):
    """N sorted angles in (0.05, pi - 0.05), q in (0.05, 0.8) and 1 - w
    log-uniform in (0.01, 0.3): up to w = 0.99, where 1 - w cos(theta)
    nearly cancels at small theta."""
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.05, math.pi - 0.05, N))
    return theta, float(rng.uniform(0.05, 0.8)), 1 - 10 ** float(rng.uniform(-2, math.log10(0.3)))


def test_initial_roots_small_cases():
    assert bethe.initial_roots(1) == pytest.approx([math.pi / 2])
    assert bethe.initial_roots(3) == pytest.approx([math.pi / 4, math.pi / 2, 3 * math.pi / 4])


def test_initial_roots_unit_root_equation():
    for N in (1, 2, 3, 5, 8):
        theta = bethe.initial_roots(N)
        assert np.max(np.abs(np.exp(1j * theta) ** (2 * N + 2) - 1)) < 1e-12
        assert np.all((theta > 0) & (theta < math.pi))


def test_initial_roots_domain():
    with pytest.raises(DomainError):
        bethe.initial_roots(0)


def test_small_point_roots_near_unit_circle():
    # root displacement and eigenvalue correction are O(w) near the origin
    z0 = np.exp(1j * bethe.initial_roots(3))
    br = bethe.solve(3, 1e-6, 1e-2)
    assert np.max(np.abs(br.roots - z0)) < 5e-2
    lam2, _ = bethe.eigenvalue(br, br.q, br.w)
    assert lam2.real == pytest.approx(limit_eigenvalue(3, br.q, br.w), rel=0.2)
    # even smaller point: tighter agreement
    br2 = bethe.solve(3, 1e-10, 1e-4)
    assert np.max(np.abs(br2.roots - z0)) < 5e-4
    lam2b, _ = bethe.eigenvalue(br2, br2.q, br2.w)
    assert lam2b.real == pytest.approx(limit_eigenvalue(3, br2.q, br2.w), rel=2e-3)


def test_solve_residual_and_invariants():
    br = bethe.solve(3, 0.2, math.sqrt(math.sqrt(0.2)))
    assert br.residual <= 1e-12
    z = br.roots
    assert np.all(z.imag > 0)
    assert np.max(np.abs(np.abs(z) - 1)) < 1e-15
    for j in range(3):
        for m in range(j + 1, 3):
            assert abs(z[j] - z[m]) > 1e-8
            assert abs(z[j] * z[m] - 1) > 1e-8


def test_solve_canonical_under_reordering(monkeypatch):
    # solutions are canonical after sorting by argument: two solves along
    # different continuation schedules agree
    q, w = 0.25, 0.62
    roots = []
    for t_start, ratio in ((0.03, 1.15), (0.05, 1.3)):
        monkeypatch.setattr(bethe, "T_START", t_start)
        monkeypatch.setattr(bethe, "STEP_RATIO", ratio)
        roots.append(bethe.solve(4, q, w).roots)
    a, b = roots
    assert np.max(np.abs(a - b)) < 1e-10


def _at_u_frac(q, f):
    return SpectralParams(q, math.exp(f * math.log(q)))  # w = exp(-2 f lam)


@pytest.mark.parametrize(
    "sp,N",
    [(_at_u_frac(q, f), N) for q in (0.02, 0.3) for f in (0.15, 0.40) for N in (8, 16)]
    # outside the physical strip q < w^2 < 1
    + [(SpectralParams.from_q_s(0.3, 0.5), 8), (_at_u_frac(0.2, 0.6), 12)],
)
def test_step_schedule_does_not_change_the_roots(monkeypatch, sp, N):
    # the default path and a fine ramp (from t = 0.04 by ratio 1.05) reach
    # the same root set; the ratio alone does not refine the path, because
    # the first attempt is the target
    default = bethe.solve(N, sp.q, sp.w).roots
    monkeypatch.setattr(bethe, "T_START", 0.04)
    monkeypatch.setattr(bethe, "STEP_RATIO", 1.05)
    fine = bethe.solve(N, sp.q, sp.w).roots
    assert np.max(np.abs(default - fine)) <= 1e-10


def test_N1_companion_matrix_oracle():
    # N=1: the constraint is z^4 = A(z)^2 with A the boundary factor; the
    # log form used by the solver picks the branch continuing from z = i.
    q, w = 0.2, 0.6
    br = bethe.solve(1, q, w)
    z = complex(br.roots[0])
    A = (1 - w * z) * (1 - q * z / w) / ((1 - w / z) * (1 - q / (w * z)))
    assert z**4 == pytest.approx(A * A, rel=1e-12)
    # companion-matrix route: z^2 + A(z) = 0 as a polynomial in z
    # z^2 (1-w/z)(1-q/(wz)) + (1-wz)(1-qz/w) = 0, degree 2N+2 = 4 terms
    # expand: z^2 (1 - w/z)(1 - q/(w z)) = z^2 - (w + q/w) z + q
    c_quad = [q, -(w + q / w), 1.0]  # constant..z^2
    # (1 - w z)(1 - q z/w) = 1 - (w + q/w) z + q z^2
    c_other = [1.0, -(w + q / w), q]
    poly = [a + b for a, b in zip(c_quad, c_other)]
    roots = np.roots(poly[::-1])
    assert min(abs(r - z) for r in roots) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_two_eigenvalue_forms_agree_off_shell(seed):
    # the two representations are the same rational function of any valid
    # root set, not just solutions
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 6))
    z = rng.uniform(-1, 1, N) + 1j * rng.uniform(0.2, 1.5, N)
    q, w = float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.3, 0.8))
    a, b = bethe.eigenvalue(z, q, w)
    assert abs(a - b) <= 1e-11 * abs(a)


def test_eigenvalue_empty_roots():
    a, b = bethe.eigenvalue(np.array([]), 0.2, 0.5)
    assert a == 1.0 and b == 1.0


@pytest.mark.parametrize(
    "N, squeeze, s, division",
    [
        # angles squeezed towards z = 1: R(w) underflows to 0, as the solved
        # roots at (0.2, 2, N = 256) make it, after numpy overflows in a product
        (256, 8, 2.0, "complex division by zero"),
        # (w^2/q)^N: q^N underflows to 0 at N = 512
        (512, 1, 1.0, "float division by zero"),
    ],
)
def test_an_eigenvalue_past_float_range_is_one_named_error(N, squeeze, s, division):
    sp = SpectralParams.from_q_s(0.2, s)
    br = bethe.BetheRoots(N=N, roots=np.exp(1j * bethe.initial_roots(N) / squeeze), residual=0.0, q=sp.q, w=sp.w)
    with pytest.raises(ZeroDivisionError, match=division), np.errstate(all="ignore"):
        bethe.eigenvalue(br, sp.q, sp.w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would surface here
        with pytest.raises(ConvergenceError, match=f"eigenvalue L2 is not finite at N = {N}$"):
            bethe.checked_eigenvalue(br)


@pytest.mark.parametrize(
    "q,s",
    [(0.2, 1.0), (0.2, 2.0), (0.2, 0.8)]
    # u/lam = 0.01 near the top of the strip, s = q^{2 u/lam - 1/2}
    + [pytest.param(q, q ** -0.48, id=f"{q}-u0.01") for q in (0.68, 0.8)],
)
def test_bethe_matches_dense_diagonalization(q, s):
    w = math.sqrt(s * math.sqrt(q))
    for N in (2, 3, 4):
        br = bethe.solve(N, q, w)
        lam2, lam2b = bethe.eigenvalue(br, q, w)
        assert abs(lam2 - lam2b) <= 1e-12 * abs(lam2)
        mat, _ = double_row_matrix(N, q, w)
        dom = dominant_eigenvalue(mat)
        assert abs(lam2.real - dom) <= 1e-10 * abs(dom)


def test_continued_branch_stays_in_spectrum_outside_strip():
    # outside the physical strip the continued branch is still an exact
    # eigenvalue but no longer the dominant one (level crossing at w^2 = q)
    q, s = 0.3, 0.5
    w = math.sqrt(s * math.sqrt(q))
    for N in (2, 3):
        br = bethe.solve(N, q, w)
        lam2, _ = bethe.eigenvalue(br, q, w)
        mat, _ = double_row_matrix(N, q, w)
        vals = np.linalg.eigvals(mat)
        assert np.min(np.abs(vals - lam2)) <= 1e-10 * abs(lam2)


def test_surface_convergence_effectively_critical_regime():
    # q = 0.2: the correlation length dwarfs the width, deviations follow
    # ~0.5/N^2 and the power-law Richardson extrapolation wins
    q = 0.2
    tab = bethe.surface_convergence(9, q, math.sqrt(math.sqrt(q)))
    devs = [abs(r.deviation) for r in tab.rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert 0.2 < devs[-1] * 81 < 0.8  # ~ 0.5/N^2 at N = 9
    assert abs(power_law_limit(tab.rows) - tab.f_s_closed) < 0.2 * devs[-1]


def test_surface_convergence_exponential_regime():
    # q = 0.02: short correlation length, genuinely geometric convergence
    q = 0.02
    tab = bethe.surface_convergence(8, q, math.sqrt(math.sqrt(q)))
    devs = [abs(r.deviation) for r in tab.rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert tab.decay_rate < 0.5
    assert devs[-1] < 1e-6


@pytest.mark.parametrize("N", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_residual_matches_scalar_reference(N, seed):
    # on the unit circle Phi_j(e^{i theta}) = i F_j(theta)
    theta, q, w = random_angle_set(N, seed)
    F = bethe._defect(theta, q, w)[0]
    assert np.max(np.abs(1j * F - phi_reference(np.exp(1j * theta), q, w))) <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 5, 16])
def test_jacobian_matches_central_differences(N):
    theta, q, w = random_angle_set(N, 10 + N)
    h = 1e-5
    fd = np.empty((N, N))
    for m in range(N):
        e = np.zeros(N)
        e[m] = h
        diff = phi_reference(np.exp(1j * (theta + e)), q, w) - phi_reference(np.exp(1j * (theta - e)), q, w)
        fd[:, m] = (diff / 2j).real / h
    J = bethe._defect(theta, q, w)[1]()
    assert np.max(np.abs(J - fd)) <= 1e-7 * np.max(np.abs(J))


@pytest.mark.parametrize("q,s,N", [(0.2, 1.0, 16), (0.3, 1.0, 12)])
def test_every_continuation_step_solves_its_own_equations(q, s, N):
    # root j carries branch integer k_j = -j along the whole path: a step
    # that permuted the roots would leave residuals of 2 pi multiples
    sp = SpectralParams.from_q_s(q, s)
    br = bethe.solve(N, sp.q, sp.w)
    assert max(r for _, r in br.trace) <= bethe.NEWTON_TOL


def test_every_strip_point_solves(monkeypatch):
    # 200 seeded points of the physical strip q < w^2 < 1, up to q = 0.8
    # and u -> 0, where the roots crowd towards z = 1; the last point
    # leaves 1.7e-12 at (q, w) if solved at its rounded image (t^4, sqrt(s t^2));
    # each root set equals the one a ratio-2 ramp from t = 0.04 reaches
    rng = np.random.default_rng(20160606)
    points = [(rng.uniform(0.01, 0.8), rng.uniform(0, 0.5), int(rng.integers(1, 25))) for _ in range(200)]
    for q, f, N in points + [(0.745, 0.011, 24)]:
        sp = _at_u_frac(float(q), float(f))
        br = bethe.solve(N, sp.q, sp.w)
        bethe.checked_eigenvalue(br)
        res = np.max(np.abs(bethe._defect(np.angle(br.roots), sp.q, sp.w)[0]))
        assert max(br.residual, res) <= 1e-12, (q, f, N)
        with monkeypatch.context() as m:
            m.setattr(bethe, "T_START", 0.04)
            m.setattr(bethe, "STEP_RATIO", 2.0)
            ramp = bethe.solve(N, sp.q, sp.w).roots
        assert np.max(np.abs(br.roots - ramp)) <= 1e-10, (q, f, N)


@pytest.mark.parametrize("N", [1, 4, 16])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_closed_form_slope_at_t0(N, s):
    # theta_j'(0) = -(2N/(N+1)) sqrt(s) sin theta_j(0), the first predictor,
    # against the difference quotient of a Newton solve from theta(0)
    t = 1e-6
    theta0 = bethe.initial_roots(N)
    theta, _, _ = bethe._newton(theta0, t**4, math.sqrt(s) * t)
    slope = bethe.initial_slope(N, s)
    assert slope == pytest.approx(-(2 * N / (N + 1)) * math.sqrt(s) * np.sin(theta0), rel=1e-15)
    assert np.max(np.abs((theta - theta0) / t - slope)) <= 1e-5 * np.max(np.abs(slope))


def test_newton_iterations_count_every_attempt(monkeypatch):
    # near u = 0 the target attempt fails and the step halves; each attempt
    # evaluates F once per Newton step plus once more, converged or not
    sp = SpectralParams.from_q_s(0.8, 1.1177)
    calls = []
    defect = bethe._defect
    monkeypatch.setattr(bethe, "_defect", lambda *a: calls.append(1) or defect(*a))
    br = bethe.solve(24, sp.q, sp.w)
    assert br.halvings > 0
    assert br.newton_iterations == len(calls) - len(br.trace) - br.halvings


def test_a_strip_point_solves_at_the_target_first():
    # from theta(0) + t theta'(0), one Newton run at the target solves (0.2, 1, 16)
    sp = SpectralParams.from_q_s(0.2, 1.0)
    br = bethe.solve(16, sp.q, sp.w)
    assert br.trace[0][0] == sp.t
    assert len(br.trace) == 1 and br.halvings == 0


def _large_N_deviation(q, N):
    sp = SpectralParams.from_q_s(q, 1.0)
    br = bethe.solve(N, sp.q, sp.w)
    fs = bethe.surface_free_energy(br, closedform.f_bulk(sp), couplings(sp))
    return fs - closedform.f_surface_v(sp)


def test_large_N_reaches_the_closed_form():
    # q = 0.1: short correlation length, f_s^(N) has converged by N = 128
    assert abs(_large_N_deviation(0.1, 128)) <= 1e-11


@pytest.mark.slow
def test_N256_near_Q4():
    # q = 0.2: effectively critical, the deviation is still ~1e-7 at N = 256
    assert abs(_large_N_deviation(0.2, 256)) <= 1e-6
