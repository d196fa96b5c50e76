"""Open-boundary root equations for the maximal transfer eigenvalue.

In the polynomial variables q = e^{-2 lam}, w = e^{-2u}, z_j = e^{-2 a_j},
the N coupled equations for the dominant sector read (j = 1..N)

    z_j^{-(2N+2)} * [ (1 - w z_j)(1 - q z_j / w)
                      / ((1 - w/z_j)(1 - q/(w z_j))) ]^{2N}
    = prod_{m != j} (1 - q z_j z_m)(1 - q z_j/z_m)
                    / ((1 - q z_m/z_j)(1 - q/(z_j z_m)))

and the eigenvalue is

    L2 = (w^{2N}/q^N) prod_j (1 - q/(w z_j))(1 - q z_j/w)
                              / ((1 - w/z_j)(1 - w z_j))
       = w^{2N} R(q/w) / (q^N R(w)),   R(z) = prod_m (1 - z/z_m)(1 - z z_m).

As (q, w) -> 0 the equations collapse to z_j^{2N+2} = 1; rejecting z = +-1
and keeping one of each (z, 1/z) pair leaves the unique configuration
z_j = exp(i pi j/(N+1)) in the open upper half plane, which continues to
the dominant eigenvalue throughout the strip.  Newton iteration runs on the
logarithmic form with per-root branch integers fixed by that limit, and the
continuation ramps t = q^{1/4} geometrically at fixed s = w^2/sqrt(q).

The continuation is a predictor-corrector loop: t grows by STEP_RATIO = 2
per step from T_START; a secant through the last two accepted root sets,
linear in log t, predicts the roots at the next t; Newton corrects them to
max |Phi_j| < NEWTON_TOL = 1e-13 at every step; a Newton failure or an
invariant violation halves the ratio's excess over 1 and retries the step.
One kernel, ``_defect``, builds the pair factors once per Newton iterate and
gives both the defect and, only while unconverged, the Jacobian.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuationError, ConvergenceError, DomainError
from .params import SpectralParams

RESIDUAL_TOL = 1e-12
COLLISION_TOL = 1e-8
# continuation schedule: t starts at T_START and grows by STEP_RATIO per
# step; each failed step halves the ratio's excess over 1, at most
# MAX_HALVINGS times; each point takes at most MAX_NEWTON Newton steps
T_START = 0.04
STEP_RATIO = 2.0
NEWTON_TOL = 1e-13
MAX_NEWTON = 60
MAX_HALVINGS = 40


@dataclass
class BetheRoots:
    """Solved root set with its residual and continuation trace."""

    N: int
    roots: np.ndarray  # complex, upper half plane, sorted by argument
    residual: float
    q: float
    w: float
    trace: list = field(default_factory=list)
    newton_iterations: int = 0  # Newton steps on the accepted continuation path
    halvings: int = 0  # rejected continuation steps, each halving the step ratio


def initial_roots(N: int) -> np.ndarray:
    """The (2N+2)-th roots of unity in the open upper half plane."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return np.array([cmath.exp(1j * math.pi * j / (N + 1)) for j in range(1, N + 1)])


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise principal-branch log, log|x| + i arg x, arg in (-pi, pi].

    The same branch as ``np.log`` on complex input, built from real ufuncs,
    which are several times faster."""
    out = np.empty_like(x)
    out.real = np.log(np.abs(x))
    out.imag = np.angle(x)
    return out


def _defect(z: np.ndarray, q: float, w: float):
    """Logarithmic-form defect Phi_j, zero at a solution with the dominant
    branch integers k_j = -j fixed by the (q, w) -> 0 limit, with the pair
    products P = z_j z_m and the Jacobian d Phi_j / d z_m as a callable.

    Every factor keeps its own principal-branch log, so the branch integers
    stay valid.  Over the pairs, log(1 - q z_j z_m) - log(1 - q/(z_j z_m))
    is symmetric in (j, m) and log(1 - q z_m/z_j) is the transpose of
    log(1 - q z_j/z_m).  Each factor log(1 - y) differentiates to
    -(y/(1 - y)) d(log y), and d(log y) is +-dz_j/z_j or +-dz_m/z_m, so the
    Jacobian reuses y and 1 - y; it is formed only when called.
    """
    N = len(z)
    P = z[:, None] * z
    y = q * np.array([P, 1 / P, z[:, None] / z])
    b = np.array([w * z, q * z / w, w / z, q / (w * z)])
    one_y, one_b = 1 - y, 1 - b
    lb = _log(one_b)
    a = _log(one_y)
    pair = a[0] - a[1] + a[2] - a[2].T
    np.fill_diagonal(pair, 0)
    phi = (
        -(2 * N + 2) * _log(z)
        + 2j * math.pi * np.arange(1, N + 1)
        + 2 * N * (lb[0] + lb[1] - lb[2] - lb[3])
        - pair.sum(axis=1)
    )

    def jacobian() -> np.ndarray:
        g = y / one_y
        gP = g[0] + g[1]  # from q z_j z_m and q/(z_j z_m): symmetric
        gR = g[2] + g[2].T  # from q z_j/z_m and q z_m/z_j: symmetric
        J = (gP - gR) / z
        diag = gP + gR
        np.fill_diagonal(diag, 0)
        d = -(2 * N + 2) - 2 * N * (b / one_b).sum(axis=0) + diag.sum(axis=1)
        np.fill_diagonal(J, d / z)
        return J

    return phi, P, jacobian


def residual(z: np.ndarray, q: float, w: float) -> float:
    return float(np.max(np.abs(_defect(np.asarray(z, dtype=complex), q, w)[0])))


def _check_invariants(z: np.ndarray, P: np.ndarray):
    """Half plane, no collision, no inverse pair; ``P`` holds z_j z_m."""
    if np.any(z.imag <= COLLISION_TOL):
        raise ContinuationError("root left the open upper half plane")
    pairs = ~np.tri(len(z), dtype=bool)  # m > j
    if np.any(np.abs(z[:, None] - z)[pairs] < COLLISION_TOL):
        raise ContinuationError("root collision")
    if np.any(np.abs(P - 1)[pairs] < COLLISION_TOL):
        raise ContinuationError("root met an inverse pair")


def _newton(z: np.ndarray, q: float, w: float) -> tuple[np.ndarray, float, int, np.ndarray]:
    """Damped Newton on the log form from ``z``: the solved set, its
    residual max |Phi_j|, the number of Newton steps taken and the solved
    set's pair products z_j z_m."""
    for steps in range(MAX_NEWTON):
        F, P, jacobian = _defect(z, q, w)
        res = float(np.max(np.abs(F)))
        if res < NEWTON_TOL:
            return z, res, steps, P
        step = np.linalg.solve(jacobian(), F)
        # trust region: cap the relative step and stay in the half plane
        lam = min(1.0, 0.3 * float(np.min(np.abs(z))) / max(float(np.max(np.abs(step))), 1e-300))
        for _ in range(40):
            zn = z - lam * step
            if np.all(zn.imag > 1e-14):
                break
            lam /= 2
        else:
            raise ConvergenceError("Newton step could not stay in the half plane")
        z = zn
    raise ConvergenceError("Newton iteration did not converge")


def solve(N: int, q: float, w: float) -> BetheRoots:
    """Continue the roots from the (q, w) -> 0 configuration to (q, w).

    The path fixes s = w^2/sqrt(q) and ramps t = q^{1/4} geometrically.
    Each step predicts the roots at the next t by the secant through the
    last two accepted sets, linear in log t, and corrects them by Newton;
    Newton failures or invariant violations halve the step.  Root j keeps
    its branch integer along the path, so no step re-matches the roots.
    The solved set is canonical: sorted by argument, residual <= 1e-12.
    """
    sp = SpectralParams(q, w)
    s = sp.s
    t_target = sp.t
    t = min(T_START, t_target)

    def point(tv):
        return tv**4, math.sqrt(s * tv * tv)

    z, res, iterations, P = _newton(initial_roots(N), *point(t))
    _check_invariants(z, P)
    trace = [(t, res)]

    halvings = 0
    ratio = STEP_RATIO
    z_prev = t_prev = None
    while t < t_target:
        t_next = min(t * ratio, t_target)
        guess = z
        if z_prev is not None:
            guess = z + (z - z_prev) * (math.log(t_next / t) / math.log(t / t_prev))
        try:
            zn, res, steps, P = _newton(guess, *point(t_next))
            _check_invariants(zn, P)
        except (ConvergenceError, ContinuationError):
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise ContinuationError("continuation step underflow", trace)
            ratio = 1 + (ratio - 1) / 2
            continue
        z_prev, t_prev = z, t
        z, t = zn, t_next
        iterations += steps
        trace.append((t, res))

    z = z[np.argsort(np.angle(z))]
    res = residual(z, q, w)
    if res > RESIDUAL_TOL:
        raise ConvergenceError(f"final residual {res} exceeds {RESIDUAL_TOL}")
    return BetheRoots(N=N, roots=z, residual=res, q=q, w=w, trace=trace, newton_iterations=iterations, halvings=halvings)


def eigenvalue(roots, q: float, w: float) -> tuple[complex, complex]:
    """The squared dominant eigenvalue by its two representations.

    Returns (product form, R-function form); they are the same rational
    function of the roots and must agree for any valid root set.
    """
    z = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    N = len(z)
    if N == 0:
        return 1.0 + 0j, 1.0 + 0j
    if np.any(np.abs(1 - w / z) < 1e-14) or np.any(np.abs(1 - w * z) < 1e-14):
        raise DomainError("eigenvalue pole: some root hits w or 1/w")
    pref = w ** (2 * N) / q**N
    prod = complex(np.prod((1 - q / (w * z)) * (1 - q * z / w) / ((1 - w / z) * (1 - w * z))))
    lam_product = pref * prod

    def R(x):
        return complex(np.prod((1 - x / z) * (1 - x * z)))

    lam_rform = pref * R(q / w) / R(w)
    return lam_product, lam_rform


def checked_eigenvalue(br: BetheRoots) -> tuple[complex, complex]:
    """``eigenvalue`` at the solved point, after checking that its two forms
    agree to 1e-12 and that L2 is real to 1e-10 (both relative); raises
    ConvergenceError otherwise."""
    lam2, lam2b = eigenvalue(br, br.q, br.w)
    if abs(lam2 - lam2b) > 1e-12 * abs(lam2):
        raise ConvergenceError("eigenvalue representations disagree")
    if abs(lam2.imag) > 1e-10 * abs(lam2):
        raise ConvergenceError("eigenvalue picked up an imaginary part")
    return lam2, lam2b


def surface_free_energy(br: BetheRoots, fb: float, cp) -> float:
    """f_s^(N) = -N f_b - (N/2) log Q + N log x - log L2 from solved roots,
    the closed-form ``fb`` and the ``CouplingParams`` ``cp`` at their (q, w).

    L2 comes from ``checked_eigenvalue``."""
    N = br.N
    lam2 = checked_eigenvalue(br)[0]
    return -N * fb - (N / 2) * math.log(cp.Q) + N * math.log(cp.x) - math.log(lam2.real)


@dataclass
class SurfaceConvergenceRow:
    N: int
    f_s_N: float
    deviation: float


@dataclass
class SurfaceConvergenceTable:
    rows: list
    f_s_closed: float
    decay_rate: float | None
    extrapolated: float | None
    extrapolated_power: float | None


def surface_convergence(Nmax: int, q: float, w: float) -> SurfaceConvergenceTable:
    """Finite-N surface free energy from the solved eigenvalue.

    f_s^(N), from ``surface_free_energy``, converges to the
    closed-form f_s.  Deep in the Q > 4 regime (short correlation length)
    the finite-width terms vanish exponentially; closer to Q = 4 the
    correlation length exp(pi^2/(2 lam)) exceeds any practical width and
    the corrections follow an effectively-critical a/N^2 + b/N^3 law.  The
    table therefore reports both an Aitken (geometric) extrapolation and a
    power-law Richardson one, plus the last deviation ratio.
    """
    from . import closedform
    from .params import couplings

    sp = SpectralParams(q, w)
    cp = couplings(sp)
    fb = closedform.f_bulk(sp)
    fs_closed = closedform.f_surface_v(sp)

    rows = []
    for N in range(2, Nmax + 1):
        fsN = surface_free_energy(solve(N, q, w), fb, cp)
        rows.append(SurfaceConvergenceRow(N=N, f_s_N=fsN, deviation=fsN - fs_closed))
    decay = None
    devs = [abs(r.deviation) for r in rows]
    if len(devs) >= 3 and devs[-2] > 0 and devs[-1] > 0:
        decay = devs[-1] / devs[-2]
    extra = None
    if len(rows) >= 3:
        f1, f2, f3 = (r.f_s_N for r in rows[-3:])
        denom = (f3 - f2) - (f2 - f1)
        if denom != 0:
            extra = f3 - (f3 - f2) ** 2 / denom
    extra_pow = None
    if len(rows) >= 3:
        # solve f_N = f + b/N^2 + c/N^3 on the last three widths
        (n1, g1), (n2, g2), (n3, g3) = ((r.N, r.f_s_N) for r in rows[-3:])
        m = np.array(
            [[1.0, n1**-2, n1**-3], [1.0, n2**-2, n2**-3], [1.0, n3**-2, n3**-3]]
        )
        extra_pow = float(np.linalg.solve(m, np.array([g1, g2, g3]))[0])
    return SurfaceConvergenceTable(
        rows=rows,
        f_s_closed=fs_closed,
        decay_rate=decay,
        extrapolated=extra,
        extrapolated_power=extra_pow,
    )


def roots_to_json(br: BetheRoots) -> dict:
    return {
        "N": br.N,
        "q": br.q,
        "w": br.w,
        "residual": br.residual,
        "roots": [[z.real, z.imag] for z in br.roots],
        "trace": [[t, r] for t, r in br.trace],
        "newton_iterations": br.newton_iterations,
        "halvings": br.halvings,
    }
