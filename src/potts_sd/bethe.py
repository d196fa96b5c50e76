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
the dominant eigenvalue throughout the strip.  The roots stay on the unit
circle, z_j = e^{i theta_j} with theta_j in (0, pi), where each factor and
its mirror are complex conjugates.  With A_r(phi) = arg(1 - r e^{i phi})
the logarithmic form of equation j is Phi_j = i F_j,

    F_j = -(2N+2) theta_j + 2 pi j + 4N [A_w(theta_j) + A_{q/w}(theta_j)]
          - 2 sum_{m != j} [A_q(theta_j + theta_m) + A_q(theta_j - theta_m)],

with the branch integer of root j fixed to -j by the (q, w) -> 0 limit.
Newton runs on the real N x N system F = 0 and stops at
max |F_j| < max(NEWTON_TOL, 2 (2N+2) pi eps), F's rounding floor.

The continuation is a predictor-corrector loop in t = q^{1/4} at fixed
s = w^2/sqrt(q), from t = 0, where theta_j = pi j/(N+1) exactly.  At
t = 0 the Jacobian is -(2N+2) I and only the 4N A_w term moves to first
order (w = sqrt(s) t), so the slope has the closed form
theta_j'(0) = -(2N/(N+1)) sqrt(s) sin theta_j(0).  The first attempt is
the target itself, min(T_START, t) with T_START = 1 > t, predicted by
theta(0) + t theta'(0); a later attempt is predicted by the secant in t
through the last two accepted angle sets.  Newton corrects each attempt
in at most MAX_NEWTON = 12 steps; a failure or an invariant violation
rejects it and halves its length in t.  After an accepted step the next
attempt is at min(STEP_RATIO t, target).  The last step solves at (q, w)
itself.
One kernel, ``_defect``, gives F and, only while unconverged, the Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuationError, ConvergenceError, DomainError
from .params import SpectralParams

RESIDUAL_TOL = 1e-12
COLLISION_TOL = 1e-8
# continuation schedule: the first attempt is at min(T_START, target) and,
# after each accepted step, the next at min(STEP_RATIO t, target); each
# attempt takes at most MAX_NEWTON Newton steps, and each failed one halves
# its length in t, at most MAX_HALVINGS times in all
T_START = 1.0
STEP_RATIO = 2.0
NEWTON_TOL = 1e-13
MAX_NEWTON = 12
MAX_HALVINGS = 40


@dataclass
class BetheRoots:
    """Solved root set with its residual and continuation trace."""

    N: int
    roots: np.ndarray  # complex, on the upper unit half circle, sorted by argument
    residual: float
    q: float
    w: float
    trace: list = field(default_factory=list)
    newton_iterations: int = 0  # Newton steps of every attempt, rejected ones included
    halvings: int = 0  # rejected continuation steps, each halving the step in t


def initial_roots(N: int) -> np.ndarray:
    """The arguments theta_j = pi j/(N+1) of the (2N+2)-th roots of unity in
    the open upper half plane."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return math.pi * np.arange(1, N + 1) / (N + 1)


def initial_slope(N: int, s: float) -> np.ndarray:
    """d theta_j/dt at t = 0 along fixed s: -(2N/(N+1)) sqrt(s) sin theta_j(0).

    At t = 0 the Jacobian is -(2N+2) I, and only the 4N A_w term, about
    -4N sqrt(s) t sin theta_j, moves to first order in t."""
    return -(2 * N / (N + 1)) * math.sqrt(s) * np.sin(initial_roots(N))


def _arg(r, phi):
    """A_r(phi) = arg(1 - r e^{i phi}) and, as a callable, dA_r/dphi.

    1 - r cos(phi) is formed as (1 - r) + 2 r sin^2(phi/2); 1 - r is exact
    for r in [1/2, 2], so nothing cancels as r -> 1 and phi -> 0."""
    h = 2 * np.sin(phi / 2) ** 2  # 1 - cos(phi)
    c = (1 - r) + r * h
    y = r * np.sin(phi)
    # d/dphi arg(1 - r e^{i phi}) = r (r - cos phi) / |1 - r e^{i phi}|^2
    return np.arctan2(-y, c), lambda: r * (h - (1 - r)) / (c * c + y * y)


def _defect(theta: np.ndarray, q: float, w: float):
    """The angle-form defect F_j and its Jacobian dF_j/dtheta_m as a callable.

    A_q(theta_j + theta_m) is symmetric in (j, m) and A_q(theta_j - theta_m)
    antisymmetric, so the off-diagonal Jacobian is -2 times the difference
    of their slopes; the diagonal collects the boundary slopes and the sum
    of the pair slopes.
    """
    N = len(theta)
    bound, dbound = _arg(np.array([[w], [q / w]]), theta)
    pair, dpair = _arg(q, np.array([theta[:, None] + theta, theta[:, None] - theta]))
    pair = pair[0] + pair[1]
    np.fill_diagonal(pair, 0)
    F = (
        -(2 * N + 2) * theta
        + 2 * math.pi * np.arange(1, N + 1)
        + 4 * N * bound.sum(axis=0)
        - 2 * pair.sum(axis=1)
    )

    def jacobian() -> np.ndarray:
        plus, minus = dpair()
        J = -2 * (plus - minus)
        diag = plus + minus
        np.fill_diagonal(diag, 0)
        np.fill_diagonal(J, -(2 * N + 2) + 4 * N * dbound().sum(axis=0) - 2 * diag.sum(axis=1))
        return J

    return F, jacobian


def _check_invariants(theta: np.ndarray):
    """Every angle in (0, pi) and no collision: the sorted gaps, counting
    those to 0 and pi, exceed COLLISION_TOL."""
    if np.any(np.diff(theta, prepend=0.0, append=math.pi) <= COLLISION_TOL):
        raise ContinuationError("roots left (0, pi) or collided")


def _newton(theta: np.ndarray, q: float, w: float) -> tuple[np.ndarray | None, float, int]:
    """Newton on F from ``theta``: the solved angles (None if MAX_NEWTON
    steps do not reach the tolerance), their residual max |F_j| and the
    number of Newton steps taken.

    It stops at F's rounding floor, about (2N+2) pi eps, or at NEWTON_TOL
    if that is larger."""
    tol = max(NEWTON_TOL, 2 * (2 * len(theta) + 2) * math.pi * np.finfo(float).eps)
    for steps in range(MAX_NEWTON + 1):
        F, jacobian = _defect(theta, q, w)
        res = float(np.max(np.abs(F)))
        if res < tol:
            return theta, res, steps
        if steps == MAX_NEWTON:
            return None, res, steps
        step = np.linalg.solve(jacobian(), F)
        # trust region: no angle moves by more than 0.3
        theta = theta - min(1.0, 0.3 / max(float(np.max(np.abs(step))), 1e-300)) * step


def solve(N: int, q: float, w: float) -> BetheRoots:
    """Continue the roots from the (q, w) -> 0 configuration to (q, w).

    The path fixes s = w^2/sqrt(q) and runs t = q^{1/4} from 0, where the
    angles and their slope are exact (``initial_roots``, ``initial_slope``).
    The first attempt is the target (T_START = 1 > t); each attempt
    predicts the angles linearly in t, from that slope and later from the
    secant through the last two accepted sets, and corrects them by at most
    MAX_NEWTON Newton steps.  A failed attempt or an invariant violation
    halves the step in t; after an accepted step the next attempt is at
    min(STEP_RATIO t, target).  Root j keeps its branch integer along the
    path, so no step re-matches the roots, and the angles stay sorted.  The
    solved set is canonical: sorted by argument, residual <= 1e-12.
    """
    sp = SpectralParams(q, w)
    s = sp.s
    t_target = sp.t

    def point(tv):
        # the last step solves at (q, w) itself, not at its rounded image
        return (q, w) if tv == t_target else (tv**4, math.sqrt(s * tv * tv))

    theta, slope = initial_roots(N), initial_slope(N, s)
    t, t_next = 0.0, min(T_START, t_target)
    trace = []
    iterations = halvings = 0
    while t < t_target:
        tn, res, steps = _newton(theta + (t_next - t) * slope, *point(t_next))
        iterations += steps
        try:
            if tn is None:
                raise ConvergenceError("Newton iteration did not converge")
            _check_invariants(tn)
        except (ConvergenceError, ContinuationError):
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise ContinuationError("continuation step underflow", trace)
            t_next = t + (t_next - t) / 2
            continue
        slope = (tn - theta) / (t_next - t)
        theta, t = tn, t_next
        trace.append((t, res))
        t_next = min(t * STEP_RATIO, t_target)

    if res > RESIDUAL_TOL:
        raise ConvergenceError(f"final residual {res} exceeds {RESIDUAL_TOL}")
    return BetheRoots(
        N=N, roots=np.exp(1j * theta), residual=res, q=q, w=w, trace=trace, newton_iterations=iterations, halvings=halvings
    )


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
    """``eigenvalue`` at the solved point, after checking that both forms are
    finite, that they agree to 1e-12 and that L2 is real to 1e-10 (both
    relative); raises ConvergenceError otherwise."""
    with np.errstate(all="ignore"):  # a product past float range is the error below, not warnings
        try:
            lam2, lam2b = eigenvalue(br, br.q, br.w)
        except ZeroDivisionError:  # an over- or underflowed product divided
            lam2 = lam2b = math.inf
    if not np.isfinite([lam2, lam2b]).all():
        raise ConvergenceError(f"eigenvalue L2 is not finite at N = {br.N}")
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


def surface_convergence(Nmax: int, q: float, w: float) -> SurfaceConvergenceTable:
    """Finite-N surface free energy from the solved eigenvalue.

    f_s^(N), from ``surface_free_energy``, converges to the
    closed-form f_s.  Deep in the Q > 4 regime (short correlation length)
    the finite-width terms vanish exponentially; closer to Q = 4 the
    correlation length exp(pi^2/(2 lam)) exceeds any practical width and
    the corrections follow an effectively-critical a/N^2 + b/N^3 law.  The
    table reports an Aitken (geometric) extrapolation and the last
    deviation ratio.
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
    return SurfaceConvergenceTable(
        rows=rows,
        f_s_closed=fs_closed,
        decay_rate=decay,
        extrapolated=extra,
    )


def roots_to_json(br: BetheRoots) -> dict:
    """``br`` as JSON: ``trace`` lists the accepted (t, residual) steps,
    ``newton_iterations`` counts the Newton steps of every attempt, rejected
    ones included, and ``halvings`` the rejected attempts."""
    return {
        "N": br.N,
        "q": br.q,
        "w": br.w,
        "residual": br.residual,
        # plain floats: a numpy scalar's str() is np.float64(...) in the CSV view
        "roots": [[float(z.real), float(z.imag)] for z in br.roots],
        "trace": [[t, r] for t, r in br.trace],
        "newton_iterations": br.newton_iterations,
        "halvings": br.halvings,
    }
