"""Test oracles, imported by the tests as ``oracles``; no production path uses them.

``sixvertex_partition`` contracts over any coefficient ring.  It fixed the row
operators of ``potts_sd.lattice`` (Z_P = Q^{MN/2} Z_6V against the two
enumerations) and checks the gauged series kernel at exact ``RationalPoint``s.
``dict_z_normalized`` is the same gauged contraction as dicts of Python ints,
with the top boundary as a row of vertex moves: the coefficient-for-coefficient
reference of the packed int64 kernel.  ``fraction_series_logZ`` and
``fraction_extract_free_energies`` are the lattice route's logarithms and
de Neef-Enting sums in ``TruncatedSeries`` arithmetic: the references of its
integer sums over one denominator.  ``expand_product`` multiplies an infinite
product out factor by factor, with ``pow`` and ``reciprocal``: the reference
of ``qseries.log_product``.  ``lambert_sum_loop`` expands a Lambert sum
by its double loop, and ``TYPED_EXP_LAMBERT`` and the corner log take
their q-Pochhammer symbols as typed by hand: the references of
``qseries.lambert_sum`` and of ``closedform``'s product forms, which read
both off the Lambert lists.  ``inversion_lambert``,
``BULK_IMAGE_PRODUCT`` and ``SURFACE_H_IMAGE_PRODUCT`` are lam - u images
mapped and typed by hand: the references of the images ``relations``
derives.  ``f_bulk_series_coupling``, ``f_surface_v_log`` and
``f_surface_v_series_log`` (with ``SURFACE_LOG_LAMBERT``) are the second
representations of f_b and f_s: the references of the sums ``closedform``
prints.  The dense spin-basis transfer matrices
(``potts_transfer_T1``, ``potts_transfer_T2``, ``potts_transfer_V``) and
``max_eigenvalue`` carry the matrix-level inversion identities, whose
scalar parents in (q, w^2) ``verify`` checks exactly.
``table_with_shifted_energy`` is not an oracle but a fault: the lattice
table of a route that misses one free energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from potts_sd import closedform as cf, lattice
from potts_sd.bundle import FreeEnergyBundle, LogSeries
from potts_sd.errors import ConvergenceError, DomainError, SizeGuardError, TruncationError
from potts_sd.lattice import LatticeSpec
from potts_sd.params import SpectralParams, couplings
from potts_sd.qseries import DEFAULT_ORDER, LaurentPolyS, TruncatedSeries, lambert_sum, log_geometric_inverse

BRUTE_FORCE_MAX_CONFIGS = 2_100_000
FK_MAX_EDGES = 24
SIXV_MAX_COLS = 12


# ----------------------------------------------------------------------------
# oracle 1: direct spin enumeration
# ----------------------------------------------------------------------------

def potts_bruteforce(spec: LatticeSpec, Q: int, K1=None, K2=None, *, eK1=None, eK2=None):
    """Z_P by summing all Q^(MN) spin configurations.

    Pass (K1, K2) for a float result or (eK1, eK2) as exact Boltzmann
    factors (e.g. Fractions) for an exact one.  The enumeration is
    vectorized; exactness is preserved by accumulating the integer count
    of configurations per (equal-horizontal, equal-vertical) pair.
    """
    if Q < 1:
        raise DomainError("Q must be a positive integer")
    M, N = spec.M, spec.N
    n_sites = M * N
    if Q**n_sites > BRUTE_FORCE_MAX_CONFIGS:
        raise SizeGuardError(f"Q^(MN) = {Q**n_sites} exceeds the enumeration guard")
    if eK1 is None:
        eK1 = math.exp(K1)
    if eK2 is None:
        eK2 = math.exp(K2)

    n_cfg = Q**n_sites
    max_h = M * (N - 1)
    max_v = N * (M - 1)
    powers = (Q ** np.arange(n_sites, dtype=np.int64))[None, :]
    counts = np.zeros((max_h + 1) * (max_v + 1), dtype=np.int64)
    chunk = 1 << 18
    for start in range(0, n_cfg, chunk):
        idx = np.arange(start, min(start + chunk, n_cfg), dtype=np.int64)
        digits = ((idx[:, None] // powers) % Q).astype(np.int8).reshape(len(idx), M, N)
        nh = (digits[:, :, :-1] == digits[:, :, 1:]).sum(axis=(1, 2)) if N > 1 else np.zeros(len(idx), dtype=np.int64)
        nv = (digits[:, :-1, :] == digits[:, 1:, :]).sum(axis=(1, 2)) if M > 1 else np.zeros(len(idx), dtype=np.int64)
        counts += np.bincount(
            nh.astype(np.int64) * (max_v + 1) + nv.astype(np.int64),
            minlength=(max_h + 1) * (max_v + 1),
        )
    counts = counts.reshape(max_h + 1, max_v + 1)

    total = 0
    for a in range(max_h + 1):
        row = counts[a]
        for b in range(max_v + 1):
            c = int(row[b])
            if c:
                total = total + c * eK1**a * eK2**b
    return total


# ----------------------------------------------------------------------------
# oracle 2: random-cluster (edge subset) enumeration
# ----------------------------------------------------------------------------

def _edges(spec: LatticeSpec):
    M, N = spec.M, spec.N
    out = []
    for i in range(M):
        for j in range(N - 1):
            out.append((i * N + j, i * N + j + 1, 0))  # horizontal
    for i in range(M - 1):
        for j in range(N):
            out.append((i * N + j, (i + 1) * N + j, 1))  # vertical
    return out


def fk_partition(spec: LatticeSpec, Q, v1, v2):
    """Z_P = sum over edge subsets A of Q^{c(A)} prod_e v_e, v_e = e^{K_e} - 1.

    Exact for exact inputs (Fraction Q, v1, v2); isolated vertices count as
    components.  Enables non-integer Q.
    """
    edges = _edges(spec)
    if len(edges) > FK_MAX_EDGES:
        raise SizeGuardError(f"{len(edges)} edges exceeds the subset-enumeration guard")
    n_sites = spec.M * spec.N
    total = 0
    for mask in range(1 << len(edges)):
        parent = list(range(n_sites))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        weight = 1
        bits = mask
        k = 0
        n_comp = n_sites
        while bits:
            if bits & 1:
                a, b, kind = edges[k]
                weight = weight * (v1 if kind == 0 else v2)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    n_comp -= 1
            bits >>= 1
            k += 1
        total = total + weight * Q**n_comp
    return total


# ----------------------------------------------------------------------------
# arrow-row machinery shared by the six-vertex routes
# ----------------------------------------------------------------------------

def sector_states(N: int):
    """All 2N-bit states with exactly N down arrows (bit = 1)."""
    return [m for m in range(1 << (2 * N)) if bin(m).count("1") == N]


@dataclass(frozen=True)
class SixVertexWeights:
    """Scalar weights of one parameter point in some coefficient ring."""

    w_odd: tuple  # T1 internal weight set (K1 rows)
    w_even: tuple  # T2 internal weight set (K2 rows)
    b_down: object  # boundary weight for (down, up) pairs: e^{lam/2}
    b_up: object  # boundary weight for (up, down) pairs: e^{-lam/2}

    @classmethod
    def from_spectral(cls, sp: SpectralParams) -> "SixVertexWeights":
        cp = couplings(sp)
        x1 = cp.x
        half = 1 / sp.q**0.25  # e^{lam/2} = t^{-1}
        return cls._build(x1, 1 / x1, half)

    @classmethod
    def from_rational(cls, pt: RationalPoint) -> "SixVertexWeights":
        t, s = pt.t, pt.s
        x1 = (s - t * t) / (1 - s * t * t)
        return cls._build(x1, 1 / x1, 1 / t)

    @classmethod
    def from_couplings(cls, Q, eK1, eK2) -> "SixVertexWeights":
        """General (not necessarily self-dual) couplings at integer Q.

        sqrt(Q) = 2 cosh(lam) makes e^lam complex of unit modulus when
        Q < 4; the arrow-model partition function then carries a vanishing
        imaginary part while Q^{MN/2} Z_6V stays equal to Z_P.
        """
        import cmath

        rQ = math.sqrt(Q)
        x1 = (eK1 - 1) / rQ
        x2 = (eK2 - 1) / rQ
        if Q >= 4:
            elam = (rQ + math.sqrt(Q - 4)) / 2
            half = math.sqrt(elam)
        else:
            elam = (rQ + 1j * math.sqrt(4 - Q)) / 2
            half = cmath.sqrt(elam)
        return cls(
            w_odd=(1, 1, x1, x1, 1 + x1 * elam, 1 + x1 / elam),
            w_even=(x2, x2, 1, 1, x2 + elam, x2 + 1 / elam),
            b_down=half,
            b_up=1 / half,
        )

    @classmethod
    def _build(cls, x1, x2, ehalf):
        elam = ehalf * ehalf
        ielam = 1 / elam
        w_odd = (1, 1, x1, x1, 1 + x1 * elam, 1 + x1 * ielam)
        w_even = (x2, x2, 1, 1, x2 + elam, x2 + ielam)
        return cls(w_odd=w_odd, w_even=w_even, b_down=ehalf, b_up=1 / ehalf)

    @classmethod
    def homogeneous(cls, x, elam):
        """Both row types carry the K1 weight set (the Bethe-solvable model)."""
        ielam = 1 / elam
        w = (1, 1, x, x, 1 + x * elam, 1 + x * ielam)
        half = math.sqrt(elam)
        return cls(w_odd=w, w_even=w, b_down=half, b_up=1 / half)


def _apply_vertex(vec: dict, i: int, j: int, w: tuple) -> dict:
    """One vertex acting on bit positions (i, j) = (left, right)."""
    w1, w2, w3, w4, w5, w6 = w
    bi, bj = 1 << i, 1 << j
    out: dict = {}
    for state, amp in vec.items():
        a = state & bi
        b = state & bj
        if a and b:
            v = amp * w2
            if v:
                out[state] = out.get(state, 0) + v
        elif not a and not b:
            v = amp * w1
            if v:
                out[state] = out.get(state, 0) + v
        elif a:  # (1, 0): stay w5 or hop right w3
            v = amp * w5
            if v:
                out[state] = out.get(state, 0) + v
            v = amp * w3
            if v:
                ns = state ^ bi ^ bj
                out[ns] = out.get(ns, 0) + v
        else:  # (0, 1): stay w6 or hop left w4
            v = amp * w6
            if v:
                out[state] = out.get(state, 0) + v
            v = amp * w4
            if v:
                ns = state ^ bi ^ bj
                out[ns] = out.get(ns, 0) + v
    return out


def _apply_t1(vec: dict, N: int, w: tuple) -> dict:
    for k in range(1, N):
        vec = _apply_vertex(vec, 2 * k - 1, 2 * k, w)
    return vec


def _apply_t2(vec: dict, N: int, w: tuple) -> dict:
    for j in range(N):
        vec = _apply_vertex(vec, 2 * j, 2 * j + 1, w)
    return vec


def _boundary_vector(N: int, b_down, b_up) -> dict:
    vec = {0: 1}
    for j in range(N):
        nxt = {}
        for state, amp in vec.items():
            nxt[state | (1 << (2 * j))] = amp * b_down  # (down, up)
            nxt[state | (1 << (2 * j + 1))] = amp * b_up  # (up, down)
        vec = nxt
    return vec


def sixvertex_partition(spec: LatticeSpec, weights: SixVertexWeights):
    """Z_6V by transfer contraction: boundary, then T1 (T2 T1)^(M-1), then boundary."""
    M, N = spec.M, spec.N
    if N > SIXV_MAX_COLS:
        raise SizeGuardError(f"N = {N} exceeds the contraction guard")
    vec = _boundary_vector(N, weights.b_down, weights.b_up)
    vec = _apply_t1(vec, N, weights.w_odd)
    for _ in range(M - 1):
        vec = _apply_t2(vec, N, weights.w_even)
        vec = _apply_t1(vec, N, weights.w_odd)
    top = _boundary_vector(N, weights.b_down, weights.b_up)
    total = 0
    for state, amp in top.items():
        v = vec.get(state)
        if v is not None:
            total = total + amp * v
    return total


def sixvertex_equivalent_potts(spec: LatticeSpec, pt) -> tuple:
    """(Z_6V, Q^{MN/2} Z_6V) at a SpectralParams (float) or RationalPoint (exact)."""
    if isinstance(pt, RationalPoint):
        weights = SixVertexWeights.from_rational(pt)
        sqrt_q_factor = pt.sqrt_Q ** (spec.M * spec.N)
    else:
        weights = SixVertexWeights.from_spectral(pt)
        sqrt_q_factor = math.sqrt(pt.Q) ** (spec.M * spec.N)
    z6 = sixvertex_partition(spec, weights)
    return z6, sqrt_q_factor * z6


# ----------------------------------------------------------------------------
# the gauged series contraction as dicts (reference of the packed kernel)
# ----------------------------------------------------------------------------
#
# Amplitudes are dicts {(tdeg, sdeg): int} keyed by 2N-bit states, and every
# move of ``potts_sd.lattice``'s tables is applied monomial by monomial.

_TOP = {"5": ((1, 0, 0),), "46": ((1, 0, 0),)}  # (down, up) and (up, down) -> (down, up): 1


def _poly_mul_add(dst: dict, src: dict, mono, order: int):
    c, dt, ds = mono
    for (td, sd), v in src.items():
        nt = td + dt
        if nt > order:
            continue
        key = (nt, sd + ds)
        nv = dst.get(key, 0) + c * v
        if nv:
            dst[key] = nv
        else:
            del dst[key]


def _apply_vertex_poly(vec: dict, i: int, j: int, table: dict, order: int) -> dict:
    bi, bj = 1 << i, 1 << j
    out: dict = {}

    def emit(state, amp, monos):
        dst = out.get(state)
        if dst is None:
            dst = {}
            out[state] = dst
        for mono in monos:
            _poly_mul_add(dst, amp, mono, order)
        if not dst:
            del out[state]

    t00, t11, t35, t46, t5, t6 = (table.get(k, ()) for k in ("00", "11", "35", "46", "5", "6"))
    for state, amp in vec.items():
        a = state & bi
        b = state & bj
        if a and b:
            emit(state, amp, t11)
        elif not a and not b:
            emit(state, amp, t00)
        elif a:
            emit(state, amp, t5)
            emit(state ^ bi ^ bj, amp, t35)
        else:
            emit(state, amp, t6)
            emit(state ^ bi ^ bj, amp, t46)
    return out


def dict_z_normalized(spec: LatticeSpec, order: int) -> list:
    """``lattice._series_z_normalized`` as a fold of ``_apply_vertex_poly``.

    After the m-th T1 row the ``_TOP`` row is folded onto that row's vector
    (``_apply_vertex_poly`` builds new dicts, so the sweep goes on from it
    intact), leaving the height-m contraction in the dominant state.
    """
    M, N = spec.M, spec.N

    def pairs(first, rest):
        return [(0, 1, first)] + [(2 * j, 2 * j + 1, rest) for j in range(1, N)]

    t1 = [(2 * k - 1, 2 * k, lattice._T1_GAUGED) for k in range(1, N)]
    t2_t1 = pairs(lattice._pass_through(lattice._T2_GAUGED), lattice._T2_GAUGED) + t1
    rows = [pairs(lattice._pass_through(lattice._BOTTOM), lattice._BOTTOM) + t1] + (M - 1) * [t2_t1]
    dominant = sum(1 << (2 * j) for j in range(N))
    vec: dict = {dominant: {(0, 0): 1}}
    heights = []
    for row in rows:
        for i, j, table in row:
            vec = _apply_vertex_poly(vec, i, j, table, order)
        top = vec
        for i, j, table in pairs(_TOP, _TOP):
            top = _apply_vertex_poly(top, i, j, table, order)
        heights.append(top.get(dominant, {}))
    return heights


# ----------------------------------------------------------------------------
# the lattice route's logarithms and de Neef-Enting sums as series arithmetic
# ----------------------------------------------------------------------------


def fraction_series_logZ(raws: list, N: int, order: int) -> list:
    """``lattice.series_logZ`` on every height of the width-N sweep ``raws``
    (``lattice._series_z_normalized``'s output) as ``TruncatedSeries`` sums:
    the log of each contraction plus its three unit logarithms."""
    log_u1 = log_geometric_inverse(1, 2, 1, order)
    log_u2 = log_geometric_inverse(1, 2, -1, order)
    log_1pt4 = -log_geometric_inverse(-1, 4, 0, order)
    out = []
    for m, raw in enumerate(raws, 1):
        zpoly = TruncatedSeries.from_terms(((v, td, sd) for (td, sd), v in raw.items()), order=order)
        out.append(zpoly.log() + m * (N - 1) * log_u1 + N * (m - 1) * log_u2 + m * N * log_1pt4)
    return out


def fraction_extract_free_energies(table: dict, order: int) -> FreeEnergyBundle:
    """``lattice.extract_free_energies``, without its spare-diagonal check, as
    ``TruncatedSeries`` sums: every free energy is the fold of w * G(cell)
    over its cell weights."""
    K = order // 2 + 2
    rectangles = [(m, n) for m in range(1, K) for n in range(1, K + 1 - m)]

    def energy(weight):
        folded: dict = {}
        for m, n in rectangles:
            for cell, c in lattice._cluster_weights(m, n).items():
                folded[cell] = folded.get(cell, 0) - weight(m, n) * c
        return sum((w * table[cell] for cell, w in folded.items() if w), TruncatedSeries.zero(order))

    return FreeEnergyBundle(
        f_b=LogSeries(Fraction(1), energy(lambda m, n: 1)),
        f_s=energy(lambda m, n: 1 - n),
        f_sp=energy(lambda m, n: 1 - m),
        f_c=energy(lambda m, n: (1 - m) * (1 - n)),
        route="lattice",
        meta={"rectangles": rectangles, "spare_diagonal": [(m, K + 1 - m) for m in range(1, K + 1)], "order": order},
    )


def table_with_shifted_energy(table: dict, energy: str, delta: TruncatedSeries) -> dict:
    """``table`` with one free energy ("f_b", "f_s", "f_sp" or "f_c") moved
    by ``delta`` in every G(m, n) = -mn f_b - m f_s - n f'_s - f_c.  The
    spare diagonal still vanishes, so only a comparison with the closed
    forms sees it."""
    weight = {"f_b": lambda m, n: m * n, "f_s": lambda m, n: m, "f_sp": lambda m, n: n, "f_c": lambda m, n: 1}[energy]
    return {(m, n): g - weight(m, n) * delta for (m, n), g in table.items()}


# ----------------------------------------------------------------------------
# homogeneous double-row arrow operator (the Bethe cross-check target)
# ----------------------------------------------------------------------------

def double_row_matrix(N: int, q: float, w: float):
    """Dense T1*T2 of the homogeneous arrow model on the N-down sector.

    Returns (matrix, states).  Its dominant eigenvalue is the quantity the
    open-boundary root equations parameterize.
    """
    sp = SpectralParams(q, w)
    cp = couplings(sp)
    weights = SixVertexWeights.homogeneous(cp.x, 1 / math.sqrt(q))
    states = sector_states(N)
    index = {s: k for k, s in enumerate(states)}
    dim = len(states)
    mat = np.zeros((dim, dim))
    for k, s in enumerate(states):
        vec = {s: 1.0}
        vec = _apply_t2(vec, N, weights.w_even)
        vec = _apply_t1(vec, N, weights.w_odd)
        for s2, amp in vec.items():
            mat[index[s2], k] += amp
    return mat, states


def dominant_eigenvalue(mat: np.ndarray) -> float:
    vals = np.linalg.eigvals(mat)
    k = int(np.argmax(vals.real))
    v = vals[k]
    if abs(v.imag) > 1e-9 * max(1.0, abs(v.real)):
        raise ConvergenceError("dominant eigenvalue is not real")
    return float(v.real)


def power_law_limit(rows) -> float:
    """The f of f_N = f + b/N^2 + c/N^3 solved on the last three of the
    ``bethe.surface_convergence`` rows: a Richardson extrapolation."""
    m = np.array([[1.0, r.N**-2.0, r.N**-3.0] for r in rows[-3:]])
    return float(np.linalg.solve(m, np.array([r.f_s_N for r in rows[-3:]]))[0])


# ----------------------------------------------------------------------------
# dense spin-basis transfer matrices: the matrix-level inversion identities
# ----------------------------------------------------------------------------

TRANSFER_MAX_DIM = 4096


def _spin_dim(N: int, Q: int) -> int:
    """Q^N, the size of the spin-row space, guarded before any allocation."""
    dim = Q**N
    if dim > TRANSFER_MAX_DIM:
        raise SizeGuardError(f"Q^N = {dim} exceeds the dense transfer-matrix guard {TRANSFER_MAX_DIM}")
    return dim


def _t1_diagonal(N: int, Q: int, eK1: float) -> np.ndarray:
    """The diagonal of the K1 row factor T1: exp(K1 * equal horizontal pairs)."""
    states = np.arange(_spin_dim(N, Q))
    digits = (states[:, None] // (Q ** np.arange(N))[None, :]) % Q
    eq = (digits[:, :-1] == digits[:, 1:]).sum(axis=1)
    return np.asarray(eK1, dtype=float) ** eq if eK1 > 0 else (eK1 + 0j) ** eq


def _kron_power(site: np.ndarray, N: int) -> np.ndarray:
    """site (x) ... (x) site, N factors: a site-local map on every spin of the row."""
    _spin_dim(N, len(site))
    out = site
    for _ in range(N - 1):
        out = np.kron(out, site)
    return out


def _site_matrix(Q: int, eK2) -> np.ndarray:
    b = np.ones((Q, Q), dtype=float)
    np.fill_diagonal(b, eK2)
    return b


def _site_sqrt(Q: int, eK2, allow_complex: bool = False) -> np.ndarray:
    """Analytic square root of the site matrix a*I + b*J.

    Eigenvalues eK2 - 1 (multiplicity Q-1) and eK2 + Q - 1 (the all-ones
    direction).  Real only when both are positive.
    """
    lam1 = eK2 - 1.0
    lam2 = eK2 + Q - 1.0
    if (lam1 < 0 or lam2 < 0) and not allow_complex:
        raise DomainError("site matrix not positive semidefinite; square root undefined over reals")
    import cmath

    s1 = cmath.sqrt(lam1) if lam1 < 0 else math.sqrt(lam1)
    s2 = cmath.sqrt(lam2) if lam2 < 0 else math.sqrt(lam2)
    dtype = complex if (isinstance(s1, complex) or isinstance(s2, complex)) else float
    J = np.ones((Q, Q), dtype=dtype) / Q
    I = np.eye(Q, dtype=dtype)
    return s1 * (I - J) + s2 * J


def potts_transfer_V(N: int, Q: int, eK1, eK2, *, allow_complex: bool = False) -> np.ndarray:
    """V = T2^{1/2} T1 T2^{1/2} on the Q^N spin rows.

    Complex entries appear only at coupling-inverted points, where
    exp(K2) < 0 (pass ``allow_complex``).
    """
    S = _kron_power(_site_sqrt(Q, eK2, allow_complex), N)
    return S @ (_t1_diagonal(N, Q, eK1)[:, None] * S)


def potts_transfer_T1(N: int, Q: int, eK1) -> np.ndarray:
    """The dense K1 row factor: exp(K1 * equal horizontal pairs) on the diagonal."""
    return np.diag(_t1_diagonal(N, Q, eK1))


def potts_transfer_T2(N: int, Q: int, eK2) -> np.ndarray:
    """The K2 row factor: the site matrix (exp(K2) on the diagonal, 1 off it) on every spin."""
    return _kron_power(_site_matrix(Q, eK2), N)


def max_eigenvalue(mat: np.ndarray):
    """Dominant eigenpair of a real symmetric transfer matrix."""
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2)
    k = int(np.argmax(vals))
    val, vec = vals[k], vecs[:, k]
    resid = np.linalg.norm(mat @ vec - val * vec) / max(abs(val), 1e-300)
    if resid > 1e-10:
        raise ConvergenceError(f"dense eigenpair residual {resid}")
    return val, vec


def transfer_inversion_defects(N: int, Q: int, cp, cpi, xi) -> dict:
    """The dense products T1(u)T1(lam-u), T2(u)T2(lam-u) and V(u)V(lam-u),
    with the couplings ``cp`` at u and ``cpi`` at lam - u, against 1,
    xi^N 1 and xi^N 1: the largest entry of each difference, relative."""
    one = np.eye(Q**N)
    target = xi**N
    t1 = potts_transfer_T1(N, Q, cp.eK1) @ potts_transfer_T1(N, Q, cpi.eK1)
    t2 = potts_transfer_T2(N, Q, cp.eK2) @ potts_transfer_T2(N, Q, cpi.eK2)
    v = potts_transfer_V(N, Q, cp.eK1, cp.eK2) @ potts_transfer_V(N, Q, cpi.eK1, cpi.eK2, allow_complex=True)
    return {
        "T1": float(np.abs(t1 - one).max()),
        "T2": float(np.abs(t2 - target * one).max() / abs(target)),
        "V": float(np.abs(v - target * one).max() / abs(target)),
    }


# ----------------------------------------------------------------------------
# exact points, the coupling duality, the Bethe start, a direct series inverse
# and a direct product expansion
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPoint:
    """An exact parameter point: t and s rational, q = t^4, w^2 = s t^2.

    Used by the exact-arithmetic lattice routes, where every vertex weight
    is a Fraction.
    """

    t: Fraction
    s: Fraction

    def __post_init__(self):
        if not (0 < self.t < 1):
            raise DomainError("t must lie in (0, 1)")
        if self.s <= 0:
            raise DomainError("s must be positive")

    @property
    def q(self) -> Fraction:
        return self.t**4

    @property
    def w2(self) -> Fraction:
        return self.s * self.t**2

    @property
    def Q(self) -> Fraction:
        return self.q + 2 + 1 / self.q

    @property
    def sqrt_Q(self) -> Fraction:
        return (1 + self.t**4) / self.t**2

    def to_float(self) -> SpectralParams:
        return SpectralParams(float(self.q), math.sqrt(float(self.w2)))


def dual_couplings(K1, K2, Q, swap_rows: bool = True):
    """Duality map on the couplings.

    With ``swap_rows`` (the row-interchange form) the map is
    exp(K1*) = (exp(K2)+Q-1)/(exp(K2)-1), exp(K2*) = (exp(K1)+Q-1)/(exp(K1)-1);
    the self-dual surface x1 x2 = 1 is then pointwise fixed, (K1, K2) ->
    (K1, K2).  Without it each coupling maps to its own bond-local dual,
    and the self-dual point swaps the couplings, (K1, K2) -> (K2, K1).
    Either form is an involution.
    """
    eK1, eK2 = math.exp(K1), math.exp(K2)
    if eK1 <= 1 or eK2 <= 1:
        raise DomainError("dual couplings require exp(K) > 1 on both bonds")
    d1 = math.log((eK1 + Q - 1) / (eK1 - 1))
    d2 = math.log((eK2 + Q - 1) / (eK2 - 1))
    if swap_rows:
        return d2, d1
    return d1, d2

def limit_eigenvalue(N: int, q: float, w: float) -> float:
    """The (q, w) -> 0 value w^{2N}/q^N the continuation starts from."""
    return w ** (2 * N) / q**N


def geometric_inverse(coeff, tdeg: int, sdeg: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """1 / (1 - coeff * s**sdeg * t**tdeg) expanded directly (tdeg > 0)."""
    if tdeg <= 0:
        raise TruncationError("geometric inverse needs positive t-degree")
    terms = []
    k = 0
    c = 1
    while tdeg * k <= order:
        terms.append((c, tdeg * k, sdeg * k))
        k += 1
        c = c * coeff
    return TruncatedSeries.from_terms(terms, order=order)


def expand_product(factors, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Expand a finite-by-truncation infinite product.

    Each factor is (coeff, sdeg, t0deg, tstep, expo) and contributes

        prod_{k>=0} (1 - coeff * s**sdeg * t**(t0deg + tstep*k)) ** expo

    Only the finitely many k with t0deg + tstep*k <= order matter.  A factor
    whose k=0 monomial has t-degree <= 0, or with tstep <= 0, cannot truncate
    and is rejected.
    """
    out = TruncatedSeries.one(order)
    for coeff, sdeg, t0, tstep, expo in factors:
        if t0 <= 0 or tstep <= 0:
            raise TruncationError("non-truncating product factor (t-degree <= 0)")
        k = 0
        while t0 + tstep * k <= order:
            base = TruncatedSeries.one(order) - TruncatedSeries.term(
                coeff, t0 + tstep * k, sdeg, order=order
            )
            out = out * base.pow(expo)
            k += 1
    return out


def eval_s(series: TruncatedSeries, s) -> TruncatedSeries:
    """``series`` with an exact value substituted for s, keeping the t-grading."""
    out = {}
    for d, p in series.coeffs.items():
        v = p.eval(s)
        if v != 0:
            out[d] = LaurentPolyS.const(v)
    return TruncatedSeries(series.order, out)


# ----------------------------------------------------------------------------
# the Lambert sums by their double loop, and the hand-typed product forms
# ----------------------------------------------------------------------------

def lambert_sum_loop(numer, denom_tstep: int, denom_sign: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """sum_{n>=1} (sum_j c_j s^(sstep_j n) t^(tstep_j n)) / (n (1 + denom_sign t^(denom_tstep n))),
    expanded term by term over n and the geometric series of the denominator:
    the reference of ``qseries.lambert_sum``, which expands the same list as
    a product."""
    if denom_sign not in (1, -1):
        raise ValueError("denom_sign must be +1 or -1")
    if denom_tstep <= 0:
        raise TruncationError("denominator power must carry positive t-degree")
    terms = []
    for c, tstep, sstep in numer:
        if c == 0:
            continue
        if tstep <= 0:
            raise TruncationError("numerator term with nonpositive t-degree; sum does not truncate")
        terms.append((c, tstep, sstep))
    out = TruncatedSeries.zero(order)
    if not terms:
        return out
    acc: list[tuple] = []
    n = 1
    while any(tstep * n <= order for _, tstep, _ in terms):
        for c, tstep, sstep in terms:
            base = tstep * n
            if base > order:
                continue
            m = 0
            while base + denom_tstep * n * m <= order:
                coeff = Fraction(c, n) * (-denom_sign) ** m
                acc.append((coeff, base + denom_tstep * n * m, sstep * n))
                m += 1
        n += 1
    return TruncatedSeries.from_terms(acc, order=order)


# The continuations of exp of the Lambert sums and the corner product with
# their q-Pochhammer symbols typed by hand: the references of
# ``closedform._exp_lambert``, which reads the symbols off the Lambert lists.

def _expL(x: float, q: float) -> float:
    """exp(sum_n x^n (1-q^n)/(n(1+q^n))) = (xq;q^2)^2 / ((x;q^2)(xq^2;q^2))."""
    return cf._qprod([x * q, x * q], [x, x * q * q], q * q, 1e-19, f"q = {q}")


def _expA(x: float, q: float) -> float:
    """exp(sum_n x^n (1+q^n)/(n(1+q^{2n}))) = (xq^2;q^4)(xq^3;q^4) / ((x;q^4)(xq;q^4))."""
    return cf._qprod([x * q * q, x * q**3], [x, x * q], q**4, 1e-19, f"q = {q}")


def _expB(x: float, q: float) -> float:
    """exp(sum_n x^n (1-q^n)/(n(1+q^{2n}))) = (xq;q^4)(xq^2;q^4) / ((x;q^4)(xq^3;q^4))."""
    return cf._qprod([x * q, x * q * q], [x, x * q**3], q**4, 1e-19, f"q = {q}")


# f_s's log form, f_s = log((1-q^2/w^2)/(1-w^2)) - log G, with log G the sum
# sum_n q^n (1+q^n)(w^{2n}-q^{2n} w^{-2n}) / (n(1+q^{2n}))
SURFACE_LOG_LAMBERT = (((1, 6, 1), (1, 10, 1), (-1, 10, -1), (-1, 14, -1)), 8, +1)


# list name -> (the Lambert list, exp of its sum at (q, w^2) typed)
TYPED_EXP_LAMBERT = {
    "BULK_LAMBERT": (cf.BULK_LAMBERT, lambda q, w2: _expL(w2, q) * _expL(q / w2, q)),
    "SURFACE_V_LAMBERT": (cf.SURFACE_V_LAMBERT, lambda q, w2: _expB(w2, q) / _expB(q * q / w2, q)),
    "SURFACE_H_LAMBERT": (cf.SURFACE_H_LAMBERT, lambda q, w2: _expB(q / w2, q) / _expB(q * w2, q)),
    "BULK_COUPLING_LAMBERT": (cf.BULK_COUPLING_LAMBERT, lambda q, w2: _expL(q * w2, q) * _expL(q * q / w2, q)),
    "SURFACE_LOG_LAMBERT": (SURFACE_LOG_LAMBERT, lambda q, w2: _expA(q * w2, q) / _expA(q**3 / w2, q)),
}


def f_bulk_series_coupling(order: int = DEFAULT_ORDER) -> LogSeries:
    """f_b = -K1 - K2 - log(1+q) + S_b as log(q) + series: the reference of
    ``closedform.f_bulk_series``, the other sum."""
    s = lambert_sum(*cf.BULK_COUPLING_LAMBERT, order)
    return LogSeries(Fraction(1), s - cf.rational_series(cf._bulk_prefactor, order).log())


def f_surface_v_log(sp: SpectralParams) -> float:
    """f_s = log((1-q^2/w^2)/(1-w^2)) - log G: the reference of
    ``closedform.f_surface_v``, the other sum."""
    q, w2 = sp.q, sp.w2
    return math.log(cf._surface_prefactor(q, w2)) - cf._lambert_float(SURFACE_LOG_LAMBERT, q, w2)


def f_surface_v_series_log(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """``f_surface_v_log`` as an exact series in t."""
    return cf.rational_series(cf._surface_prefactor, order).log() - lambert_sum(*SURFACE_LOG_LAMBERT, order)


def inversion_lambert(lambert):
    """A Lambert list at lam - u: w^2 -> q^2/w^2 sends q^a w^{2b} to
    q^{a+2b} w^{-2b}, i.e. (c, tstep, sstep) to (c, tstep + 4 sstep, -sstep).
    The reference of ``relations._image_families`` for the lists whose image
    truncates."""
    numer, dstep, dsign = lambert
    return [(c, tstep + 4 * sstep, -sstep) for c, tstep, sstep in numer], dstep, dsign


# f'_s's lam - u image, exp(-B(w^2/q)) with B = SURFACE_H_LAMBERT's sum, as typed
# families (sdeg, t0deg, tstep, expo) of ``log_product``; its first factor,
# 1 - w^2/q = 1 - s t^-2, does not truncate and is left out.  With
# ``lambert_sum([(1, 10, -1), (-1, 14, -1)], 8, +1)`` it is the image that
# ``relations._image_families`` derives.
SURFACE_H_IMAGE_PRODUCT = ((1, 14, 16, 1), (1, 10, 16, 1), (1, 2, 16, -1), (1, 6, 16, -1))


# f_b's sum S_b = L(w^2) + L(q/w^2), L(x) = sum_n x^n (1-q^n)/(n(1+q^n)), at
# lam - u: L(q^2/w^2) is the list ``lambert_sum([(1, 6, -1), (-1, 10, -1)], 4, +1)``,
# and L(w^2/q) = log[(xq;q^2)^2 / ((x;q^2)(xq^2;q^2))] at x = s t^-2 is these
# typed families, less its first factor 1 - w^2/q = 1 - s t^-2, which does
# not truncate.  Together they are the image ``relations._image_families``
# derives.
BULK_IMAGE_PRODUCT = ((1, 2, 8, 2), (1, 6, 8, -2))


# VJ's corner product, exp(-f_c) = 1 / prod_k (1-q^{4k-3})(1-q^{4k-2})^4 (1-q^{4k-1}),
# as the families (sdeg, t0deg, tstep, expo) of ``qseries.log_product``
CORNER_PRODUCT = ((0, 4, 16, -1), (0, 8, 16, -4), (0, 12, 16, -1))


def typed_corner_log(q, tiny, what: str):
    """f_c = log[(q;q^4)(q^2;q^4)^4(q^3;q^4)] for a float or an mpmath q."""
    log = getattr(q, "context", math).log
    p = lambda a: log(cf._qprod([a], [], q**4, tiny, what))
    return p(q) + 4 * p(q * q) + p(q**3)
