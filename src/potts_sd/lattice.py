"""Exact finite-lattice partition functions and free-energy extraction.

Geometry and conventions
------------------------

The spin model lives on M rows x N columns with free boundaries; its
partition function is Z_P = sum_sigma exp[K1 * (equal horizontal pairs)
+ K2 * (equal vertical pairs)].  The equivalent arrow model lives on the
diagonal (medial) lattice: between consecutive vertex rows there are 2N
diagonal edges carrying arrows, encoded as 2N bits (bit = 1 for a down
arrow).  Down arrows are conserved row to row, and the top/bottom boundary
vertices force exactly one down arrow per adjacent edge pair, hence N in
total.

Row operators (fixed empirically by the Z_P = Q^{MN/2} Z_6V identity on
brute-force lattices, with the generic contraction now in ``tests/oracles.py``):

  T1 rows appear M times.  They carry the K1 weight set
      (1, 1, x1, x1, 1 + x1*e^lam, 1 + x1*e^-lam)
  on the N-1 internal vertices coupling edge pairs (2k, 2k+1) for
  k = 1..N-1 (0-based bit positions), while edges 0 and 2N-1 pass through
  end vertices of weight 1.

  T2 rows appear M-1 times, alternating with T1.  They carry the K2 set
      (x2, x2, 1, 1, x2 + e^lam, x2 + e^-lam)
  on N vertices coupling the pairs (2j, 2j+1) for j = 0..N-1.

  Per vertex, writing the down-bits of the (left, right) edges below and
  above, the six configurations map
      (0,0)->(0,0): w1   (1,1)->(1,1): w2   (1,0)->(0,1): w3
      (0,1)->(1,0): w4   (1,0)->(1,0): w5   (0,1)->(0,1): w6.

  Boundary vectors: per pair, (down, up) carries e^{lam/2} and (up, down)
  carries e^{-lam/2}, at both the bottom and the top.

Pair layout: T2 rows couple (0,1),(2,3),...,(2N-2,2N-1); T1 rows couple
(1,2),(3,4),...,(2N-3,2N-2) with pass-through at 0 and 2N-1.

The exact series route contracts in a gauge where every local weight has
nonnegative t-degree and the dominant configuration carries exactly t^0,
which makes truncation at order T exact; there the bottom boundary and the
edge-0 pass-through are vertex tables too, and the top boundary is a masked
sum (see ``_series_z_normalized``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bundle import FreeEnergyBundle, LogSeries
from .errors import ConvergenceError, DomainError, ExtractionError, SizeGuardError
from .qseries import LaurentPolyS, TruncatedSeries, log_geometric_inverse


@dataclass(frozen=True)
class LatticeSpec:
    """M rows by N columns, free boundaries on all four sides."""

    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 2:
            raise DomainError("need M >= 1 and N >= 2")


# ----------------------------------------------------------------------------
# exact series contraction
# ----------------------------------------------------------------------------
#
# Gauged integer-polynomial weights.  A table maps each vertex move, named by
# its weights in the module docstring ("00" w1, "11" w2, "35" w3, "46" w4,
# "5" w5, "6" w6), to (coeff, tdeg, sdeg) monomials; a move the table lacks
# has weight 0.  Every coeff is +-1 and no entry has more than two monomials.
# The contraction is one fold of ``_apply_move`` over (i, i + 1, table)
# moves, from the dominant state (down arrows on the even bits) at
# amplitude 1: ``_BOTTOM`` on each pair keeps (down, up) at 1 and hops to
# (up, down) at t^2.  The edge-0 pass-through of a T1 row (t^2 when up; edge
# 2N-1 passes at 1) is folded into the pair-(0, 1) vertex just before the
# row (``_pass_through``).  Every move has nonnegative t-degree and the
# dominant configuration picks up exactly degree 0, so dropping any term of
# degree > T is exact.  The factored-out unit denominators are restored once
# at the end:
#
#   t^{2MN} Z_6V = (contraction) * u1^{M(N-1)} * u2^{N(M-1)},
#   u1 = 1/(1 - s t^2),  u2 = 1/(1 - t^2/s).
#
# The live vector is two int64 arrays: sorted distinct keys and their nonzero
# coefficients.  A term (state, tdeg, sdeg) is packed as the key
#
#   state << (TB + SB) | tdeg << SB | (sdeg + offset)
#
# (``_key_layout``), so each monomial of a move, hop included, adds one
# constant to the key: a hop adds 2^{i+1} - 2^i to the state from (1, 0) and
# subtracts it from (0, 1).  A move classifies each term by its two bits,
# emits every monomial of its class as one sorted run, drops the terms past
# degree T, and merges equal keys by a stable sort and ``np.add.reduceat``.
# The top boundary maps (down, up) and (up, down) of every pair onto (down,
# up) at 1 and drops (up, up) and (down, down), so height m is the sum, per
# (tdeg, sdeg), over the states with exactly one down arrow in every pair
# (2j, 2j+1) of the vector after the m-th T1 row (``_top_sum``).
#
# Guards.  A key wider than ``_KEY_BITS`` raises SizeGuardError before any
# contraction starts.  After every move, a coefficient of size
# ``_COEFF_LIMIT`` raises ArithmeticError (at most 4 terms feed one key, so
# sums stay below 2^62), and so does an s field within ``reach`` of either
# end, where the next move could carry into the t field.

_T1_GAUGED = {
    "00": ((1, 2, 0), (-1, 4, 1)),  # t^2 (1 - s t^2)
    "11": ((1, 0, 0), (-1, 2, 1)),  # 1 - s t^2
    "35": ((1, 0, 1), (-1, 2, 0)),  # hop right: s - t^2
    "46": ((1, 2, 1), (-1, 4, 0)),  # hop left:  t^2 (s - t^2)
    "5": ((1, 0, 1), (-1, 4, 1)),  # stay (1,0): s (1 - t^4)
    "6": ((1, 0, 0), (-1, 4, 0)),  # stay (0,1): 1 - t^4
}
_T2_GAUGED = {
    "00": ((1, 0, -1), (-1, 2, 0)),  # 1/s - t^2
    "11": ((1, 2, -1), (-1, 4, 0)),  # t^2 (1/s - t^2)
    "35": ((1, 2, 0), (-1, 4, -1)),  # hop right: t^2 (1 - t^2/s)
    "46": ((1, 0, 0), (-1, 2, -1)),  # hop left: 1 - t^2/s
    "5": ((1, 0, 0), (-1, 4, 0)),  # stay (1,0): 1 - t^4
    "6": ((1, 0, -1), (-1, 4, -1)),  # stay (0,1): (1 - t^4)/s
}
_BOTTOM = {"5": ((1, 0, 0),), "35": ((1, 2, 0),)}  # (down, up): 1, hop to (up, down): t^2

_KEY_BITS = 63  # a key is a nonnegative int64
_COEFF_LIMIT = 1 << 60


def _pass_through(table: dict) -> dict:
    """``table`` times the T1 edge-0 weight: t^2 on every move that leaves the left edge up."""
    return {k: tuple((c, dt + 2, ds) for c, dt, ds in v) if k in ("00", "35", "6") else v for k, v in table.items()}


class _Layout(NamedTuple):
    """The key layout of one sweep: t field ``tb`` bits, s field ``sb`` bits."""

    order: int
    tb: int
    sb: int
    offset: int  # the s field of sdeg 0
    reach: int  # the largest |sdeg| of one monomial


def _key_layout(spec: LatticeSpec, order: int) -> _Layout:
    """The keys of ``spec`` at ``order``, or SizeGuardError if they need more than ``_KEY_BITS`` bits.

    The t field holds ``order`` plus the largest t-degree one move adds, so
    a move can emit its terms before it drops those past ``order``.  The T2
    and T1 vertex counts times ``reach`` bound -sdeg and sdeg, and the s
    field keeps ``reach`` spare values at either end.  The tables are read
    here, per sweep.
    """
    M, N = spec.M, spec.N
    monos = [m for table in (_T1_GAUGED, _T2_GAUGED, _BOTTOM) for entry in table.values() for m in entry]
    lift = max(dt for _, dt, _ in monos) + 2  # the T1 edge-0 pass-through adds t^2
    reach = max(abs(ds) for _, _, ds in monos)
    low, high = N * (M - 1), M * (N - 1)
    tb, sb = (order + lift).bit_length(), (reach * (low + high + 2)).bit_length()
    if 2 * N + tb + sb > _KEY_BITS:
        raise SizeGuardError(f"{M}x{N} at t^{order} needs {2 * N + tb + sb}-bit keys; the kernel packs {_KEY_BITS}")
    return _Layout(order, tb, sb, reach * (low + 1), reach)


def _check_coefficients(coefs: np.ndarray, fan_in_bits: int, where: str) -> None:
    """ArithmeticError unless any 2^fan_in_bits of these coefficients sum inside int64."""
    if max(coefs.max(initial=0), -coefs.min(initial=0)) >= (_COEFF_LIMIT << 2) >> fan_in_bits:
        raise ArithmeticError(f"packed int64 contraction kernel: a coefficient {where} outgrew its int64 bound")


def _merge(keys: np.ndarray, coefs: np.ndarray) -> tuple:
    """Equal keys summed, sorted by key, zero sums dropped."""
    perm = np.argsort(keys, kind="stable")  # merges the sorted runs
    keys = keys[perm]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    sums = np.add.reduceat(coefs[perm], first)
    live = sums != 0
    return keys[first[live]], sums[live]


def _move_tables(i: int, table: dict, layout: _Layout) -> tuple:
    """(shift of bit i, emissions) of the move on bits (i, i + 1): per class
    bit_i + 2 bit_{i+1}, the (key offset, coeff) of each of its monomials."""
    shift = i + layout.tb + layout.sb
    hop = 1 << shift  # (1, 0) -> (0, 1) adds 2^{i+1} - 2^i to the state
    parts = {0: ((0, "00"),), 1: ((0, "5"), (hop, "35")), 2: ((0, "6"), (-hop, "46")), 3: ((0, "11"),)}
    emissions = [
        (code, [(h + (dt << layout.sb) + ds, c) for h, name in entries for c, dt, ds in table.get(name, ())])
        for code, entries in parts.items()
    ]
    return shift, [(code, monos) for code, monos in emissions if monos]


def _emit(keys: np.ndarray, coefs: np.ndarray, move: tuple, layout: _Layout) -> tuple:
    """Every monomial of ``move`` on every term, one sorted run per monomial, the terms past the order dropped.

    Its own function so that its temporaries are freed before ``_merge``
    allocates: under the CLI's thread pool each worker keeps its peak.
    """
    shift, emissions = move
    code = (keys >> shift) & 3
    classes = [(code == c, monos) for c, monos in emissions]
    size = sum(np.count_nonzero(mask) * len(monos) for mask, monos in classes)
    out_keys, out_coefs = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    at = 0
    for mask, monos in classes:
        ck, cc = keys[mask], coefs[mask]
        for off, c in monos:
            np.add(ck, off, out=out_keys[at : at + len(ck)])
            np.multiply(cc, c, out=out_coefs[at : at + len(ck)])
            at += len(ck)
    tdeg = out_keys >> layout.sb
    tdeg &= (1 << layout.tb) - 1
    keep = tdeg <= layout.order
    return out_keys[keep], out_coefs[keep]


def _apply_move(keys: np.ndarray, coefs: np.ndarray, move: tuple, layout: _Layout) -> tuple:
    keys, coefs = _merge(*_emit(keys, coefs, move, layout))
    _check_coefficients(coefs, 2, "of a move")  # at most 4 terms feed one key
    sfield = keys & ((1 << layout.sb) - 1)
    reach = layout.reach
    if sfield.min(initial=reach) < reach or sfield.max(initial=reach) > (1 << layout.sb) - 1 - reach:
        raise ArithmeticError("packed int64 contraction kernel: an s-degree reached the end of its key field")
    return keys, coefs


def _top_sum(keys: np.ndarray, coefs: np.ndarray, N: int, layout: _Layout) -> dict:
    """The top boundary on the vector: {(tdeg, sdeg): the sum over the states with one down arrow per pair}."""
    low_bits = layout.tb + layout.sb
    even = sum(1 << (2 * j) for j in range(N))
    states = keys >> low_bits
    one_per_pair = ((states ^ (states >> 1)) & even) == even
    coefs = coefs[one_per_pair]
    _check_coefficients(coefs, N, "of the top sum")  # at most 2^N terms feed one key
    low, sums = _merge(keys[one_per_pair] & ((1 << low_bits) - 1), coefs)
    smask = (1 << layout.sb) - 1
    return {(k >> layout.sb, (k & smask) - layout.offset): v for k, v in zip(low.tolist(), sums.tolist())}


def _series_z_normalized(spec: LatticeSpec, order: int) -> list:
    """[t^{2mN} Z_6V / (u1^{m(N-1)} u2^{N(m-1)}) for m = 1..M], each {(tdeg, sdeg): int}.

    One fold of ``_apply_move`` over the bottom boundary and T1 (T2 T1)^(M-1),
    each a row of vertex tables; the pair-(0, 1) vertex before each T1 row
    carries that row's edge-0 pass-through.  After the m-th T1 row the top
    boundary's masked sum reads the height-m contraction off that row's vector.
    """
    M, N = spec.M, spec.N
    layout = _key_layout(spec, order)

    def pairs(first, rest):
        return [_move_tables(0, first, layout)] + [_move_tables(2 * j, rest, layout) for j in range(1, N)]

    t1 = [_move_tables(2 * k - 1, _T1_GAUGED, layout) for k in range(1, N)]
    t2_t1 = pairs(_pass_through(_T2_GAUGED), _T2_GAUGED) + t1
    rows = [pairs(_pass_through(_BOTTOM), _BOTTOM) + t1] + (M - 1) * [t2_t1]
    dominant = sum(1 << (2 * j) for j in range(N))
    keys = np.array([dominant << (layout.tb + layout.sb) | layout.offset], dtype=np.int64)
    coefs = np.ones(1, dtype=np.int64)
    heights = []
    for row in rows:
        for move in row:
            keys, coefs = _apply_move(keys, coefs, move, layout)
        heights.append(_top_sum(keys, coefs, N, layout))
    return heights


def _numerators(log_series: TruncatedSeries) -> dict:
    """{(n, sdeg): n times the t^n s^sdeg coefficient} of a series whose t^n
    coefficients are integers over n, as ``log_geometric_inverse``'s are."""
    return {(n, e): (n * v).numerator for n, p in log_series.coeffs.items() for e, v in p.c.items()}


def series_logZ(spec: LatticeSpec, order: int, heights=None) -> list:
    """[log(q^{mN} Z_P) on m rows by N columns for m in ``heights``], exact
    TruncatedSeries (constant term 0), all from one sweep of
    ``_series_z_normalized``; ``heights`` defaults to 1..M, and only the
    heights it names are logged.

    The ground-state factor q^{-mN} (minimal t-degree of Z_P) is the only
    non-series part of log Z_P and is factored out exactly:
    log Z_P = -mN log q + series_logZ(spec, order)[m - 1].

    Every t^n coefficient is summed as an integer numerator over n: the
    contraction's ``log_numerators`` plus n times the t^n coefficients of
    m(N-1) log u1, N(m-1) log u2 and mN log(1 + t^4)^{-1}, each of which
    is integral too.  Each coefficient is divided by n once, at the end.
    """
    N = spec.N
    log_u1 = _numerators(log_geometric_inverse(1, 2, 1, order))
    log_u2 = _numerators(log_geometric_inverse(1, 2, -1, order))
    log_1pt4 = _numerators(-log_geometric_inverse(-1, 4, 0, order))
    raws = _series_z_normalized(spec, order)
    out = []
    for m in range(1, spec.M + 1) if heights is None else heights:
        coeffs: dict = {}
        for (td, sd), v in raws[m - 1].items():
            coeffs.setdefault(td, {})[sd] = v
        zpoly = TruncatedSeries(order, {d: LaurentPolyS(p) for d, p in coeffs.items()})
        h = {n: dict(hn.c) for n, hn in zpoly.log_numerators().items()}
        # the factored unit denominators
        for weight, unit in ((m * (N - 1), log_u1), (N * (m - 1), log_u2), (m * N, log_1pt4)):
            for (n, e), v in unit.items():
                p = h.setdefault(n, {})
                p[e] = p.get(e, 0) + weight * v
        g = {n: LaurentPolyS({e: Fraction(v, n) for e, v in p.items()}) for n, p in h.items()}
        out.append(TruncatedSeries(order, g))
    return out


def extraction_table(order: int, map=map) -> dict:
    """G(m, n) = series_logZ on every rectangle ``extract_free_energies`` needs.

    With K = order//2 + 2 the table holds all m, n >= 1 with m + n <= K + 1;
    the last diagonal is the spare one.  One sweep per width n = 2 ..
    max(2, (K+1)//2), on ``LatticeSpec(K + 1 - n, n)`` through ``map``,
    gives every height; only (1, 2) and the cells with m >= n are logged
    and kept, so no contraction is wider than min(m, n).  (n, m) is the
    s -> 1/s image of (m, n), G(1, 1) = log(q Q) = 2 log(1 + t^4), and one
    row is a free chain, whose G(1, n) is linear in n.
    """
    K = order // 2 + 2
    specs = [LatticeSpec(K + 1 - n, n) for n in range(2, max(2, (K + 1) // 2) + 1)]
    for spec in specs:
        _key_layout(spec, order)  # every sweep's keys fit before the first one starts

    def sweep(spec):
        n = spec.N
        heights = [m for m in range(1, spec.M + 1) if m >= n or (m, n) == (1, 2)]
        return {(m, n): g for m, g in zip(heights, series_logZ(spec, order, heights))}

    table = {}
    for column in map(sweep, specs):
        table.update(column)
    g11 = -2 * log_geometric_inverse(-1, 4, 0, order)
    step = table[(1, 2)] - g11
    table.update({(1, n): g11 + (n - 1) * step for n in (1, *range(3, K + 1))})
    for m, n in list(table):
        if (n, m) not in table:
            table[(n, m)] = table[(m, n)].subst_s_inv()
    return table


_D2 = (1, -2, 1)  # second-difference stencil


def _cluster_weights(m: int, n: int) -> dict:
    """phi(m, n) = sum_{i,j} c_i c_j G(m-i, n-j) as {(m', n'): c_i c_j}, G = 0 off the quadrant."""
    return {(m - i, n - j): ci * cj for i, ci in enumerate(_D2) for j, cj in enumerate(_D2) if i < m and j < n}


def _weighted_sum(cells: dict, weights: dict) -> dict:
    """sum of w * cell over the nonzero weights, each cell a list of ((tdeg, sdeg), int) terms."""
    acc: dict = {}
    for cell, w in weights.items():
        if w:
            for key, v in cells[cell]:
                acc[key] = acc.get(key, 0) + w * v
    return acc


def extract_free_energies(table: dict, order: int) -> FreeEnergyBundle:
    """The four free energies by the finite-lattice method (de Neef & Enting).

    ``table`` maps (M, N) -> G(M, N) = series_logZ, as ``extraction_table``
    builds it.  With cluster terms phi (``_cluster_weights``),
    log Z(M, N) = sum_{m<=M, n<=N} (M-m+1)(N-n+1) phi(m, n), so
    f_b = -sum phi, f_s = -sum (1-n) phi, f'_s = -sum (1-m) phi and
    f_c = -sum (1-m)(1-n) phi.  phi(m, n) starts at t^{2(m+n)-4}, so the
    sums over m + n <= K = order//2 + 2 are exact through ``order``, and
    every phi on the spare diagonal m + n = K + 1 must vanish through
    ``order``, else an ExtractionError carries the lowest failing t-order.

    The sums run over integers.  Every coefficient the cells hold through
    ``order`` (or through the lowest order of a cell, if that is lower) is
    scaled once by L, the lcm of their denominators; each phi and each free
    energy is summed as {(tdeg, sdeg): int}, and each coefficient of a free
    energy is divided by L once.
    """
    K = order // 2 + 2
    rectangles = [(m, n) for m in range(1, K) for n in range(1, K + 1 - m)]
    spare = [(m, K + 1 - m) for m in range(1, K + 1)]
    missing = [mn for mn in rectangles + spare if mn not in table]
    if missing:
        raise DomainError(f"order {order} needs every rectangle with m + n <= {K + 1}; missing {missing}")

    top = min(order, *(table[mn].order for mn in rectangles + spare))
    cells = {
        mn: [((d, e), v) for d, p in table[mn].coeffs.items() if d <= top for e, v in p.c.items()]
        for mn in rectangles + spare
    }
    L = math.lcm(*(v.denominator for terms in cells.values() for _, v in terms if type(v) is Fraction))
    cells = {
        mn: [(key, v.numerator * (L // v.denominator) if type(v) is Fraction else v * L) for key, v in terms]
        for mn, terms in cells.items()
    }

    failing = []
    for mn in spare:
        degrees = [d for (d, _), v in _weighted_sum(cells, _cluster_weights(*mn)).items() if v]
        if degrees:
            failing.append((min(degrees), mn))
    if failing:
        d, mn = min(failing)
        raise ExtractionError(
            f"spare-diagonal residual phi{mn} nonzero at t^{d}", first_failing_order=d
        )

    def energy(weight):
        folded: dict = {}
        for m, n in rectangles:
            for cell, c in _cluster_weights(m, n).items():
                folded[cell] = folded.get(cell, 0) - weight(m, n) * c
        coeffs: dict = {}
        for (d, e), v in _weighted_sum(cells, folded).items():
            if v:
                coeffs.setdefault(d, {})[e] = Fraction(v, L)
        return TruncatedSeries(top, {d: LaurentPolyS(p) for d, p in coeffs.items()})

    return FreeEnergyBundle(
        f_b=LogSeries(Fraction(1), energy(lambda m, n: 1)),
        f_s=energy(lambda m, n: 1 - n),
        f_sp=energy(lambda m, n: 1 - m),
        f_c=energy(lambda m, n: (1 - m) * (1 - n)),
        route="lattice",
        meta={"rectangles": rectangles, "spare_diagonal": spare, "order": order},
    )


# ----------------------------------------------------------------------------
# spin-basis transfer matrices (the combined operator route)
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
