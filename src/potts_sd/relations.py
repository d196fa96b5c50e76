"""Machine verification of the functional identities.

Six scalar relations tie the free energies at u to those at lam-u
(coupling inversion) and at lam/2-u (lattice rotation):

    f_b(u) + f_b(lam-u) = -log xi(u)        f_b(u) = f_b(lam/2-u)
    f_s(u) + f_s(lam-u) = 0                 f_s(u) = f_sp(lam/2-u)
    f_sp(lam-u) - f_sp(u) = log[Delta(lam-u)/Delta(u)]
                                            f_sp(u) = f_s(lam/2-u)

f_c's two, f_c(u) = f_c(lam-u) = f_c(lam/2-u), say that f_c depends on q
alone; the closed form's f_c has no s to move, so they are checked where
they can fail, on the lattice (``corner_constant``): the extracted f_c
must be s-free and equal the closed form.

xi is negative in the strip, so every log above is asserted in its
exponentiated (multiplicative) form, where the identity is literally true
with real (sometimes negative) values.  Their matrix-level parents are

    T1(u) T1(lam-u) = 1,  T2(u) T2(lam-u) = xi(u)^N 1,
    V(u) V(lam-u) = xi(u)^N 1,  with V = T2^{1/2} T1 T2^{1/2},

algebraic in (Q, e^{K1}, e^{K2}) with e^{K1(lam-u)} = 1/e^{K1(u)},
e^{K2(lam-u)} = 2 - Q - e^{K2(u)} and xi = (e^{K2(u)}-1)(e^{K2(lam-u)}-1).
They are checked in floats at a self-dual point with integer Q, where
the inverted couplings must also equal the couplings at lam - u.

Each inversion relation is written once, in ``INVERSION``: the Lambert
list S of the value ``eval`` prints, two signs and a rational factor R
in (q, w^2), read as exp(sign_u S(u) + sign_i S(lam-u)) R = 1.  Both
rings evaluate that entry.  Floats take S(u) from the printed value and
S(lam-u) from S's product continuation (``closedform._exp_lambert``).
Series mode derives S(lam-u) from S's ``lambert_families``, mapped by
w^2 -> q^2/w^2 (``_image_families``); the factors of the image that do
not truncate join R, which runs exactly and is divided once
(``closedform.rational_series``).  Every series row holds through t^T,
and rotation is the substitution s -> 1/s.  ``corner_float`` compares
f_c's printed sum with its product.

``ROWS`` lists every row ``verify`` prints, with its ring and tolerance.
The group functions below measure ``Defect``s, building their shared
inputs once, and a ``Defect`` reads its tolerance from ``ROWS``;
``run_rows`` runs them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closedform as cf
from .lattice import (
    _t1_diagonal,
    extract_free_energies,
    extraction_table,
    potts_transfer_T2,
    potts_transfer_V,
    max_eigenvalue,
    series_logZ,  # noqa: F401  (an alias perfbench/selftest.py checks the tracer wraps)
)
from .params import SpectralParams, _delta, _exp_K2, _xi, couplings, inversion_image, rotation_image, solve_q_from_Q
from .qseries import lambert_families, lambert_sum, log_product

# The float rows' worst defects are 6.4e-15 (corner_float) and 3.2e-15 or less.
# 1e-11 stays far above rounding in any libm, and two orders below the
# smallest fault the tests make, a 1e-9 scaling.
NUMERIC_TOL = 1e-11

# (identity, ring) -> tol, in the order ``verify`` prints the rows
ROWS = {
    ("transfer_inversion", "float"): NUMERIC_TOL,
    ("combined_transfer_inversion", "float"): NUMERIC_TOL,
    ("inversion_bulk", "float"): NUMERIC_TOL,
    ("inversion_surface_v", "float"): NUMERIC_TOL,
    ("inversion_surface_h", "float"): NUMERIC_TOL,
    ("rotation_bulk", "float"): NUMERIC_TOL,
    ("rotation_surface_sv", "float"): NUMERIC_TOL,
    ("rotation_surface_hs", "float"): NUMERIC_TOL,
    ("corner_float", "float"): NUMERIC_TOL,
    ("inversion_bulk", "series"): 0.0,
    ("inversion_surface_v", "series"): 0.0,
    ("inversion_surface_h", "series"): 0.0,
    ("rotation_bulk", "series"): 0.0,
    ("rotation_surface_sv", "series"): 0.0,
    ("rotation_surface_hs", "series"): 0.0,
    ("corner_constant", "series"): 0.0,
}


@dataclass
class Defect:
    """One row as its group function measures it, passed when the defect is
    within its row's tolerance in ``ROWS`` and ``side_ok``."""

    identity: str
    ring: str
    points: list
    max_defect: float
    details: dict = field(default_factory=dict)
    side_ok: bool = True  # the row's conditions that have no defect of their own

    @property
    def tol(self) -> float:
        return ROWS[self.identity, self.ring]

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tol and self.side_ok

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "points": self.points,
            "max_defect": float(self.max_defect) if math.isfinite(self.max_defect) else None,
            "tol": self.tol,
            "passed": self.passed,
            "ring": self.ring,
            "details": {k: str(v) for k, v in self.details.items()},
        }


def _worst(*defects) -> float:
    """The largest of ``defects``, where a NaN or infinite one counts as
    infinite: Python's ``max`` would drop a NaN that is not first."""
    return max(float(d) if math.isfinite(d) else math.inf for d in defects)


def run_rows(order: int) -> list[Defect]:
    """Every row of ``ROWS``, in order; the series rows run through t^order
    and the lattice row through t^min(order, 12)."""
    # a self-dual point at integer Q, so sp and the spin matrices agree
    sp = _sp_from(solve_q_from_Q(5), 0.3)
    defects = [
        verify_matrix_inversion(3, 5, sp),
        verify_VV(2, 5, sp),
        *verify_free_energy_relations_numeric(),
        *verify_free_energy_relations_series(order),
        verify_fc_constant(min(order, 12)),
    ]
    measured = {(d.identity, d.ring): d for d in defects}
    if measured.keys() != ROWS.keys():
        raise KeyError(f"measured rows and ROWS differ in {measured.keys() ^ ROWS.keys()}")
    return [measured[row] for row in ROWS]


def default_grid():
    """5x5 grid in (q, u/lam) over [0.05,0.35] x [0.1,0.45] plus five pinned
    points inside it, off the lattice."""
    qs = [0.05 + 0.075 * i for i in range(5)]
    fr = [0.10 + 0.0875 * i for i in range(5)]
    return [(q, f) for q in qs for f in fr] + [
        (0.1138211082544621, 0.3367009452236366),
        (0.20574891199653944, 0.10289793287669305),
        (0.083694278548709, 0.15978791731525593),
        (0.15852742853852952, 0.158681828606772),
        (0.07845512120279056, 0.2909186758027964),
    ]


def _sp_from(q: float, ufrac: float) -> SpectralParams:
    lam = -math.log(q) / 2
    u = ufrac * lam
    return SpectralParams(q, math.exp(-2 * u))


# ----------------------------------------------------------------------------
# matrix identities
# ----------------------------------------------------------------------------

def _dual_values(Q, eK1, eK2):
    """Inverted-point couplings and xi, algebraically."""
    eK1i = 1 / eK1
    eK2i = 2 - Q - eK2
    x = (eK2 - 1) * (eK2i - 1)
    return eK1i, eK2i, x


def _inversion_image_defect(sp: SpectralParams, eK1i, eK2i) -> float:
    """Relative distance of the algebraic inverted couplings from ``couplings(inversion_image(sp))``."""
    cpi = couplings(inversion_image(sp))
    return _worst(*(abs(a - b) / max(1.0, abs(a)) for a, b in ((eK1i, cpi.eK1), (eK2i, cpi.eK2))))


def verify_matrix_inversion(N: int, Q: int, sp: SpectralParams) -> Defect:
    """T1(u)T1(lam-u) = 1 and T2(u)T2(lam-u) = xi^N 1 at the couplings of ``sp``.

    T1 is diagonal, so its product is checked on the diagonal.
    T1(u)T1(lam-u) = 1 holds by construction, so the algebraic inverted
    couplings must also equal ``couplings(inversion_image(sp))`` to
    NUMERIC_TOL (``_inversion_image_defect``); with the T2 product that
    fixes xi, and a Q that is not the one of ``sp`` fails the row.
    """
    cp = couplings(sp)
    eK1i, eK2i, xival = _dual_values(Q, cp.eK1, cp.eK2)
    image = _inversion_image_defect(sp, eK1i, eK2i)
    d1 = np.abs(_t1_diagonal(N, Q, cp.eK1) * _t1_diagonal(N, Q, eK1i) - 1).max()
    prod = potts_transfer_T2(N, Q, cp.eK2) @ potts_transfer_T2(N, Q, eK2i)
    target = xival**N * np.eye(Q**N)
    d2 = np.abs(prod - target).max() / max(abs(xival) ** N, 1e-300)
    points = [{"Q": Q, "eK1": cp.eK1, "eK2": cp.eK2}]
    details = {"xi": xival, "inversion_image_defect": image}
    return Defect("transfer_inversion", "float", points, _worst(d1, d2), details, image <= NUMERIC_TOL)


def verify_VV(N: int, Q: int, sp: SpectralParams) -> Defect:
    """V(u)V(lam-u) = xi^N 1 at the couplings of ``sp``, plus the
    paired-eigenvalue corollary; as in ``verify_matrix_inversion``, the
    inverted couplings must meet ``couplings(inversion_image(sp))``."""
    cp = couplings(sp)
    eK1i, eK2i, xival = _dual_values(Q, cp.eK1, cp.eK2)
    v = potts_transfer_V(N, Q, cp.eK1, cp.eK2)
    vi = potts_transfer_V(N, Q, eK1i, eK2i, allow_complex=True)
    prod = v @ vi
    target = xival**N * np.eye(Q**N)
    md = float(np.abs(prod - target).max() / max(abs(xival) ** N, 1e-300))

    # eigenvalue corollary: pair the maximal eigenvector of V(u) with V(lam-u)
    val, vec = max_eigenvalue(v)
    lam_inv = (vec @ (vi @ vec)) / (vec @ vec)
    corr = abs(val * lam_inv - xival**N) / abs(xival) ** N
    sign_ok = (xival**N > 0) == (N % 2 == 0)
    image = _inversion_image_defect(sp, eK1i, eK2i)
    details = {"eigen_corollary_defect": float(corr), "xi_sign_alternates": sign_ok, "inversion_image_defect": image}
    side_ok = corr <= 1e-10 and sign_ok and image <= NUMERIC_TOL
    points = [{"Q": Q, "eK1": cp.eK1, "eK2": cp.eK2}]
    return Defect("combined_transfer_inversion", "float", points, md, details, side_ok)


# ----------------------------------------------------------------------------
# free-energy relations
# ----------------------------------------------------------------------------

# identity -> (closedform's Lambert list S, sign at u, sign at lam - u, R), read as
# exp(sign_u S(u) + sign_i S(lam-u)) R(q, w^2) = 1; R is None where it is 1.
# R uses ``params``' raw forms, so it runs on floats and on exact series alike.
INVERSION = {
    # exp(-f_b(u) - f_b(lam-u)) = xi, with exp(-f_b) = ((1+q)/q) exp(S)
    "inversion_bulk": ("BULK_LAMBERT", +1, +1, lambda q, w2: (1 + q) ** 2 / (q * q * _xi(q, w2))),
    # f_s(u) + f_s(lam-u) = 0
    "inversion_surface_v": ("SURFACE_V_LAMBERT", +1, +1, None),
    # exp(-f_sp(u)) Delta(u) = exp(-f_sp(lam-u)) Delta(lam-u), Delta(lam-u) = 1 - e^{K2(u)}
    "inversion_surface_h": ("SURFACE_H_LAMBERT", -1, +1, lambda q, w2: _delta(q, w2) / (1 - _exp_K2(q, w2))),
}


def _image_families(lambert):
    """The Lambert list's sum at lam - u, as ``log_product`` families and
    split factors.

    w^2 -> q^2/w^2 sends s^b t^a to s^-b t^(a+4b), so each family
    (b, t0, tstep, e) of ``lambert_families`` becomes (-b, t0 + 4b, tstep, e).
    Its factors of t-degree <= 0 do not truncate: each is split off as
    (sdeg, tdeg, e), the factor (1 - s^sdeg t^tdeg)^e, and the family
    starts at its first positive degree.
    """
    families, split = [], []
    for b, t0, tstep, e in lambert_families(*lambert):
        t0 += 4 * b
        while t0 <= 0:
            split.append((-b, t0, e))
            t0 += tstep
        families.append((-b, t0, tstep, e))
    return families, split


def _inversion_float(sp: SpectralParams, at_u: dict) -> dict:
    """identity -> |exp(sign_u S(u) + sign_i S(lam-u)) R - 1| at ``sp``, with
    S(u) read from ``at_u`` (list name -> S(u)) and S(lam-u) the product."""
    q, w2 = sp.q, sp.w2
    out = {}
    for identity, (name, sign_u, sign_i, R) in INVERSION.items():
        lhs = math.exp(sign_u * at_u[name]) * cf._exp_lambert(getattr(cf, name), q, q * q / w2) ** sign_i
        out[identity] = abs(lhs * (1 if R is None else R(q, w2)) - 1)
    return out


def _inversion_series(identity: str, order: int):
    """exp(sign_u S(u) + sign_i S(lam-u)) R - 1 through t^order, with the
    image's split factors (``_image_families``) moved into R."""
    name, sign_u, sign_i, R = INVERSION[identity]
    lambert = getattr(cf, name)
    families, split = _image_families(lambert)
    lhs = (sign_u * lambert_sum(*lambert, order) + sign_i * log_product(families, order)).exp()
    if R is None and not split:
        return lhs - 1

    def rhs(q, w2):
        out = 1 if R is None else R(q, w2)
        for b, d, e in split:  # t^d s^b = q^((d - 2b)/4) w^(2b), exact for lists in (q, w^2)
            out = out * (1 - q ** ((d - 2 * b) // 4) * w2**b) ** (sign_i * e)
        return out

    return lhs * cf.rational_series(rhs, order) - 1


def verify_free_energy_relations_numeric() -> list[Defect]:
    """All six relations at every ``default_grid`` point of (q, u/lam), the
    inversions exponentiated, the rotations relative; f_c's sum against its product."""
    worst = {}
    grid = default_grid()
    for (q, ufrac) in grid:
        sp = _sp_from(q, ufrac)
        rot = rotation_image(sp)
        fb, fs, fsp = cf.f_bulk(sp), cf.f_surface_v(sp), cf.f_surface_h(sp)
        at_u = {"BULK_LAMBERT": math.log(q / (1 + q)) - fb, "SURFACE_V_LAMBERT": fs, "SURFACE_H_LAMBERT": fsp}
        d = {
            **_inversion_float(sp, at_u),
            "rotation_bulk": abs(fb - cf.f_bulk(rot)) / max(abs(fb), 1e-300),
            "rotation_surface_sv": abs(fs - cf.f_surface_h(rot)) / max(abs(fs), 1e-300),
            "rotation_surface_hs": abs(fsp - cf.f_surface_v(rot)) / max(abs(fsp), 1e-300),
        }
        for k, v in d.items():
            worst[k] = _worst(worst.get(k, 0.0), v)
    qs = list(dict.fromkeys(q for q, _ in grid))
    corner = _worst(*(abs(cf.f_corner(q) / cf._corner_log(q, 1e-19, f"q = {q}") - 1) for q in qs))
    return [Defect(k, "float", grid, v) for k, v in worst.items()] + [Defect("corner_float", "float", qs, corner)]


def verify_free_energy_relations_series(order: int = 24) -> list[Defect]:
    """The six relations as exact coefficient identities: the ``INVERSION``
    entries, and rotation as s -> 1/s.  Every defect is an exact series
    that must vanish through t^order."""
    fb = cf.f_bulk_series(order)
    fs = cf.f_surface_v_series(order)
    fsp = cf.f_surface_h_series(order)
    diffs = {identity: _inversion_series(identity, order) for identity in INVERSION}
    diffs["rotation_bulk"] = fb.series.subst_s_inv() - fb.series
    diffs["rotation_surface_sv"] = fsp.subst_s_inv() - fs
    diffs["rotation_surface_hs"] = fs.subst_s_inv() - fsp
    return [
        Defect(k, "series", [{"order": order}], 0.0 if d.order >= order and d.is_zero() else 1.0)
        for k, d in diffs.items()
    ]


def closed_form_matches(bundle, order: int) -> dict:
    """Free-energy name -> whether ``bundle`` equals the closed form through ``order``."""
    ref = cf.series_bundle(order)
    return {name: getattr(bundle, name) == getattr(ref, name) for name in ("f_b", "f_s", "f_sp", "f_c")}


def verify_fc_constant(order: int = 16, table=None) -> Defect:
    """The lattice route against the closed forms: all four extracted free
    energies match, and the extracted corner term is s-free."""
    if table is None:
        table = extraction_table(order)
    bundle = extract_free_energies(table, order)
    sfree = bundle.f_c.s_free()
    matches = closed_form_matches(bundle, order)
    match = all(matches.values())
    return Defect(
        "corner_constant",
        "series",
        [{"order": order, "sizes": sorted(table)}],
        0.0 if sfree and match else 1.0,
        {"s_free": sfree, "matches_closed_form": match, **matches},
    )
