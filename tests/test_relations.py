"""Functional-identity verifiers: matrix level, numeric grid, exact series,
and the fault table that makes every row of ``verify`` fail."""

import csv
import functools
import io
import json
import math
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import potts_sd
from oracles import potts_transfer_T1
from potts_sd import cli, closedform as cf
from potts_sd import relations
from potts_sd.lattice import extraction_table, max_eigenvalue, potts_transfer_T2, potts_transfer_V
from potts_sd.params import couplings, rotation_image, solve_q_from_Q
from potts_sd.qseries import TruncatedSeries

F, S = "float", "series"


# self-dual points at integer Q = 5, 6, 7, where sp and the spin matrices agree
SELF_DUAL = {Q: relations._sp_from(solve_q_from_Q(Q), f) for Q, f in ((5, 0.3), (6, 0.35), (7, 0.2))}


def test_matrix_inversion_float_with_consistent_sp():
    for Q, sp in SELF_DUAL.items():
        r = relations.verify_matrix_inversion(3, Q, sp)
        assert r.passed and r.max_defect <= 1e-11, (Q, r)
        assert r.details["inversion_image_defect"] <= 1e-11


def test_matrix_inversion_rejects_inconsistent_sp():
    # Q = 6 at the Q = 5 point: e^{K2(lam-u)} = 2 - Q - e^{K2(u)} misses the couplings at lam - u
    for r in (relations.verify_matrix_inversion(2, 6, SELF_DUAL[5]), relations.verify_VV(2, 6, SELF_DUAL[5])):
        assert not r.passed and r.details["inversion_image_defect"] > 1e-3, r


def test_vv_float_and_eigen_corollary():
    for Q, sp in SELF_DUAL.items():
        r = relations.verify_VV(2, Q, sp)
        assert r.passed and r.max_defect <= 1e-11, (Q, r)
        assert r.details["eigen_corollary_defect"] <= 1e-10
        assert r.details["xi_sign_alternates"]


def test_vv_eigenvalue_pairing_detail():
    # L(u)^2 L(lam-u)^2 = xi^N via the maximal eigenvector explicitly
    N, Q = 2, 5
    cp = couplings(SELF_DUAL[Q])
    eK1i, eK2i, xival = relations._dual_values(Q, cp.eK1, cp.eK2)
    val, vec = max_eigenvalue(potts_transfer_V(N, Q, cp.eK1, cp.eK2))
    vi = potts_transfer_V(N, Q, eK1i, eK2i, allow_complex=True)
    lam_i = (vec @ (vi @ vec)) / (vec @ vec)
    assert val * lam_i == pytest.approx(xival**N, rel=1e-10)


def test_numeric_grid_all_pass():
    rows = relations.verify_free_energy_relations_numeric()
    assert len(rows) == 6
    for r in rows:
        assert r.passed, (r.identity, r.max_defect)
        assert r.max_defect <= 1e-11
        # no grid point meets a pole, so none is skipped
        assert r.points == relations.default_grid()


def test_series_relations_all_pass():
    for r in relations.verify_free_energy_relations_series(20):
        assert r.passed, r.identity
        assert r.ring == "series"


def test_fc_constant_report(gate_logz_table):
    rep = relations.verify_fc_constant(16, table=gate_logz_table)
    assert rep.passed
    assert rep.details["s_free"] and rep.details["matches_closed_form"]


def test_verify_exits_two_on_one_perturbed_rectangle(monkeypatch, capsys):
    T = 12
    table = extraction_table(T)
    table[(4, 4)] = table[(4, 4)] + TruncatedSeries.term(1, 10, 1, order=T)
    monkeypatch.setattr(relations, "extraction_table", lambda order: table)
    assert cli.main(["verify", "--order", "12"]) == 2
    assert "t^10" in capsys.readouterr().err


def test_default_grid_shape():
    pts = relations.default_grid()
    assert len(pts) == 30
    assert all(0.05 <= q <= 0.35 and 0.1 <= f <= 0.45 for q, f in pts)
    # the 5x5 lattice, then the five points a generator seeded with 20160704
    # draws, pinned as literals
    rng = np.random.default_rng(20160704)
    drawn = [(float(rng.uniform(0.05, 0.35)), float(rng.uniform(0.10, 0.45))) for _ in range(5)]
    lattice = [(0.05 + 0.075 * i, 0.10 + 0.0875 * j) for i in range(5) for j in range(5)]
    assert pts == lattice + drawn


def test_verify_loads_no_numpy_random():
    script = textwrap.dedent(
        """
        import sys
        from potts_sd import cli

        assert cli.main(["verify", "--order", "8"]) == 0
        assert "numpy.random" not in sys.modules, "verify loaded numpy.random"
        """
    )
    src = str(Path(potts_sd.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_transfer_inversion_equals_the_dense_t1_product():
    # the row reads T1's diagonal; the dense product of the two T1s gives the same defect
    N, Q, sp = 3, 5, SELF_DUAL[5]
    cp = couplings(sp)
    eK1i, eK2i, xival = relations._dual_values(Q, cp.eK1, cp.eK2)
    d1 = np.abs(potts_transfer_T1(N, Q, cp.eK1) @ potts_transfer_T1(N, Q, eK1i) - np.eye(Q**N)).max()
    prod = potts_transfer_T2(N, Q, cp.eK2) @ potts_transfer_T2(N, Q, eK2i)
    d2 = np.abs(prod - xival**N * np.eye(Q**N)).max() / abs(xival) ** N
    row = relations.run_rows(8)[0]
    assert (row.identity, row.points) == ("transfer_inversion", [{"Q": Q, "eK1": cp.eK1, "eK2": cp.eK2}])
    assert row.max_defect == max(d1, d2) > 0


def test_identity_report_json():
    d = relations.verify_matrix_inversion(2, 5, SELF_DUAL[5]).to_json_dict()
    assert list(d) == ["identity", "points", "max_defect", "tol", "passed", "ring", "details"]
    assert d["identity"] == "transfer_inversion" and d["ring"] == F
    assert d["tol"] == relations.NUMERIC_TOL and d["passed"] is True
    # every row reads its tolerance from ROWS and prints the same keys
    rows = relations.run_rows(8)
    assert [(r.identity, r.ring) for r in rows] == list(relations.ROWS)
    assert all(r.to_json_dict()["tol"] == relations.ROWS[r.identity, r.ring] for r in rows)
    assert all(list(r.to_json_dict()) == list(d) for r in rows)


def test_a_defect_passes_within_its_rows_tolerance():
    row = ("inversion_bulk", F)
    assert relations.Defect(*row, [], relations.NUMERIC_TOL).passed
    assert not relations.Defect(*row, [], 2 * relations.NUMERIC_TOL).passed
    assert not relations.Defect(*row, [], 0.0, side_ok=False).passed
    # a non-finite defect fails, and prints as null to keep the JSON strict
    inf = relations.Defect(*row, [], float("inf"))
    assert not inf.passed and inf.to_json_dict()["max_defect"] is None
    # a series row tolerates no defect at all
    assert not relations.Defect("inversion_bulk", S, [], 1e-300).passed
    with pytest.raises(KeyError):
        relations.Defect("inversion_corner", F, [], 0.0).passed


def test_verify_csv_parses(capsys):
    assert cli.main(["verify", "--order", "8", "--format", "csv"]) == 0
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    rows = list(reader)
    assert len(rows) == len(relations.ROWS) == 15
    assert sorted(reader.fieldnames) == ["details", "identity", "max_defect", "passed", "points", "ring", "tol"]
    assert all(list(row) == reader.fieldnames and None not in row.values() for row in rows)
    assert all(row["passed"] == "True" for row in rows)


# ----------------------------------------------------------------------------
# faults: each perturbs one input and must fail exactly its declared rows
# ----------------------------------------------------------------------------

def _scaled(obj, name, factor):
    """``obj.name`` with its value multiplied by ``factor``."""

    def patch(mp):
        f = getattr(obj, name)
        mp.setattr(obj, name, lambda *a: f(*a) * factor)

    return patch


def _xi_off(mp):
    """xi off by a factor 1 + 1e-9 in the matrix rows."""
    dual = relations._dual_values

    def off(Q, eK1, eK2):
        eK1i, eK2i, x = dual(Q, eK1, eK2)
        return eK1i, eK2i, x * (1 + 1e-9)

    mp.setattr(relations, "_dual_values", off)


def _bump_first_entry(name):
    """closedform's Lambert list ``name`` with its first c made c + 1."""

    def patch(mp):
        ((c, tstep, sstep), *rest), dstep, dsign = getattr(cf, name)
        mp.setattr(cf, name, (((c + 1, tstep, sstep), *rest), dstep, dsign))

    return patch


def _extra_entry(name, tdeg):
    """closedform's Lambert list ``name`` with an extra entry (1, tdeg, 0),
    which adds t^tdeg at n = 1 and nothing else through t^48."""

    def patch(mp):
        entries, dstep, dsign = getattr(cf, name)
        mp.setattr(cf, name, ((*entries, (1, tdeg, 0)), dstep, dsign))

    return patch


def _exp_lambert_of(name, change):
    """``cf._exp_lambert`` with its value v for closedform's list ``name``, at
    u and at lam - u, made change(v, q)."""

    def patch(mp):
        f, lam = cf._exp_lambert, getattr(cf, name)
        mp.setattr(cf, "_exp_lambert", lambda L, q, w2: change(f(L, q, w2), q) if L is lam else f(L, q, w2))

    return patch


def _bulk_R_cubed(mp):
    """The table's bulk R with (1+q)^3 in place of (1+q)^2."""
    name, sign_u, sign_i, R = relations.INVERSION["inversion_bulk"]
    mp.setitem(relations.INVERSION, "inversion_bulk", (name, sign_u, sign_i, lambda q, w2: R(q, w2) * (1 + q)))


def _nan_t2(mp):
    """Every entry of T2 NaN in the matrix rows."""
    t2 = relations.potts_transfer_T2
    mp.setattr(relations, "potts_transfer_T2", lambda *a: np.full_like(t2(*a), np.nan))


def _image_short_of_order(mp):
    """f_sp's derived lam - u image exact only through t^(T-1)."""
    image, _ = relations._image_families(cf.SURFACE_H_LAMBERT)
    full = relations.log_product

    def log_product(families, order):
        return full(families, order).truncate(order - 1) if families == image else full(families, order)

    mp.setattr(relations, "log_product", log_product)


@functools.cache
def _table12():
    return extraction_table(12)


def _lattice_shift(energy):
    """One extracted free energy shifted by t^10 s in every
    G(m, n) = -mn f_b - m f_s - n f'_s - f_c; the spare diagonal still
    vanishes, so only the closed-form comparison sees it."""
    weight = {"f_b": lambda m, n: m * n, "f_s": lambda m, n: m, "f_sp": lambda m, n: n, "f_c": lambda m, n: 1}[energy]

    def patch(mp):
        delta = TruncatedSeries.term(1, 10, 1, order=12)
        table = {(m, n): g - weight(m, n) * delta for (m, n), g in _table12().items()}
        mp.setattr(relations, "extraction_table", lambda order: table)

    return patch


# f_s(u) = f_sp(lam/2-u) and f_sp(u) = f_s(lam/2-u), in floats and in series
ROTATION_SURFACE = {(k, ring) for k in ("rotation_surface_sv", "rotation_surface_hs") for ring in (F, S)}

# (fault id, verify --order, the perturbation, the rows it must fail)
FAULTS = [
    # the T2 and V products are compared with xi^N, so a wrong xi fails them
    ("float-xi", 8, _xi_off, {("transfer_inversion", F), ("combined_transfer_inversion", F)}),
    # e^{K1(lam-u)} = 1/e^{K1(u)} by construction, so only the comparison with
    # the couplings at lam - u can catch a wrong image
    (
        "inversion-image-is-rotation",
        8,
        lambda mp: mp.setattr(relations, "inversion_image", rotation_image),
        {("transfer_inversion", F), ("combined_transfer_inversion", F)},
    ),
    # a NaN at any point fails its row, in the matrices and in the grid,
    # where the last grid point's q is on no other point
    ("transfer-T2-nan", 8, _nan_t2, {("transfer_inversion", F)}),
    (
        "bulk-product-1e-9",
        8,
        _exp_lambert_of("BULK_COUPLING_LAMBERT", lambda v, q: v * (1 + 1e-9)),
        {("inversion_bulk", F)},
    ),
    (
        "bulk-product-nan-at-one-point",
        8,
        _exp_lambert_of("BULK_COUPLING_LAMBERT", lambda v, q: math.nan if q == relations.default_grid()[-1][0] else v),
        {("inversion_bulk", F)},
    ),
    (
        "surface-v-product-1e-9",
        8,
        _exp_lambert_of("SURFACE_LOG_LAMBERT", lambda v, q: v * (1 + 1e-9)),
        {("inversion_surface_v", F)},
    ),
    # one table entry feeds both rings: a wrong R, or a wrong Delta in it,
    # fails the float and the series row alike
    ("inversion-bulk-R-cubed", 8, _bulk_R_cubed, {("inversion_bulk", F), ("inversion_bulk", S)}),
    (
        "delta-1e-9",
        8,
        _scaled(relations, "_delta", 1 + Fraction(1, 10**9)),
        {("inversion_surface_h", F), ("inversion_surface_h", S)},
    ),
    # the lam - u image is derived from the forward list, so one wrong entry
    # shows up in the product F(u) F(lam-u) (or G(u) G(lam-u)); the float
    # continuation is the same list's product, so its row fails too
    (
        "BULK_COUPLING_LAMBERT",
        12,
        _bump_first_entry("BULK_COUPLING_LAMBERT"),
        {("inversion_bulk", F), ("inversion_bulk", S)},
    ),
    (
        "SURFACE_LOG_LAMBERT",
        12,
        _bump_first_entry("SURFACE_LOG_LAMBERT"),
        {("inversion_surface_v", F), ("inversion_surface_v", S)},
    ),
    # a row compares its top degrees too; in floats the extra q^(47/4) or
    # q^12 term is far above the tolerance
    (
        "BULK_COUPLING_LAMBERT-t47",
        48,
        _extra_entry("BULK_COUPLING_LAMBERT", 47),
        {("inversion_bulk", F), ("inversion_bulk", S)},
    ),
    (
        "BULK_COUPLING_LAMBERT-t48",
        48,
        _extra_entry("BULK_COUPLING_LAMBERT", 48),
        {("inversion_bulk", F), ("inversion_bulk", S)},
    ),
    # f_sp's image is derived from its list, so an s-free extra entry is the
    # same at u and lam - u and cancels from both inversion rows; rotation
    # compares it with the separately typed f_s list
    ("SURFACE_H_LAMBERT-t48", 48, _extra_entry("SURFACE_H_LAMBERT", 48), ROTATION_SURFACE),
    # a row whose two sides are exact only through t^(T-1) checks nothing at t^T
    ("surface-h-image-short", 12, _image_short_of_order, {("inversion_surface_h", S)}),
    # one list feeds the float sum, its float continuation and the exact
    # series alike
    (
        "BULK_LAMBERT",
        12,
        _bump_first_entry("BULK_LAMBERT"),
        {("rotation_bulk", F), ("rotation_bulk", S), ("corner_constant", S)},
    ),
    ("SURFACE_V_LAMBERT", 12, _bump_first_entry("SURFACE_V_LAMBERT"), {*ROTATION_SURFACE, ("corner_constant", S)}),
    (
        "SURFACE_H_LAMBERT",
        12,
        _bump_first_entry("SURFACE_H_LAMBERT"),
        {("inversion_surface_h", F), ("inversion_surface_h", S), *ROTATION_SURFACE, ("corner_constant", S)},
    ),
    ("CORNER_LAMBERT", 12, _bump_first_entry("CORNER_LAMBERT"), {("corner_constant", S)}),
    *[(f"lattice-{e}", 12, _lattice_shift(e), {("corner_constant", S)}) for e in ("f_b", "f_s", "f_sp", "f_c")],
]


def _not_strict(token):
    raise AssertionError(f"non-finite {token} in verify's JSON")


@pytest.mark.parametrize("order, perturb, failing", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_a_fault_fails_exactly_its_rows(monkeypatch, capsys, order, perturb, failing):
    perturb(monkeypatch)
    assert cli.main(["verify", "--order", str(order)]) == 2
    rows = json.loads(capsys.readouterr().out, parse_constant=_not_strict)["rows"]
    assert {(r["identity"], r["ring"]) for r in rows if not r["passed"]} == failing


def test_every_row_is_a_fault_target():
    assert set().union(*(f[3] for f in FAULTS)) == set(relations.ROWS)
