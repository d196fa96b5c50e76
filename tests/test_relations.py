"""Functional-identity verifiers: matrix level, numeric grid, exact series,
the fault table that makes every row of ``verify`` fail, and the mutants
``verify`` still passes."""

import contextlib
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
from oracles import (
    max_eigenvalue,
    potts_transfer_T1,
    potts_transfer_V,
    table_with_shifted_energy,
    transfer_inversion_defects,
)
from potts_sd import cli, closedform as cf
from potts_sd import relations
from potts_sd.lattice import extraction_table
from potts_sd.params import _Q, _exp_K1, _exp_K2, _inversion_w2, _xi, couplings, inversion_image, solve_q_from_Q
from potts_sd.qseries import TruncatedSeries

F, S, E = "float", "series", "exact"


# self-dual points at integer Q = 5, 6, 7, where sp and the spin matrices agree
SELF_DUAL = {Q: relations._sp_from(solve_q_from_Q(Q), f) for Q, f in ((5, 0.3), (6, 0.35), (7, 0.2))}


def test_matrix_inversion_float_with_consistent_sp():
    # the raw forms the exact rows read, in floats at each self-dual point,
    # meet the couplings at lam - u and make the dense products hold
    for Q, sp in SELF_DUAL.items():
        q, w2i = sp.q, _inversion_w2(sp.q, sp.w2)
        cpi = couplings(inversion_image(sp))
        assert _exp_K1(q, w2i) == pytest.approx(cpi.eK1, rel=1e-13)
        assert _exp_K2(q, w2i) == pytest.approx(cpi.eK2, rel=1e-13)
        d = transfer_inversion_defects(3, Q, couplings(sp), cpi, _xi(q, sp.w2))
        assert max(d.values()) <= 1e-11, (Q, d)
    for r in (relations.verify_matrix_inversion(), relations.verify_VV()):
        assert r.passed and r.ring == E and all(r.details.values()), r


def test_matrix_inversion_rejects_inconsistent_sp(monkeypatch):
    # Q = 6 at the Q = 5 point: e^{K2(lam-u)} misses 2 - Q - e^{K2(u)}, so the dense T2 and V products fail
    sp = SELF_DUAL[5]
    d = transfer_inversion_defects(2, 6, couplings(sp), couplings(inversion_image(sp)), _xi(sp.q, sp.w2))
    assert d["T1"] <= 1e-13 and d["T2"] > 1e-3 and d["V"] > 1e-3, d
    # and a Q off by one fails the exact row's K2 map alone
    monkeypatch.setattr(relations, "_Q", lambda q: _Q(q) + 1)
    r = relations.verify_matrix_inversion()
    assert not r.passed and r.details == {"K1": True, "K2": False}, r


def test_vv_float_and_eigen_corollary():
    # V(u)V(lam-u) = xi^N 1 pairs V(u)'s top eigenvalue with an eigenvalue of
    # V(lam-u); xi < 0, so its sign alternates with N
    for Q, sp in SELF_DUAL.items():
        cp, cpi, xi = couplings(sp), couplings(inversion_image(sp)), _xi(sp.q, sp.w2)
        assert xi < 0
        for N in (1, 2):
            val, vec = max_eigenvalue(potts_transfer_V(N, Q, cp.eK1, cp.eK2))
            vi = potts_transfer_V(N, Q, cpi.eK1, cpi.eK2, allow_complex=True)
            paired = val * (vec @ (vi @ vec)) / (vec @ vec)
            assert abs(paired - xi**N) <= 1e-10 * abs(xi) ** N, (Q, N)


def test_vv_eigenvalue_pairing_detail():
    # V(lam-u) = xi^N V(u)^-1, so V(u)'s maximal eigenvector is an eigenvector
    # of V(lam-u) too, with the eigenvalue xi^N / L(u)
    N, sp = 2, SELF_DUAL[5]
    cp, cpi = couplings(sp), couplings(inversion_image(sp))
    val, vec = max_eigenvalue(potts_transfer_V(N, 5, cp.eK1, cp.eK2))
    vi = potts_transfer_V(N, 5, cpi.eK1, cpi.eK2, allow_complex=True)
    lam_i = _xi(sp.q, sp.w2) ** N / val
    assert np.abs(vi @ vec - lam_i * vec).max() <= 1e-10 * abs(lam_i)


def test_numeric_grid_all_pass():
    *rows, corner = relations.verify_free_energy_relations_numeric()
    assert len(rows) == 6
    for r in (*rows, corner):
        assert r.passed, (r.identity, r.max_defect)
        assert r.max_defect <= 1e-11
    # no grid point meets a pole, so none is skipped
    assert all(r.points == relations.default_grid() for r in rows)
    # f_c is checked once at each of the grid's 10 distinct q
    assert corner.identity == "corner_float"
    assert len(corner.points) == 10 and set(corner.points) == {q for q, _ in relations.default_grid()}


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


def test_transfer_inversion_equals_the_dense_t1_product(monkeypatch):
    # the row's K1 identity is T1's product, which is diagonal: an e^{K1} off
    # by 1 + 1e-9 fails the exact row and the dense product alike
    N, Q, sp = 3, 5, SELF_DUAL[5]

    def dense(exp_K1):
        at_u, at_image = exp_K1(sp.q, sp.w2), exp_K1(sp.q, _inversion_w2(sp.q, sp.w2))
        return np.abs(potts_transfer_T1(N, Q, at_u) @ potts_transfer_T1(N, Q, at_image) - np.eye(Q**N)).max()

    def off(q, w2):
        return _exp_K1(q, w2) * (1 + Fraction(1, 10**9))

    assert relations.verify_matrix_inversion().details["K1"] and dense(_exp_K1) <= 1e-13
    monkeypatch.setattr(relations, "_exp_K1", off)
    assert not relations.verify_matrix_inversion().details["K1"] and dense(off) > 1e-9


def test_verify_runs_no_dense_linear_algebra(monkeypatch):
    # every numpy.linalg routine raises, and verify still passes every row
    def refuse(*args, **kwargs):
        raise AssertionError("verify called numpy.linalg")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError):
        np.linalg.eigh(np.eye(2))
    assert cli.main(["verify", "--order", "8"]) == 0


def test_identity_report_json():
    d = relations.verify_matrix_inversion().to_json_dict()
    assert list(d) == ["identity", "points", "max_defect", "tol", "passed", "ring", "details"]
    assert d["identity"] == "transfer_inversion" and d["ring"] == E
    assert d["tol"] == 0.0 and d["passed"] is True
    # every row reads its tolerance from ROWS and prints the same keys
    rows = relations.run_rows(8)
    assert [(r.identity, r.ring) for r in rows] == list(relations.ROWS)
    assert all(r.to_json_dict()["tol"] == relations.ROWS[r.identity, r.ring] for r in rows)
    assert all(list(r.to_json_dict()) == list(d) for r in rows)


def test_a_defect_passes_within_its_rows_tolerance():
    row = ("inversion_bulk", F)
    assert relations.Defect(*row, [], relations.NUMERIC_TOL).passed
    assert not relations.Defect(*row, [], 2 * relations.NUMERIC_TOL).passed
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
    assert len(rows) == len(relations.ROWS) == 16
    assert sorted(reader.fieldnames) == ["details", "identity", "max_defect", "passed", "points", "ring", "tol"]
    assert all(list(row) == reader.fieldnames and None not in row.values() for row in rows)
    assert all(row["passed"] == "True" for row in rows)


# ----------------------------------------------------------------------------
# faults: each perturbs one input and must fail exactly its declared rows
# ----------------------------------------------------------------------------

def _changed(obj, name, change):
    """``obj.name`` with its value v made change(v)."""

    def patch(mp):
        f = getattr(obj, name)
        mp.setattr(obj, name, lambda *a: change(f(*a)))

    return patch


def _scaled(obj, name, factor):
    """``obj.name`` with its value multiplied by ``factor``."""
    return _changed(obj, name, lambda v: v * factor)


def _entry_changed(name, k, change):
    """closedform's Lambert list ``name`` with numerator k made
    change(numerator, denom_tstep)."""

    def patch(mp):
        entries, dstep, dsign = getattr(cf, name)
        entries = list(entries)
        entries[k] = change(entries[k], dstep)
        mp.setattr(cf, name, (tuple(entries), dstep, dsign))

    return patch


def _bump_entry(name, k):
    """closedform's Lambert list ``name`` with numerator k's c made c + 1."""
    return _entry_changed(name, k, lambda e, D: (e[0] + 1, *e[1:]))


def _extra_entry(name, tdeg, sdeg=0):
    """closedform's Lambert list ``name`` with an extra entry (1, tdeg, sdeg),
    which adds s^sdeg t^tdeg at n = 1 and nothing else through t^48 when tdeg > 24."""

    def patch(mp):
        entries, dstep, dsign = getattr(cf, name)
        mp.setattr(cf, name, ((*entries, (1, tdeg, sdeg)), dstep, dsign))

    return patch


def _exp_lambert_of(name, change):
    """``cf._exp_lambert`` with its value v for closedform's list ``name``
    made change(v, q); the float inversion rows evaluate it at lam - u."""

    def patch(mp):
        f, lam = cf._exp_lambert, getattr(cf, name)
        mp.setattr(cf, "_exp_lambert", lambda L, q, w2: change(f(L, q, w2), q) if L is lam else f(L, q, w2))

    return patch


def _bulk_R_cubed(mp):
    """The table's bulk R with (1+q)^3 in place of (1+q)^2."""
    name, sign_u, sign_i, R = relations.INVERSION["inversion_bulk"]
    mp.setitem(relations.INVERSION, "inversion_bulk", (name, sign_u, sign_i, lambda q, w2: R(q, w2) * (1 + q)))


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
    """One extracted free energy shifted by t^10 s in the t^12 table."""

    def patch(mp):
        table = table_with_shifted_energy(_table12(), energy, TruncatedSeries.term(1, 10, 1, order=12))
        mp.setattr(relations, "extraction_table", lambda order: table)

    return patch


# f_s(u) = f_sp(lam/2-u) and f_sp(u) = f_s(lam/2-u), in floats and in series
ROTATION_SURFACE = {(k, ring) for k in ("rotation_surface_sv", "rotation_surface_hs") for ring in (F, S)}

# (fault id, verify --order, the perturbation, the rows it must fail)
FAULTS = [
    # the xi that V's row compares with also feeds the bulk inversion's R
    (
        "xi-1e-9",
        8,
        _scaled(relations, "_xi", 1 + Fraction(1, 10**9)),
        {("combined_transfer_inversion", E), ("inversion_bulk", F), ("inversion_bulk", S)},
    ),
    # the K1 map feeds the transfer row alone
    ("exp-K1-1e-9", 8, _scaled(relations, "_exp_K1", 1 + Fraction(1, 10**9)), {("transfer_inversion", E)}),
    # the exact rows and the float inversion rows read one lam - u map; the
    # series rows derive their images from the lists
    (
        "inversion-image-is-rotation",
        8,
        lambda mp: mp.setattr(relations, "_inversion_w2", lambda q, w2: q / w2),
        {("transfer_inversion", E), ("combined_transfer_inversion", E), *((k, F) for k in relations.INVERSION)},
    ),
    # the float inversion rows take S(lam - u) from the list's product, so a
    # wrong product fails them
    (
        "bulk-product-1e-9",
        8,
        _exp_lambert_of("BULK_LAMBERT", lambda v, q: v * (1 + 1e-9)),
        {("inversion_bulk", F)},
    ),
    # a NaN at one grid point fails its row; the last grid point's q is on no other point
    (
        "bulk-product-nan-at-one-point",
        8,
        _exp_lambert_of("BULK_LAMBERT", lambda v, q: math.nan if q == relations.default_grid()[-1][0] else v),
        {("inversion_bulk", F)},
    ),
    (
        "surface-v-product-1e-9",
        8,
        _exp_lambert_of("SURFACE_V_LAMBERT", lambda v, q: v * (1 + 1e-9)),
        {("inversion_surface_v", F)},
    ),
    # and S(u) from the value eval prints, so a common scale, which the
    # rotation rows cannot see, or a wrong u-free constant fails them too
    ("bulk-value-1e-6", 8, _scaled(cf, "f_bulk", 1 + 1e-6), {("inversion_bulk", F)}),
    ("bulk-value-plus-1e-9", 8, _changed(cf, "f_bulk", lambda v: v + 1e-9), {("inversion_bulk", F)}),
    # f_c's printed sum against the product critical evaluates
    ("corner-value-1e-6", 8, _scaled(cf, "f_corner", 1 + 1e-6), {("corner_float", F)}),
    # one table entry feeds both rings: a wrong R, or a wrong Delta in it,
    # fails the float and the series row alike
    ("inversion-bulk-R-cubed", 8, _bulk_R_cubed, {("inversion_bulk", F), ("inversion_bulk", S)}),
    (
        "delta-1e-9",
        8,
        _scaled(relations, "_delta", 1 + Fraction(1, 10**9)),
        {("inversion_surface_h", F), ("inversion_surface_h", S)},
    ),
    # a row compares its top degrees too; in floats the extra q^10, q^(47/4)
    # or q^12 term is far above the tolerance.  An s-free entry is its own
    # rotation image, so only the inversion rows see it
    *[
        (f"BULK_LAMBERT-t{tdeg}", 48, _extra_entry("BULK_LAMBERT", tdeg), {("inversion_bulk", F), ("inversion_bulk", S)})
        for tdeg in (40, 47, 48)
    ],
    # f_sp's image is derived from its list, so an s-free extra entry is the
    # same at u and lam - u and cancels from both inversion rows; rotation
    # compares it with the separately typed f_s list
    ("SURFACE_H_LAMBERT-t48", 48, _extra_entry("SURFACE_H_LAMBERT", 48), ROTATION_SURFACE),
    # a row whose two sides are exact only through t^(T-1) checks nothing at t^T
    ("surface-h-image-short", 12, _image_short_of_order, {("inversion_surface_h", S)}),
    # one list feeds the float sum, its float continuation, the exact series
    # and the derived lam - u image alike, so one wrong entry fails the
    # inversion rows in both rings, the rotation rows and the lattice comparison
    *[
        (f"{name}{tag}", 12, _bump_entry(name, k), {*rows, ("corner_constant", S)})
        for name, rows in (
            ("BULK_LAMBERT", {("inversion_bulk", F), ("inversion_bulk", S), ("rotation_bulk", F), ("rotation_bulk", S)}),
            ("SURFACE_V_LAMBERT", {("inversion_surface_v", F), ("inversion_surface_v", S), *ROTATION_SURFACE}),
        )
        for tag, k in (("", 0), ("-last", -1))
    ],
    (
        "SURFACE_H_LAMBERT",
        12,
        _bump_entry("SURFACE_H_LAMBERT", 0),
        {("inversion_surface_h", F), ("inversion_surface_h", S), *ROTATION_SURFACE, ("corner_constant", S)},
    ),
    ("CORNER_LAMBERT", 12, _bump_entry("CORNER_LAMBERT", 0), {("corner_constant", S)}),
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


# ----------------------------------------------------------------------------
# mutation score: every entry of the four printed lists, and every printed value
# ----------------------------------------------------------------------------

# the mutants that ``verify --order 48`` passes, with the reason it cannot see each
SURVIVORS = {
    f"CORNER_LAMBERT+(1,{tdeg},{sdeg})": (
        "f_c's list reaches a series row only through the lattice comparison, at "
        "t^min(T, 12); corner_float compares its sum with its own product"
    )
    for tdeg, sdeg in ((40, 0), (44, 1), (44, -1))
}


def _mutants():
    """(name, perturbation): c + 1 and a + D on every numerator (c, a, b) of
    the four printed lists, three extra entries beyond t^T - 8 per list, and
    each printed float value scaled by 1 + 1e-6."""
    for name in ("BULK_LAMBERT", "SURFACE_V_LAMBERT", "SURFACE_H_LAMBERT", "CORNER_LAMBERT"):
        for k in range(len(getattr(cf, name)[0])):
            yield f"{name}[{k}].c+1", _bump_entry(name, k)
            yield f"{name}[{k}].a+D", _entry_changed(name, k, lambda e, D: (e[0], e[1] + D, e[2]))
        for tdeg, sdeg in ((40, 0), (44, 1), (44, -1)):
            yield f"{name}+(1,{tdeg},{sdeg})", _extra_entry(name, tdeg, sdeg)
    for f in ("f_bulk", "f_surface_v", "f_surface_h", "f_corner"):
        yield f"{f}*(1+1e-6)", _scaled(cf, f, 1 + 1e-6)


@pytest.mark.slow
def test_mutants_that_verify_passes_are_documented():
    mutants = list(_mutants())
    assert len(mutants) == 46
    survivors = []
    for name, perturb in mutants:
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
            perturb(mp)
            if cli.main(["verify", "--order", "48"]) == 0:
                survivors.append(name)
    assert set(survivors) <= set(SURVIVORS), survivors
