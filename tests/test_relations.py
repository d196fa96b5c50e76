"""Functional-identity verifiers: matrix level, numeric grid, exact series."""

import json
from fractions import Fraction

import pytest

from potts_sd import cli, closedform as cf
from potts_sd import relations
from potts_sd.lattice import extraction_table, max_eigenvalue, potts_transfer_V
from potts_sd.params import SpectralParams, couplings, rotation_image, xi
from potts_sd.qseries import TruncatedSeries


def test_matrix_inversion_exact():
    r = relations.verify_matrix_inversion(2, 2, Fraction(3, 2), Fraction(7, 5))
    assert r.passed and r.ring == "rational" and r.max_defect == 0.0


def test_matrix_inversion_exact_various():
    for Q, eK1, eK2 in [(3, Fraction(9, 4), Fraction(11, 7)), (5, Fraction(2), Fraction(13, 6))]:
        r = relations.verify_matrix_inversion(2, Q, eK1, eK2)
        assert r.passed, (Q, r)


def test_matrix_inversion_float_with_consistent_sp():
    sp = relations._sp_from(0.2, 0.3)
    cp = couplings(sp)
    # Q = q + 2 + 1/q is not an integer; the matrix check runs at integer Q
    # with the same coupling values, which the identity allows
    r = relations.verify_matrix_inversion(3, 3, cp.eK1, cp.eK2)
    assert r.passed and r.max_defect <= 1e-11


def test_matrix_inversion_rejects_inconsistent_sp():
    sp = SpectralParams(0.2, 0.6)
    with pytest.raises(Exception):
        relations.verify_matrix_inversion(2, 3, 1.5, 1.4, sp=sp)


def test_transfer_inversion_row_checks_the_inversion_image(monkeypatch, capsys):
    # e^{K1(lam-u)} = 1/e^{K1(u)} by construction, so T1(u)T1(lam-u) = 1 and
    # V(u)V(lam-u) = xi^N 1 alone cannot fail; both float rows must also match
    # the couplings at lam - u
    rows = [r for r in relations.run_default_suite(8) if r.ring == "float" and "transfer_inversion" in r.identity]
    assert [r.identity for r in rows] == ["transfer_inversion", "combined_transfer_inversion"]
    for row in rows:
        assert row.passed and row.points[0]["Q"] == 5
        assert row.details["inversion_image_defect"] <= 1e-11
    monkeypatch.setattr(relations, "inversion_image", rotation_image)
    failed = [(r.identity, r.ring) for r in relations.run_default_suite(8) if not r.passed]
    assert failed == [("transfer_inversion", "float"), ("combined_transfer_inversion", "float")]
    assert cli.main(["verify", "--order", "8"]) == 2


def test_vv_exact():
    r = relations.verify_VV(2, 2, Fraction(3, 2), Fraction(7, 5))
    assert r.passed and r.max_defect == 0.0
    assert r.details["branch_signs_ok"]


def test_vv_float_and_eigen_corollary():
    sp = relations._sp_from(0.25, 0.35)
    cp = couplings(sp)
    r = relations.verify_VV(2, 3, cp.eK1, cp.eK2)
    assert r.passed
    assert r.details["eigen_corollary_defect"] <= 1e-10
    assert r.details["xi_sign_alternates"]


def test_vv_eigenvalue_pairing_detail():
    # L(u)^2 L(lam-u)^2 = xi^N via the maximal eigenvector explicitly
    N, Q = 2, 3
    sp = relations._sp_from(0.2, 0.3)
    cp = couplings(sp)
    eK1i, eK2i, xival = relations._dual_values(Q, cp.eK1, cp.eK2)
    val, vec = max_eigenvalue(potts_transfer_V(N, Q, cp.eK1, cp.eK2))
    vi = potts_transfer_V(N, Q, eK1i, eK2i, allow_complex=True)
    lam_i = (vec @ (vi @ vec)) / (vec @ vec)
    assert val * lam_i == pytest.approx(xival**N, rel=1e-10)


def test_numeric_grid_all_pass():
    reports = relations.verify_free_energy_relations_numeric()
    assert len(reports) == 8
    for r in reports:
        assert r.passed, (r.identity, r.max_defect)
        assert r.max_defect <= 1e-11


def test_series_relations_all_pass():
    for r in relations.verify_free_energy_relations_series(20):
        assert r.passed, r.identity
        assert r.ring == "series"


def test_series_relations_catch_breakage():
    # sanity of the harness itself: a wrong surface series must fail rotation
    good = cf.f_surface_h_series(12)
    bad = good + cf.f_corner_series(12)  # corner series is s-free, nonzero
    assert not (bad.subst_s_inv() - cf.f_surface_v_series(12)).is_zero()


def test_corner_inversion_check_fails_on_a_wrong_product_form(monkeypatch, capsys):
    exact_series, exact_numeric = cf.f_corner_series, cf.f_corner

    def off_by_t8(order, form="sum"):
        out = exact_series(order, form)
        return out + TruncatedSeries.term(1, 8, 0, order=order) if form == "product" else out

    def off_by_1e9(q, form="sum"):
        return exact_numeric(q, form) + (1e-9 if form == "product" else 0.0)

    monkeypatch.setattr(cf, "f_corner_series", off_by_t8)
    monkeypatch.setattr(cf, "f_corner", off_by_1e9)
    for reports in (
        relations.verify_free_energy_relations_series(12),
        relations.verify_free_energy_relations_numeric(),
    ):
        failed = [r.identity for r in reports if not r.passed]
        assert failed == ["inversion_corner"]
    assert cli.main(["verify", "--order", "12"]) == 2


def _bump_first_entry(monkeypatch, name):
    """Replace closedform's Lambert list ``name`` by one whose first c is c + 1."""
    ((c, tstep, sstep), *rest), dstep, dsign = getattr(cf, name)
    monkeypatch.setattr(cf, name, (((c + 1, tstep, sstep), *rest), dstep, dsign))


@pytest.mark.parametrize(
    "numer, extra, order, failed",
    [
        pytest.param("BULK_COUPLING_LAMBERT", None, 12, ["inversion_bulk"], id="BULK_COUPLING_LAMBERT-inversion_bulk"),
        pytest.param("SURFACE_LOG_LAMBERT", None, 12, ["inversion_surface_v"], id="SURFACE_LOG_LAMBERT-inversion_surface_v"),
        # an extra entry (1, d, 0) adds t^d at n = 1 and nothing else through t^48,
        # so these fail only if the row compares its top degrees too
        pytest.param("BULK_COUPLING_LAMBERT", (1, 47, 0), 48, ["inversion_bulk"], id="BULK_COUPLING_LAMBERT-t47"),
        pytest.param("BULK_COUPLING_LAMBERT", (1, 48, 0), 48, ["inversion_bulk"], id="BULK_COUPLING_LAMBERT-t48"),
        pytest.param(
            "SURFACE_H_LAMBERT",
            (1, 48, 0),
            48,
            ["inversion_surface_h", "rotation_surface_sv", "rotation_surface_hs"],
            id="SURFACE_H_LAMBERT-t48",
        ),
    ],
)
def test_inversion_row_fails_on_a_perturbed_lambert_list(monkeypatch, capsys, numer, extra, order, failed):
    # the lam - u list is mapped from the forward one, so one wrong forward
    # entry shows up in the product F(u) F(lam-u) (or G(u) G(lam-u)); f_sp's
    # image is a product form of its own, which a wrong f_sp list misses
    if extra is None:
        _bump_first_entry(monkeypatch, numer)
    else:
        entries, dstep, dsign = getattr(cf, numer)
        monkeypatch.setattr(cf, numer, ((*entries, extra), dstep, dsign))
    reports = relations.verify_free_energy_relations_series(order)
    assert [r.identity for r in reports if not r.passed] == failed
    assert cli.main(["verify", "--order", str(order)]) == 2


def test_a_series_row_short_of_its_order_fails(monkeypatch):
    # a row whose two sides are exact only through t^(T-1) checks nothing at t^T
    full = cf.exp_minus_f_surface_h_inverted_series
    monkeypatch.setattr(cf, "exp_minus_f_surface_h_inverted_series", lambda order: full(order).truncate(order - 1))
    failed = [r.identity for r in relations.verify_free_energy_relations_series(12) if not r.passed]
    assert failed == ["inversion_surface_h"]


@pytest.mark.parametrize("name", ["BULK_LAMBERT", "SURFACE_V_LAMBERT", "SURFACE_H_LAMBERT", "CORNER_LAMBERT"])
def test_verify_fails_on_a_perturbed_sum_list(monkeypatch, capsys, name):
    # one list feeds both the float sum and the exact series, so one wrong
    # entry fails a float row and the lattice comparison alike
    _bump_first_entry(monkeypatch, name)
    assert cli.main(["verify", "--order", "12"]) == 2
    failed = [r for r in json.loads(capsys.readouterr().out)["rows"] if not r["passed"]]
    assert "corner_constant" in [r["identity"] for r in failed]
    assert any(r["ring"] == "float" for r in failed)


def test_fc_constant_report(gate_logz_table):
    rep = relations.verify_fc_constant(16, table=gate_logz_table)
    assert rep.passed
    assert rep.details["s_free"] and rep.details["matches_closed_form"]


@pytest.mark.parametrize("energy", ["f_b", "f_s", "f_sp", "f_c"])
def test_lattice_row_checks_each_free_energy(monkeypatch, capsys, energy):
    # shift one free energy by t^10 s in every G(m, n) = -mn f_b - m f_s - n f'_s - f_c;
    # the spare diagonal still vanishes, so only the closed-form comparison catches it
    T = 12
    weight = {"f_b": lambda m, n: m * n, "f_s": lambda m, n: m, "f_sp": lambda m, n: n, "f_c": lambda m, n: 1}
    delta = TruncatedSeries.term(1, 10, 1, order=T)
    table = {(m, n): g - weight[energy](m, n) * delta for (m, n), g in extraction_table(T).items()}
    rep = relations.verify_fc_constant(T, table=table)
    assert not rep.passed and not rep.details["matches_closed_form"]
    assert [k for k in weight if not rep.details[k]] == [energy]
    monkeypatch.setattr(relations, "extraction_table", lambda order: table)
    assert cli.main(["verify", "--order", "12"]) == 2


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
    # deterministic under the fixed seed
    assert relations.default_grid() == pts


def test_identity_report_json():
    r = relations.verify_matrix_inversion(2, 2, Fraction(3, 2), Fraction(7, 5))
    d = r.to_json_dict()
    assert d["identity"] == "transfer_inversion"
    assert d["passed"] is True
