"""CLI surface: subcommands, exit codes, output formats, reproducibility."""

import argparse
import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import potts_sd
from oracles import table_with_shifted_energy
from potts_sd import bethe, cli, closedform, lattice
from potts_sd.qseries import TruncatedSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_isotropic(capsys):
    code, out = run(capsys, "eval", "--q", "0.2", "--s", "1")
    assert code == 0
    d = json.loads(out)
    row = d["rows"][0]
    assert row["f_s"] == pytest.approx(row["f_sp"], rel=1e-12)
    assert d["config"]["command"] == "eval"


def test_eval_two_routes(capsys):
    code, out = run(capsys, "eval", "--q", "0.2", "--s", "2", "--route", "closedform,bethe", "--N", "10")
    assert code == 0
    d = json.loads(out)
    row = d["rows"][0]
    assert "f_s_bethe_N10" in row and "f_s" in row
    # the strip value approximates the closed form (1/N^2-level agreement)
    assert row["f_s_bethe_N10"] == pytest.approx(row["f_s"], abs=0.1)
    # near u -> 0 at large q the roots crowd towards z = 1
    code, out = run(capsys, "eval", "--q", "0.441", "--u-frac", "0.034", "--route", "closedform,bethe", "--N", "14")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["bethe_residual"] <= 1e-12
    assert row["f_s_bethe_N14"] == pytest.approx(row["f_s"], abs=0.1)


def test_eval_domain_error_exit_code(capsys):
    code = cli.main(["eval", "--q", "1.5"])
    assert code == 1


@pytest.mark.parametrize("route", ["closedform,bethe", "bethe"])
def test_eval_names_the_coupling_pole(capsys, route):
    # (q, s) = (0.25, 2) sits on w^2 = 1, the K1 pole; the good points do not hide it
    code = cli.main(["eval", "--q", "0.2", "0.25", "--s", "1", "2", "--route", route, "--N", "8"])
    assert code == 1
    assert "w2=1" in capsys.readouterr().err


def test_series_emits_exact_payload(capsys):
    code, out = run(capsys, "series", "--order", "8")
    assert code == 0
    d = json.loads(out)
    assert d["f_c_s_free"] is True
    assert d["f_s"]["var"] == "q^(1/4)"
    from potts_sd.qseries import TruncatedSeries
    from potts_sd import closedform as cf

    assert TruncatedSeries.from_json_dict(d["f_s"]) == cf.f_surface_v_series(8)


def test_lattice_extract(capsys):
    # order 1 needs the width-2 sweep even though (K + 1)//2 = 1
    for order in ("1", "8"):
        code, out = run(capsys, "lattice", "--order", order, "--extract")
        assert code == 0
        d = json.loads(out)
        assert len(d["matches_closed_form"]) == 4
        assert all(d["matches_closed_form"].values())


@pytest.mark.parametrize("energy", ["f_b", "f_s", "f_sp", "f_c"])
def test_lattice_extract_exits_two_when_a_free_energy_misses_the_closed_form(monkeypatch, capsys, energy):
    # the JSON is still printed, with the one free energy the extraction missed flagged
    table = table_with_shifted_energy(lattice.extraction_table(12), energy, TruncatedSeries.term(1, 10, 1, order=12))
    monkeypatch.setattr(lattice, "extraction_table", lambda order, map=map: table)
    code, out = run(capsys, "lattice", "--order", "12", "--extract")
    assert code == 2
    assert json.loads(out)["matches_closed_form"] == {k: k != energy for k in ("f_b", "f_s", "f_sp", "f_c")}


def test_lattice_single(capsys):
    code, out = run(capsys, "lattice", "--M", "2", "--N", "3", "--order", "6")
    assert code == 0
    d = json.loads(out)
    assert d["log_q^MN_Z"]["order"] == 6


def test_bethe_subcommand(capsys):
    code, out = run(capsys, "bethe", "--q", "0.2", "--s", "1", "--N", "5")
    assert code == 0
    d = json.loads(out)
    assert d["roots"]["residual"] <= 1e-12
    assert d["roots"]["newton_iterations"] >= len(d["roots"]["trace"])
    assert d["roots"]["halvings"] >= 0
    a = complex(*d["eigenvalue_product_form"])
    b = complex(*d["eigenvalue_r_form"])
    assert abs(a - b) <= 1e-11 * abs(a)


def test_verify_exit_zero_when_all_pass(capsys):
    for order in ("1", "12", "48"):
        code, out = run(capsys, "verify", "--order", order)
        assert code == 0
        d = json.loads(out)
        assert d["all_passed"] is True


def test_bethe_convergence_prints_falling_deviations(capsys):
    # q = 0.02 is deep in the exponential regime: |f_s^(N) - f_s| falls geometrically
    code, out = run(capsys, "bethe", "--q", "0.02", "--s", "1", "--N", "8", "--convergence")
    assert code == 0
    conv = json.loads(out)["surface_convergence"]
    assert sorted(conv) == ["decay_rate", "extrapolated", "f_s_closed", "rows"]
    devs = [abs(r["deviation"]) for r in conv["rows"]]
    assert [r["N"] for r in conv["rows"]] == list(range(2, 9))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert conv["decay_rate"] < 0.5


def test_critical_subcommand(capsys):
    code, out = run(capsys, "critical", "--eps", "0.05")
    assert code == 0
    d = json.loads(out)
    assert d["ratio"] == pytest.approx(0.794, abs=5e-3)
    assert all(v <= 1e-12 for v in d["conjugate_modulus"].values())


@pytest.mark.parametrize("eps,used", [("0.05", 0.5), ("2", 2.0)])
def test_critical_reports_the_conjugate_modulus_eps(capsys, eps, used):
    # the modular identities run at max(eps, 0.5), a key of its own outside conjugate_modulus
    code, out = run(capsys, "critical", "--eps", eps)
    assert code == 0
    d = json.loads(out)
    assert d["conjugate_modulus_eps"] == used
    assert "conjugate_modulus_eps" not in d["conjugate_modulus"]


@pytest.mark.slow
@pytest.mark.parametrize("eps", ["2e-5", "3000"])
def test_critical_accepts_the_ends_of_its_eps_range(capsys, eps):
    code, out = run(capsys, "critical", "--eps", eps)
    assert code == 0
    assert json.loads(out)["f_c"] == closedform.fc_asymptote(float(eps))[0]


@pytest.mark.parametrize("eps", ["1e-300", "1e6"])
def test_critical_refuses_an_unbounded_product(capsys, eps):
    # at 1e-300 q rounds to 1 and the f_c product would never end; at 1e6 the
    # conjugate-modulus products need ~6e7 factors: both stop before the first
    t0 = time.perf_counter()
    assert cli.main(["critical", "--eps", eps]) == 1
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().err.startswith("domain error: eps = ")


def test_csv_format(capsys):
    code, out = run(capsys, "eval", "--q", "0.2", "--s", "1", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert "f_b" in header and "," in header
    # the key,value view prints nested values as Python literals, not numpy reprs
    code, out = run(capsys, "bethe", "--N", "2", "--format", "csv")
    assert code == 0
    assert "\nroots," in out and "np." not in out


def test_reproducible_output_modulo_timestamp(capsys):
    _, a = run(capsys, "eval", "--q", "0.2", "--s", "1.3")
    _, b = run(capsys, "eval", "--q", "0.2", "--s", "1.3")
    da, db = json.loads(a), json.loads(b)
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db


def test_config_file_precedence(tmp_path, capsys):
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps({"q": [0.25], "s": [1.0]}))
    code, out = run(capsys, "--config", str(cfgf), "eval")
    assert code == 0
    d = json.loads(out)
    assert d["rows"][0]["q"] == 0.25
    # flags beat the config file
    code, out = run(capsys, "--config", str(cfgf), "eval", "--q", "0.3")
    d = json.loads(out)
    assert d["rows"][0]["q"] == 0.3


def test_config_file_overrides_flag_defaults(tmp_path, capsys):
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps({"format": "csv"}))
    code, out = run(capsys, "--config", str(cfgf), "eval", "--q", "0.2", "--s", "1")
    assert code == 0
    assert "f_b" in out.splitlines()[0] and not out.startswith("{")
    # a flag still beats the config entry
    code, out = run(capsys, "--config", str(cfgf), "eval", "--q", "0.2", "--s", "1", "--format", "json")
    assert code == 0 and json.loads(out)["config"]["format"] == "json"


def test_config_scalar_for_a_list_flag(tmp_path, capsys):
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps({"q": 0.25}))
    code, out = run(capsys, "--config", str(cfgf), "eval")
    assert code == 0
    assert json.loads(out)["rows"][0]["q"] == 0.25


@pytest.mark.parametrize(
    "entries, argv",
    [
        ({"format": "xml"}, ["series", "--order", "2"]),
        ({"order": "abc"}, ["series"]),
        ({"order": 0}, ["verify"]),
    ],
)
def test_config_entries_meet_flag_types_and_choices(tmp_path, capsys, entries, argv):
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps(entries))
    assert cli.main(["--config", str(cfgf), *argv]) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries, argv",
    [
        ({}, ["eval", "--q", "0.2", "--s", "2", "--u-frac", "0.3"]),
        ({}, ["eval", "--u-frac", "0.3", "--s", "1"]),
        ({"u_frac": [0.3]}, ["eval", "--s", "2"]),
        ({"s": 2}, ["eval", "--u-frac", "0.3"]),
        ({"s": [1.0], "u_frac": [0.3]}, ["eval"]),
    ],
)
def test_eval_takes_s_or_u_frac_not_both(tmp_path, capsys, entries, argv):
    # the points come from one of the two; the other was dropped, and echoed
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps(entries))
    assert cli.main(["--config", str(cfgf), *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps({"threads": 2}))
    assert cli.main(["--config", str(cfgf), "eval"]) == 1


@pytest.mark.parametrize("content", [[["q", 0.2]], 0.2, "q", None])
def test_config_file_must_hold_an_object(tmp_path, capsys, content):
    cfgf = tmp_path / "run.json"
    cfgf.write_text(json.dumps(content))
    assert cli.main(["--config", str(cfgf), "eval"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"config {cfgf}: expected a JSON object" in err and "Traceback" not in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = cli.main(["series", "--order", "4", "--out", str(target)])
    assert code == 0
    d = json.loads(target.read_text())
    assert d["command"] == "series"


@pytest.mark.parametrize("target", [".", "missing/result.json"])
def test_unwritable_out_is_a_domain_error(tmp_path, capsys, target):
    # a directory, or a file in a directory that does not exist: exit 1 with
    # one line, not a traceback
    assert cli.main(["series", "--order", "4", "--out", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error: --out ") and err.count("\n") == 1


def test_eval_rejects_unsupported_ring(capsys):
    assert cli.main(["eval", "--q", "0.2", "--ring", "hp"]) == 1


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    io = {"--out", "--format"}
    assert options == {
        "eval": {"--q", "--s", "--u-frac", "--N", "--route"} | io,
        "series": {"--order"} | io,
        "lattice": {"--M", "--N", "--order", "--extract", "--threads"} | io,
        "bethe": {"--q", "--s", "--N", "--convergence"} | io,
        "verify": {"--order"} | io,
        "critical": {"--eps", "--precision-bits"} | io,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--q", "abc"],
        ["eval", "--no-such-flag"],
        ["frobnicate"],
        ["eval", "--Q", "5"],
        ["eval", "--seed", "7"],
        ["eval", "--threads", "2"],
        ["series", "--ring", "series"],
        ["verify", "--grid", "default"],
        ["lattice", "--M", "0"],
        ["bethe", "--N", "0"],
        ["verify", "--order", "0"],
        ["series", "--order", "-3"],
        ["critical", "--eps", "0"],
        ["critical", "--eps", "nan"],
        ["critical", "--precision-bits", "0"],
        ["eval", "--q"],
        ["eval", "--s"],
        ["eval", "--u-frac"],
        ["eval", "--route", ""],
        ["bethe", "--q"],
        ["bethe", "--s"],
        ["bethe", "--q", "0.1", "0.3", "--N", "4"],
        ["bethe", "--s", "1", "2"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_config_lists_effective_defaults(capsys):
    _, out = run(capsys, "critical", "--eps", "0.05")
    cfg = json.loads(out)["config"]
    assert (cfg["eps"], cfg["precision_bits"]) == (0.05, 256)
    _, out = run(capsys, "lattice", "--M", "2", "--order", "4")
    cfg = json.loads(out)["config"]
    assert (cfg["M"], cfg["N"], cfg["order"]) == (2, 3, 4)


def test_help_exits_zero(capsys):
    assert cli.main(["lattice", "--help"]) == 0


def test_lattice_extract_threads_do_not_change_output(capsys):
    _, a = run(capsys, "lattice", "--order", "8", "--extract")
    _, b = run(capsys, "lattice", "--order", "8", "--extract", "--threads", "1")
    da, db = json.loads(a), json.loads(b)
    for d in (da, db):
        d.pop("timestamp"), d.pop("config")
    assert da == db


def test_lattice_extract_rejects_zero_threads(capsys):
    assert cli.main(["lattice", "--order", "8", "--extract", "--threads", "0"]) == 1


def test_extraction_residual_exits_two(monkeypatch, capsys):
    exact = lattice.series_logZ

    def corrupted(spec, order, heights):
        out = exact(spec, order, heights)
        if spec.N == 3:  # height 4 of the width-3 sweep is (4, 3), on the spare diagonal at order 8
            i = heights.index(4)
            out[i] = out[i] + TruncatedSeries.term(1, 6, 0, order=order)
        return out

    monkeypatch.setattr(lattice, "series_logZ", corrupted)
    assert cli.main(["lattice", "--order", "8", "--extract", "--threads", "1"]) == 2
    assert "t^6" in capsys.readouterr().err


def test_disagreeing_numeric_routes_exit_three(monkeypatch, capsys):
    def disagree(sp):
        raise ArithmeticError("rational and hyperbolic coupling routes disagree")

    monkeypatch.setattr(closedform, "free_energies", disagree)
    assert cli.main(["eval", "--q", "0.2", "--s", "1"]) == 3
    assert "disagree" in capsys.readouterr().err


EIGENVALUE_SKEWS = pytest.mark.parametrize(
    "skew",
    [lambda lam2: (lam2, lam2 * (1 + 1e-9)), lambda lam2: (lam2 + 1e-6j * abs(lam2),) * 2],
    ids=["forms-disagree", "imaginary-part"],
)


@EIGENVALUE_SKEWS
def test_eval_bethe_checks_the_eigenvalue(monkeypatch, capsys, skew):
    exact = bethe.eigenvalue
    monkeypatch.setattr(bethe, "eigenvalue", lambda br, q, w: skew(exact(br, q, w)[0]))
    assert cli.main(["eval", "--q", "0.2", "--s", "1", "--route", "bethe", "--N", "4"]) == 3
    assert "eigenvalue" in capsys.readouterr().err


@EIGENVALUE_SKEWS
def test_bethe_subcommand_checks_the_eigenvalue(monkeypatch, capsys, skew):
    exact = bethe.eigenvalue
    monkeypatch.setattr(bethe, "eigenvalue", lambda br, q, w: skew(exact(br, q, w)[0]))
    assert cli.main(["bethe", "--q", "0.2", "--s", "1", "--N", "4"]) == 3
    assert "eigenvalue" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--q", "0.2", "--s", "2", "--route", "closedform,bethe", "--N", "128"],
        ["bethe", "--q", "0.2", "--s", "2", "--N", "128"],
    ],
    ids=["eval", "bethe"],
)
def test_an_overflowing_eigenvalue_exits_three(capsys, argv):
    # at (q, s) = (0.2, 2) the product form of L2 overflows to inf by N = 128
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "not finite" in captured.err
    assert "Infinity" not in captured.out and "NaN" not in captured.out


def test_a_finite_eigenvalue_prints_strict_json(capsys):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in the output")

    code, out = run(capsys, "eval", "--q", "0.2", "--s", "2", "--route", "closedform,bethe", "--N", "64")
    assert code == 0
    assert isinstance(json.loads(out, parse_constant=refuse)["rows"][0]["f_s_bethe_N64"], float)


def test_no_command_needs_scipy():
    # a fresh interpreter in which ``import scipy`` fails imports every
    # module and runs the critical, verify, lattice and eval commands; the
    # test oracles and the test tools are blocked too, so no production
    # path reaches them
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys

        class Blocked:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in ("scipy", "oracles", "hypothesis", "pytest"):
                    raise ImportError(f"{name} is blocked")

        sys.meta_path.insert(0, Blocked())
        import potts_sd
        from potts_sd import cli

        for m in pkgutil.iter_modules(potts_sd.__path__):
            importlib.import_module(f"potts_sd.{m.name}")
        assert cli.main(["critical", "--eps", "0.05"]) == 0
        assert cli.main(["verify", "--order", "8"]) == 0
        assert cli.main(["lattice", "--order", "8", "--extract"]) == 0
        assert cli.main(["eval", "--q", "0.2", "--route", "closedform,bethe", "--N", "8"]) == 0
        """
    )
    src = str(Path(potts_sd.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("order", [4, 48])
def test_a_closed_stdout_exits_one_with_one_line(order):
    # t^4's 2 kB waits in stdout's buffer for the flush; print writes t^48's 38 kB
    src = str(Path(potts_sd.__file__).parents[1])
    argv = [sys.executable, "-m", "potts_sd.cli", "series", "--order", str(order)]
    proc = subprocess.Popen(argv, cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # no reader left: every write to stdout fails
    err = proc.stderr.read()
    assert proc.wait() == 1, err
    assert err.splitlines() == ["output error: stdout was closed before the output was written"]
