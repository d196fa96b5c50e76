"""Command-line front door.

Subcommands: eval | series | lattice | bethe | verify | critical.
JSON is the machine format (exact rationals as decimal strings inside the
series payloads); CSV is a lossy convenience view.  Exit codes: 0 success,
1 domain/config/usage error or a closed stdout, 2 identity-check failure
(including a nonzero extraction residual, or an extraction that misses
the closed forms), 3 numeric non-convergence or disagreeing numeric routes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import __version__, bethe, closedform, lattice, relations
from .bundle import LogSeries
from .errors import ConvergenceError, DomainError, ExtractionError
from .params import SpectralParams, couplings
from .qseries import TruncatedSeries

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IDENTITY = 2
EXIT_CONVERGENCE = 3


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None}
    cfg["version"] = __version__
    return cfg


def _emit(payload: dict, args) -> None:
    payload["config"] = _effective_config(args)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "json":
        text = json.dumps(payload, indent=2, default=str)
    else:
        text = _to_csv(payload)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise DomainError(f"--out {out}: {e.strerror or e}") from e
    else:
        print(text)


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    rows = payload.get("rows")
    if rows:
        cols = sorted({k for r in rows for k in r})
        out.writerow(cols)
        out.writerows([_csv_cell(r.get(c, "")) for c in cols] for r in rows)
    else:
        out.writerow(["key", "value"])
        out.writerows([k, str(v)] for k, v in payload.items() if k != "config")
    return buf.getvalue()[:-1]  # print adds the last newline


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _series_payload(s) -> dict:
    if isinstance(s, LogSeries):
        return {"logq_coeff": str(s.logq_coeff), "series": s.series.to_json_dict()}
    if isinstance(s, TruncatedSeries):
        return s.to_json_dict()
    return s


def _points(args):
    pts = []
    for q in args.q:
        if args.u_frac:
            for f in args.u_frac:
                lam = -math.log(q) / 2
                pts.append(SpectralParams(q, math.exp(-2 * f * lam)))
        else:
            for s in args.s:
                pts.append(SpectralParams.from_q_s(q, s))
    return pts


def cmd_eval(args) -> int:
    routes = args.route.split(",")
    rows = []
    for sp in _points(args):
        # a point on a coupling pole (w2=1, w2=q) is named before any route's sums run into it
        cp = couplings(sp)
        row = {"q": sp.q, "w": sp.w, "s": sp.s, "u_over_lam": sp.u / sp.lam, "physical": sp.physical}
        for route in routes:
            if route == "closedform":
                b = closedform.free_energies(sp)
                row.update({"f_b": b.f_b, "f_s": b.f_s, "f_sp": b.f_sp, "f_c": b.f_c})
            elif route == "bethe":
                br = bethe.solve(args.N, sp.q, sp.w)
                fb = row["f_b"] if "f_b" in row else closedform.f_bulk(sp)  # the closedform route's, if it ran
                row["f_s_bethe_N%d" % args.N] = bethe.surface_free_energy(br, fb, cp)
                row["bethe_residual"] = br.residual
            else:
                raise DomainError(f"unknown route {route!r}")
        rows.append(row)
    _emit({"command": "eval", "rows": rows}, args)
    return EXIT_OK


def cmd_series(args) -> int:
    order = args.order
    bundle = closedform.series_bundle(order)
    rows = []
    for d in range(0, order + 1):
        row = {"tdeg": d}
        for name, s in (("f_b", bundle.f_b.series), ("f_s", bundle.f_s), ("f_sp", bundle.f_sp), ("f_c", bundle.f_c)):
            c = s.coeff(d)
            if not c.is_zero():
                row[name] = repr(c)
        if len(row) > 1:
            rows.append(row)
    payload = {
        "command": "series",
        "order": order,
        "f_b": _series_payload(bundle.f_b),
        "f_s": _series_payload(bundle.f_s),
        "f_sp": _series_payload(bundle.f_sp),
        "f_c": _series_payload(bundle.f_c),
        "f_c_s_free": bundle.f_c.s_free(),
        "rows": rows,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_lattice(args) -> int:
    order = args.order
    if args.extract:
        if args.threads < 1:
            raise DomainError("--threads must be at least 1")
        with ThreadPoolExecutor(args.threads) as pool:
            table = lattice.extraction_table(order, map=pool.map)
        bundle = lattice.extract_free_energies(table, order)
        matches = relations.closed_form_matches(bundle, order)
        payload = {
            "command": "lattice",
            "order": order,
            "sizes": sorted(table),
            "f_b": _series_payload(bundle.f_b),
            "f_s": _series_payload(bundle.f_s),
            "f_sp": _series_payload(bundle.f_sp),
            "f_c": _series_payload(bundle.f_c),
            "matches_closed_form": matches,
        }
        _emit(payload, args)
        return EXIT_OK if all(matches.values()) else EXIT_IDENTITY
    M, N = args.M, args.N
    spec = lattice.LatticeSpec(M, N)
    t0 = time.perf_counter()
    (s,) = lattice.series_logZ(spec, order, [M])
    _emit(
        {
            "command": "lattice",
            "M": M,
            "N": N,
            "ring": "series",
            "order": order,
            "log_q^MN_Z": s.to_json_dict(),
            "seconds": round(time.perf_counter() - t0, 3),
        },
        args,
    )
    return EXIT_OK


def cmd_bethe(args) -> int:
    N = args.N
    sp = SpectralParams.from_q_s(args.q, args.s)
    br = bethe.solve(N, sp.q, sp.w)
    lam2, lam2b = bethe.checked_eigenvalue(br)
    payload = {
        "command": "bethe",
        "roots": bethe.roots_to_json(br),
        "eigenvalue_product_form": [lam2.real, lam2.imag],
        "eigenvalue_r_form": [lam2b.real, lam2b.imag],
    }
    if args.convergence:
        tab = bethe.surface_convergence(N, sp.q, sp.w)
        payload["surface_convergence"] = {
            "rows": [{"N": r.N, "f_s_N": r.f_s_N, "deviation": r.deviation} for r in tab.rows],
            "f_s_closed": tab.f_s_closed,
            "decay_rate": tab.decay_rate,
            "extrapolated": tab.extrapolated,
        }
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = relations.run_rows(args.order)
    all_pass = all(r.passed for r in rows)
    _emit({"command": "verify", "all_passed": all_pass, "rows": [r.to_json_dict() for r in rows]}, args)
    return EXIT_OK if all_pass else EXIT_IDENTITY


def cmd_critical(args) -> int:
    eps = args.eps
    fc, ratio = closedform.fc_asymptote(eps)
    # the modular identities run at eps >= 0.5, where their products stay short
    cm_eps = max(eps, 0.5)
    payload = {
        "command": "critical",
        "eps": eps,
        "f_c": fc,
        "asymptote": -math.pi / (8 * eps),
        "ratio": ratio,
        "conjugate_modulus_eps": cm_eps,
        "conjugate_modulus": closedform.conjugate_modulus_report(cm_eps, prec_bits=args.precision_bits),
    }
    slope, expected = closedform.singular_decay_fit()
    payload["surface_decay_slope"] = {"fitted": slope, "expected": expected}
    _emit(payload, args)
    return EXIT_OK


def _positive(kind):
    def parse(text):
        v = kind(text)
        if not 0 < v < math.inf:
            raise ValueError(text)
        return v

    parse.__name__ = f"positive {kind.__name__}"  # argparse: "invalid positive int value"
    return parse


def _route_list(text):
    if not all(text.split(",")):
        raise ValueError(text)
    return text


_route_list.__name__ = "route list"  # argparse: "invalid route list value"


FLAGS = {
    "--q": dict(type=float, nargs="+"),
    "--s": dict(type=float, nargs="+"),
    "--u-frac": dict(type=float, nargs="+"),
    "--M": dict(type=_positive(int)),
    "--N": dict(type=_positive(int)),
    "--order": dict(type=_positive(int)),
    "--route": dict(type=_route_list, help="comma list: closedform,bethe"),
    "--extract": dict(action="store_true"),
    "--threads": dict(type=int, default=4, help="worker threads for --extract"),
    "--convergence": dict(action="store_true"),
    "--eps": dict(type=_positive(float)),
    "--precision-bits": dict(type=_positive(int)),
    "--out": dict(),
    "--format": dict(choices=["json", "csv"], default="json"),
}

# subcommand -> (handler, the flags it reads, its defaults); every one also
# takes --out and --format
SUBCOMMANDS = {
    "eval": (cmd_eval, ["--q", "--s", "--u-frac", "--N", "--route"], dict(q=[0.2], s=[1.0], N=10, route="closedform")),
    "series": (cmd_series, ["--order"], dict(order=16)),
    "lattice": (cmd_lattice, ["--M", "--N", "--order", "--extract", "--threads"], dict(M=3, N=3, order=8)),
    "bethe": (cmd_bethe, ["--q", "--s", "--N", "--convergence"], dict(q=0.2, s=1.0, N=8)),
    "verify": (cmd_verify, ["--order"], dict(order=20)),
    "critical": (cmd_critical, ["--eps", "--precision-bits"], dict(eps=0.02, precision_bits=256)),
}

# bethe solves at one point: its --q and --s take exactly one value
ONE_VALUE = {"bethe": ("--q", "--s")}

# eval places its points by --s or by --u-frac, never by both
EXCLUSIVE = {"eval": ("--s", "--u-frac")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    p = argparse.ArgumentParser(prog="potts-sd", description=__doc__)
    p.add_argument("--config", help="JSON config file; flags override its entries")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags, defaults) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        exclusive = sp.add_mutually_exclusive_group() if name in EXCLUSIVE else sp
        for flag in flags + ["--out", "--format"]:
            one = {"nargs": None} if flag in ONE_VALUE.get(name, ()) else {}
            (exclusive if flag in EXCLUSIVE.get(name, ()) else sp).add_argument(flag, **{**FLAGS[flag], **one})
        sp.set_defaults(func=fn, **defaults)
    return p


def _with_config(parser, args, argv):
    """Parse ``argv`` again with the --config entries turned into flags just
    after the subcommand name, so they meet the same types and choices and
    the user's own flags, coming later, still win."""
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as e:
        raise DomainError(f"config {args.config}: {e}") from e
    if not isinstance(conf, dict):
        raise DomainError(f"config {args.config}: expected a JSON object")
    takes = SUBCOMMANDS[args.command][1] + ["--out", "--format"]
    tokens = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag not in takes:
            raise DomainError(f"config {args.config}: {args.command} takes no {key}")
        if value is None or value is False:
            continue
        tokens.append(flag)
        if value is not True:
            tokens.extend(str(v) for v in (value if isinstance(value, list) else [value]))
    # --config FILE (or --config=FILE) is the only option before the subcommand
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return parser.parse_args(argv[: i + 1] + tokens + argv[i + 1 :])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _with_config(parser, args, argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): what is left unwritten goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_DOMAIN
    except SystemExit as e:  # argparse: --help exits 0, a usage error 2
        return EXIT_OK if e.code == 0 else EXIT_DOMAIN
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ExtractionError as e:
        print(f"extraction residual: {e}", file=sys.stderr)
        return EXIT_IDENTITY
    except (ConvergenceError, ArithmeticError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
