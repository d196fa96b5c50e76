"""The four workloads: op sequences from a seed, warm-up ops and output oracles.

An op is one ``potts_sd.cli.main(argv)`` call with default flags.  It fails
on a nonzero exit code, on any exception escaping ``cli.main`` (including
``SystemExit``), or when its output check raises.  Every oracle is built
here, before any op is timed.  See README.md for why each workload exists.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from potts_sd import closedform
from potts_sd.params import SpectralParams
from potts_sd.qseries import TruncatedSeries

WORKLOADS = ["extract-t16", "contract-w9-t18", "verify-t24-48", "eval-scan"]

EVAL_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "eval_reference.json")
EVAL_SIZES = [8, 12, 16]
EVAL_OPS = 102  # 34 per N; the nearest-rank p90 has 10 samples beyond it
EVAL_ROUTE = "closedform,bethe"
BETHE_RESIDUAL_MAX = 1e-12
FB_COUPLING_RTOL = 1e-12
REFERENCE_RTOL = 1e-9
VERIFY_ORDERS = [24, 28, 32, 36, 40, 44, 48]

# Layer metrics that must be non-zero on their home workload in a traced run,
# so that a renamed or moved public function fails the run instead of
# silently reading 0.
HOME = {
    "extract-t16": [
        "cli.main.self_s",
        "lattice.series_logZ.self_s",
        "lattice.series_logZ.calls",
        "lattice.series_logZ.overlap_s",
        "lattice.extract_free_energies.self_s",
        "closedform.series.self_s",
    ],
    "contract-w9-t18": [
        "lattice.series_logZ.self_s",
        "lattice.series_logZ.calls",
        "qseries.mul.calls",
        "qseries.log.calls",
    ],
    "verify-t24-48": [
        "lattice.series_logZ.self_s",
        "lattice.extract_free_energies.self_s",
        *(f"qseries.{op}.{m}" for op in ("mul", "log", "exp", "reciprocal", "pow") for m in ("self_s", "calls")),
        "closedform.numeric.self_s",
        "closedform.numeric.calls",
        "closedform.series.self_s",
        "relations.series.self_s",
        "relations.numeric.self_s",
        "relations.matrix.self_s",
        "relations.fc_constant.self_s",
    ],
    "eval-scan": [
        "cli.main.self_s",
        "cli.main.calls",
        "bethe.solve.self_s",
        "bethe.solve.calls",
        "bethe.continuation_steps",
        "bethe.eigenvalue.self_s",
        "closedform.numeric.self_s",
        "closedform.numeric.calls",
    ],
}


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclass
class Op:
    argv: list
    check: Callable[[str], None]  # raises on a wrong output


def run_op(call, op):
    """Run one op; return (seconds, failure reason or None).  The check is untimed."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call(op.argv)
    except SystemExit as e:  # argparse rejects an argv by exiting
        code = e.code
    except Exception as e:  # noqa: BLE001 - every escaping exception is a failed op
        code, reason = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if reason is None and code != 0:
        reason = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    if reason is None:
        try:
            op.check(out.getvalue())
        except Exception as e:  # noqa: BLE001 - a malformed output is a failed check too
            reason = f"check {type(e).__name__}: {e}"
    return seconds, reason


def run_pass(call, ops, tracer=None):
    """One closed-loop pass over ``ops``; return (per-op seconds, [(index, reason)])."""
    seconds, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        dt, reason = run_op(call, op)
        seconds.append(dt)
        if reason is not None:
            failures.append((i, reason))
    return seconds, failures


# -- oracles -----------------------------------------------------------------

def check_extract(text):
    flags = json.loads(text)["matches_closed_form"]
    if sorted(flags) != ["f_b", "f_c", "f_s", "f_sp"] or not all(v is True for v in flags.values()):
        raise CheckFailed(f"matches_closed_form = {flags}")


def contraction_reference(M, N, order):
    """log(q^{MN} Z) = -MN f_b - M f_s - N f'_s - f_c from the closed forms.

    Exact through ``order`` whenever min(M, N) >= lattice.stabilization_bound(order).
    """
    b = closedform.series_bundle(order)
    if b.f_b.logq_coeff != 1:
        raise CheckFailed("f_b log(q) part is not log(q); q^{MN} no longer cancels it")
    return -(M * N) * b.f_b.series - M * b.f_s - N * b.f_sp - b.f_c


def contraction_check(M, N, order):
    ref = contraction_reference(M, N, order)

    def check(text):
        got = TruncatedSeries.from_json_dict(json.loads(text)["log_q^MN_Z"])
        if got.order != order or got != ref:
            raise CheckFailed(f"log_q^MN_Z at ({M},{N},t^{order}) differs from the closed forms")

    return check


def check_verify(text):
    if json.loads(text)["all_passed"] is not True:
        raise CheckFailed("all_passed is not true")


def _close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def eval_check(point):
    """Checks for one eval-scan op against its recorded row and the f_b oracle."""
    q, f = point["q"], point["u_frac"]
    lam = -math.log(q) / 2
    fb_coupling = closedform.f_bulk(SpectralParams(q, math.exp(-2 * f * lam)), form="coupling")
    expected = point["row"]

    def check(text):
        rows = json.loads(text)["rows"]
        if len(rows) != 1:
            raise CheckFailed(f"{len(rows)} rows for one point")
        row = rows[0]
        if not row["bethe_residual"] <= BETHE_RESIDUAL_MAX:
            raise CheckFailed(f"bethe_residual {row['bethe_residual']} > {BETHE_RESIDUAL_MAX}")
        if not _close(row["f_b"], fb_coupling, FB_COUPLING_RTOL):
            raise CheckFailed(f"f_b {row['f_b']} vs coupling form {fb_coupling}")
        if sorted(row) != sorted(expected):
            raise CheckFailed(f"row keys {sorted(row)} differ from the reference")
        for key, want in expected.items():
            got = row[key]
            if key == "bethe_residual":
                continue
            if isinstance(want, bool) or not isinstance(want, float):
                ok = got == want
            else:
                ok = _close(got, want, REFERENCE_RTOL)
            if not ok:
                raise CheckFailed(f"{key} = {got!r}, reference {want!r}")

    return check


def eval_argv(point):
    return [
        "eval", "--q", repr(point["q"]), "--u-frac", repr(point["u_frac"]),
        "--route", EVAL_ROUTE, "--N", str(point["N"]),
    ]


def eval_points(seed):
    """The warm-up point and the scan points, drawn without replacement from
    the recorded pool (uniform q in [0.02, 0.3] and u/lam in [0.15, 0.40]).
    Each N in EVAL_SIZES gets the same number of points, so the latency
    median and p90 do not move with the seed's mix of N; the order is
    shuffled."""
    with open(EVAL_REFERENCE) as fh:
        pool = json.load(fh)["points"]
    rng = random.Random(seed)
    points = []
    for n in EVAL_SIZES:
        points += rng.sample([p for p in pool if p["N"] == n], EVAL_OPS // len(EVAL_SIZES))
    rng.shuffle(points)
    warm = rng.choice([p for p in pool if p not in points])
    return warm, points


# -- workloads ---------------------------------------------------------------

def build(name, seed):
    """Return (warm-up op, op sequence of one pass) for workload ``name``."""
    if name == "extract-t16":
        return (
            Op(["lattice", "--order", "8", "--extract"], check_extract),
            [Op(["lattice", "--order", "16", "--extract"], check_extract)],
        )
    if name == "contract-w9-t18":
        return (
            Op(["lattice", "--M", "3", "--N", "3", "--order", "8"], contraction_check(3, 3, 8)),
            [Op(["lattice", "--M", "9", "--N", "9", "--order", "18"], contraction_check(9, 9, 18))],
        )
    if name == "verify-t24-48":
        orders = list(VERIFY_ORDERS)
        random.Random(seed).shuffle(orders)
        return (
            Op(["verify", "--order", "8"], check_verify),
            [Op(["verify", "--order", str(T)], check_verify) for T in orders],
        )
    if name == "eval-scan":
        warm, points = eval_points(seed)
        return (
            Op(eval_argv(warm), eval_check(warm)),
            [Op(eval_argv(p), eval_check(p)) for p in points],
        )
    raise ValueError(f"unknown workload {name!r}")
