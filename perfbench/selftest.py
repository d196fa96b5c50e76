#!/usr/bin/env python3
"""Self-tests of the benchmark itself: every checker can fail, no layer is missed.

    python3 perfbench/selftest.py          # all parts, about 3 minutes
    python3 perfbench/selftest.py --fast   # skip the traced workload runs

1. Fault injection: each output checker is fed one known-good output (it
   must pass) and one bad output (it must count as a failed op, so
   fail_ratio = failed / attempted = 1 for that pass).
2. Tracer binding: after ``spans.install`` every alias of a traced
   function (``relations.series_logZ``, ``TruncatedSeries.__rmul__``,
   ``TruncatedSeries.__pow__``) is the wrapper, and a layer naming a
   missing function raises.
3. Layer coverage: ``run.py --trace 1`` on every workload exits 0 (the
   worker fails the run when a home-workload layer metric reads 0), and the
   home layers show the shares they were chosen for.
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from potts_sd import lattice, qseries, relations  # noqa: E402
from potts_sd.errors import ExtractionError  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# (workload, layer share metric, least share), from the benchmark's design
SHARES = [
    ("extract-t16", "lattice.series_logZ.share", 0.90),
    ("contract-w9-t18", "lattice.series_logZ.share", 0.90),
    ("verify-t24-48", "qseries.share", 0.50),
    ("eval-scan", "bethe.solve.share", 0.80),
]


def fake_cli(payload, code=0, raises=None):
    def call(argv):
        if raises is not None:
            raise raises
        print(json.dumps(payload))
        return code

    return call


def fail_ratio(call, op):
    seconds, failures = workloads.run_pass(call, [op])
    return len(failures) / len(seconds), failures


def fault_cases():
    """(name, op, good output, bad cli call) for every checker and failure path."""
    flags = {"f_b": True, "f_s": True, "f_sp": True, "f_c": True}
    extract = Op(["lattice", "--order", "16", "--extract"], workloads.check_extract)
    extract_good = {"matches_closed_form": flags}

    contract = Op(["lattice", "--M", "9", "--N", "9", "--order", "18"], workloads.contraction_check(9, 9, 18))
    contract_good = {"log_q^MN_Z": workloads.contraction_reference(9, 9, 18).to_json_dict()}
    contract_bad = copy.deepcopy(contract_good)
    term = contract_bad["log_q^MN_Z"]["terms"][3]["s_terms"][0]
    term["num"] = str(int(term["num"]) + 1)

    verify = Op(["verify", "--order", "24"], workloads.check_verify)
    verify_good = {"all_passed": True}

    _, points = workloads.eval_points(0)
    point = points[0]
    scan = Op(workloads.eval_argv(point), workloads.eval_check(point))
    scan_good = {"rows": [point["row"]]}
    scan_bad = {"rows": [dict(point["row"], bethe_residual=1e-6)]}
    bethe_key = f"f_s_bethe_N{point['N']}"
    scan_drift = {"rows": [dict(point["row"], **{bethe_key: point["row"][bethe_key] * (1 + 1e-6)})]}

    return [
        ("contract-w9-t18: one coefficient changed", contract, contract_good, fake_cli(contract_bad)),
        ("extract-t16: one matches_closed_form flag false", extract, extract_good,
         fake_cli({"matches_closed_form": dict(flags, f_c=False)})),
        ("verify-t24-48: all_passed false", verify, verify_good, fake_cli({"all_passed": False})),
        ("eval-scan: bethe_residual 1e-6", scan, scan_good, fake_cli(scan_bad)),
        ("eval-scan: f_s_bethe 1e-6 off the recorded row", scan, scan_good, fake_cli(scan_drift)),
        ("nonzero exit code", verify, verify_good, fake_cli(verify_good, code=2)),
        ("raised ExtractionError", extract, extract_good,
         fake_cli(None, raises=ExtractionError("residual", first_failing_order=12))),
        ("raised bare ArithmeticError", scan, scan_good, fake_cli(None, raises=ArithmeticError("pole"))),
    ]


def check_fault_injection():
    for name, op, good, bad_call in fault_cases():
        ratio, failures = fail_ratio(fake_cli(good), op)
        if ratio != 0:
            raise AssertionError(f"{name}: good output rejected: {failures}")
        ratio, failures = fail_ratio(bad_call, op)
        if ratio != 1:
            raise AssertionError(f"{name}: bad output not counted as failed (fail_ratio {ratio})")
        print(f"ok   fault injection  {name}: fail_ratio 1 ({failures[0][1][:70]})")


def check_tracer_binding():
    try:
        spans.install(spans.Tracer(), {"lattice.gone": ("lattice", ["no_such_function"])})
    except KeyError:
        print("ok   tracer binding   a missing layer function raises")
    else:
        raise AssertionError("installing a missing layer function did not raise")
    spans.install(spans.Tracer())
    ts = qseries.TruncatedSeries
    for alias, wrapper in [
        (relations.series_logZ, lattice.series_logZ),
        (relations.extract_free_energies, lattice.extract_free_energies),
        (ts.__rmul__, ts.__mul__),
        (ts.__pow__, ts.pow),
    ]:
        if alias is not wrapper or not hasattr(wrapper, "__wrapped__"):
            raise AssertionError(f"{alias.__qualname__} escaped the tracer")
    print("ok   tracer binding   by-name imports and method aliases are wrapped")


def check_layer_coverage():
    for workload, share_metric, least in SHARES:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise AssertionError(f"{workload}: traced run exited {proc.returncode}")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        zero = [m for m in workloads.HOME[workload] if not metrics[m]["value"]]
        if zero:
            raise AssertionError(f"{workload}: home layer metrics read 0: {zero}")
        share = metrics[share_metric]["value"]
        if share < least:
            raise AssertionError(f"{workload}: {share_metric} = {share:.3f} < {least}")
        print(f"ok   layer coverage   {workload}: {len(workloads.HOME[workload])} home metrics "
              f"non-zero, {share_metric} = {share:.3f} >= {least}")


def main():
    check_fault_injection()
    check_tracer_binding()
    if "--fast" not in sys.argv[1:]:
        check_layer_coverage()
    print("selftest passed")


if __name__ == "__main__":
    main()
