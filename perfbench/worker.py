"""One fresh workload process, started by run.py; prints one JSON line.

    worker.py --setup-only
    worker.py --workload W --seed S --seconds T --trace 0|1 [--spans-out PATH]

Set-up (import ``potts_sd`` and ``potts_sd.cli`` from this checkout's
``src`` and build the parser) is timed first, before anything else is
imported.  Then one warm-up op, excluded from every metric, and then:

* ``--trace 0``: closed-loop passes over the op sequence, one client, for
  T seconds rounded to whole passes (a pass starts while, at the last
  pass's length, it would end within half a pass of T; at least one);
* ``--trace 1``: one untraced pass, then one pass with every layer wrapped
  in spans (see spans.py).  Every layer metric of the workload's home list
  must be non-zero, else the run fails.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by the interpreter; costs nothing)
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import potts_sd.cli  # noqa: E402

potts_sd.cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def call_cli(argv):
    # Looked up per call, so the traced pass reaches the wrapped cli.main.
    return potts_sd.cli.main(argv)


def main():
    if not os.path.abspath(potts_sd.__file__).startswith(SRC + os.sep):
        print(f"potts_sd imported from {potts_sd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans-out")
    args = p.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0

    warm, ops = workloads.build(args.workload, args.seed)
    _, reason = workloads.run_op(call_cli, warm)
    if reason is not None:
        print(f"warm-up op {warm.argv} failed: {reason}", file=sys.stderr)
        return 3

    result = {"setup_s": SETUP_S, "ops_per_pass": len(ops), "passes": [], "op_s": [], "failures": []}

    def one_pass(tracer=None):
        gc.collect()  # untimed: every pass starts from the same heap
        seconds, failures = workloads.run_pass(call_cli, ops, tracer)
        result["passes"].append(sum(seconds))
        result["op_s"].extend(seconds)
        result["failures"].extend([len(result["passes"]) - 1, i, r] for i, r in failures)
        return sum(seconds)

    if args.trace == 0:
        one_pass()
        while sum(result["passes"]) + result["passes"][-1] / 2 <= args.seconds:
            one_pass()
    else:
        untraced = one_pass()
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = one_pass(tracer)
        layers = spans.layer_metrics(tracer, traced)
        layers["trace.overhead_ratio"] = (traced / untraced, "ratio")
        missing = [m for m in workloads.HOME[args.workload] if not layers[m][0]]
        if missing:
            print(f"layer metrics read 0 on their home workload: {missing}", file=sys.stderr)
            return 4
        result["layers"] = layers
        if args.spans_out:
            tracer.write(args.spans_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
