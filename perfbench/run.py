#!/usr/bin/env python3
"""Benchmark of the potts-sd CLI, end to end and per layer.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Workloads: extract-t16, contract-w9-t18, verify-t24-48, eval-scan (see
README.md).  Run from the root of a checkout; the program is imported from
that checkout's ``src``.  Each workload runs in a fresh child process
(worker.py) that drives ``potts_sd.cli.main`` in-process, one client in a
closed loop, with ``POTTS_SD_THREADS`` removed from its environment so the
CLI defaults hold.  2 * SETUP_REPEATS more children only time set-up.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  The lines before it record the
machine, the sample counts and every metric by name with its unit.  Spans
of a traced run go to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 4  # set-up-only children before and after the workload child: 9 samples
DEADLINE_S = 170  # the whole run, set-up children included


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def percentile(values, p):
    """Nearest-rank percentile: at p=0.9 over 100 samples, 10 lie beyond it."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p * len(ranked)) - 1)]


def git_commit():
    """The checked-out commit, read from .git without running git; 'unknown' elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
    }


def run_child(args, deadline):
    env = dict(os.environ)
    env.pop("POTTS_SD_THREADS", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before a child could start")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {args} did not finish in time") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    # Set-up is timed before and after the workload child, so that a slow
    # spell of the machine during one of them does not move the median.
    setups = [run_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    child = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        child += ["--spans-out", os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    res = run_child(child, deadline)
    setups.append(res["setup_s"])
    setups += [run_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]

    attempted = len(res["op_s"])
    failed = len(res["failures"])
    if args.trace:
        metrics = res["layers"]
    else:
        # Latency percentiles are taken within each pass and then their median
        # over passes, like wall_s: a slow spell of the machine during one pass
        # then moves no metric, where it would fill the tail of pooled samples.
        n = res["ops_per_pass"]
        per_pass = [res["op_s"][i:i + n] for i in range(0, attempted, n)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(res["passes"]), "s"),
            "op_p50_ms": (1000 * statistics.median(statistics.median(ops) for ops in per_pass), "ms"),
            "op_p90_ms": (1000 * statistics.median(percentile(ops, 0.9) for ops in per_pass), "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(res["passes"]), "ops_per_pass": res["ops_per_pass"], "op_samples": attempted,
        "setup_samples": len(setups), "fail_ratio": failed / attempted, "machine": machine_record(),
    }
    return info, res["failures"], attempted, failed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="checked by worker.py")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "potts_sd", "cli.py")):
        print(f"no potts_sd sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    try:
        info, failures, attempted, failed, metrics = measure(args)
    except HarnessError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print("# run " + json.dumps(info))
    for pass_no, op_no, reason in failures:
        print(f"# FAILED pass {pass_no} op {op_no}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
