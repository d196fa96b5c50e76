#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py                       # 1 run + 1 traced run per workload
    python3 perfbench/report.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/report.py --workloads eval-scan --runs 5 --no-trace

Run i uses seed ``--first-seed`` + i (default 1).  For each end-to-end metric the table
shows the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
The traced run prints every per-layer metric.  ``--out`` writes all run
results with the machine record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith("# run "))[len("# run "):])
    return {"info": info, **json.loads(lines[-1])}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="*", default=names, help="default: those in BENCHMARK.json")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--no-trace", dest="trace", action="store_false")
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, args.first_seed + i, bench["run_seconds"], 0) for i in range(args.runs)]
        entry = record["workloads"][workload] = {"runs": runs, "summary": {}}
        record["machine"] = runs[0]["info"]["machine"]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n== {workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"fail_ratio {failed}/{attempted}, {runs[0]['info']['op_samples']} op samples in run 1")
        print(f"   {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            unit = runs[0]["metrics"][name]["unit"]
            entry["summary"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"   {name:<14} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound:>6}")
        if args.trace:
            traced = run(workload, args.first_seed, bench["run_seconds"], 1)
            entry["traced"] = traced
            print(f"   traced run, seed {args.first_seed}:")
            for name, m in traced["metrics"].items():
                print(f"   {name:<36} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
