#!/usr/bin/env python3
"""Regenerate eval_reference.json: the eval-scan point pool and its recorded rows.

    python3 perfbench/record_eval_reference.py

The pool is POOL_SIZE points, uniform in q in [0.02, 0.3] and u/lam in
[0.15, 0.40], with N drawn from
workloads.EVAL_SIZES = [8, 12, 16]; each row is what
``potts-sd eval --route closedform,bethe`` printed when the file was
recorded.  The eval-scan check compares later outputs with these rows, so
re-record only when a change of the eval output is intended, and say so.
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from potts_sd import cli  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20160604
POOL_SIZE = 300


def main():
    rng = random.Random(POOL_SEED)
    points = []
    for _ in range(POOL_SIZE):
        point = {"q": rng.uniform(0.02, 0.3), "u_frac": rng.uniform(0.15, 0.40), "N": rng.choice(workloads.EVAL_SIZES)}
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(workloads.eval_argv(point))
        if code != 0:
            raise SystemExit(f"eval failed with exit {code} at {point}")
        (point["row"],) = json.loads(out.getvalue())["rows"]
        points.append(point)
    head = json.dumps({"pool_seed": POOL_SEED, "route": workloads.EVAL_ROUTE})[:-1]
    with open(workloads.EVAL_REFERENCE, "w") as fh:  # one point per line
        fh.write(head + ', "points": [\n' + ",\n".join(json.dumps(p) for p in points) + "\n]}\n")


if __name__ == "__main__":
    main()
