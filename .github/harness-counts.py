#!/usr/bin/env python3
"""Prints the counted columns of the harness grids, one line per row.

Usage: python3 .github/harness-counts.py HARNESS > harness-counts.txt

HARNESS is a built harness binary (target/release/harness). The script
runs two grids, each in an environment stripped of every TSS_* and
BENCH_* variable so that kernels, fault plans, executors and budgets
stay at their defaults:

* `HARNESS bench --json --threads 1` with BENCH_SHARDS=8, so the sharded
  rows do not depend on the machine's core count;
* `HARNESS bench --json --stream`.

Each output line holds a row's key (algo, workload, threads, shards,
window, whichever the row has) and every counted column, its metrics
included. Wall clocks and machine or process metadata are dropped. CI
diffs the output against the committed .github/harness-counts.txt; a
change that alters the grids' work on purpose regenerates that file.
"""

import json
import os
import subprocess
import sys

DROPPED = {
    "wall_ns",
    "available_parallelism",
    "kernel",
    "executor",
    "workers",
    "fault_seed",
    "fault_rate",
    "budget_limit",
    "updates_per_sec",
    "repair_ns_p50",
    "repair_ns_p95",
    "repair_ns_p99",
}


def grid(harness, args, extra_env):
    env = {
        k: v
        for k, v in os.environ.items()
        if not (k.startswith("TSS_") or k.startswith("BENCH_"))
    }
    env.update(extra_env)
    out = subprocess.run(
        [harness, "bench", "--json", *args],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    return json.loads(out)


def line(row):
    fields = []
    for k, v in row.items():
        if k in DROPPED:
            continue
        if k == "metrics":
            fields += [f"{m}={n}" for m, n in v.items()]
        else:
            fields.append(f"{k}={json.dumps(v)}")
    return " ".join(fields)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    harness = sys.argv[1]
    rows = grid(harness, ["--threads", "1"], {"BENCH_SHARDS": "8"})
    rows += grid(harness, ["--stream"], {})
    for row in rows:
        print(line(row))


if __name__ == "__main__":
    main()
