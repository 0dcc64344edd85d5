#!/usr/bin/env python3
"""Checks that the benchmark's cells reproduce amo_bench exactly.

Run from the repository root, after building amo_bench (see README.md):

    python3 perfbench/crosscheck.py --amo-bench build/amo_bench

For every cell of every workload it runs the benchmark driver once at the
reference seed with --dump-records, runs the amo_bench workload that holds
the same cell at the same parameters with --json, and compares every
simulated field the two records share, the full stats registry included.
Exits 0 only if every cell is found and matches.
"""

import argparse
import json
import os
import subprocess
import sys

import run

# amo_bench invocations covering each workload's cells.
AMO_BENCH_RUNS = {
    "paper_barriers": [["table2"],
                       ["table3", "--cpus=4,8,16,32,64,128,256"]],
    "paper_locks": [["table4", "--cpus=4,16,64"],
                    ["table4", "--cpus=256", "--iters=2"]],
    "service_open_loop": [["microbench_service", "--iters=512"]],
    "hier_1024": [["microbench_hier", "--cpus=1024"],
                  ["microbench_hier", "--cpus=1024", "--sim-threads=2"]],
}
MECH_SLUG = {"LL/SC": "llsc", "Atomic": "atomic", "ActMsg": "actmsg",
             "MAO": "mao", "AMO": "amo"}


def cell_id(rec):
    """The benchmark cell id an amo_bench record corresponds to."""
    mech = MECH_SLUG[rec["mechanism"]]
    w = rec["workload"]
    if w == "barrier":
        return f"{rec['barrier']}.{mech}.p{rec['cpus']}"
    if w == "lock":
        return f"{rec['lock']}.{mech}.p{rec['cpus']}"
    if w == "service":
        return f"service.{mech}.gap{rec['interarrival']}"
    if w == "microbench_hier":
        return f"hier.{rec['barrier']}.k{rec.get('sim_threads', 1)}"
    return None


def differences(ours, theirs, path=""):
    """Paths of values present in both records that differ."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        out = []
        for k in ours.keys() & theirs.keys():
            out += differences(ours[k], theirs[k], f"{path}.{k}")
        return out
    return [] if ours == theirs else [path]


def leaves(ours, theirs):
    """Number of scalar values present in both records."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        return sum(leaves(ours[k], theirs[k])
                   for k in ours.keys() & theirs.keys())
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--amo-bench", required=True)
    a = ap.parse_args()
    exe = run.build()
    scratch = run.build_dir()
    ok = True
    for workload, invocations in AMO_BENCH_RUNS.items():
        ours_path = os.path.join(scratch, f"records-{workload}.json")
        subprocess.run([exe, "--workload", workload, "--seed",
                        str(run.REFERENCE_SEED), "--dump-records", ours_path],
                       check=True)
        with open(ours_path) as f:
            ours = {r["id"]: r for r in json.load(f)}
        theirs = {}
        for n, args in enumerate(invocations):
            path = os.path.join(scratch, f"amo_bench-{workload}-{n}.json")
            subprocess.run([a.amo_bench, "run"] + args + [f"--json={path}"],
                           stdout=subprocess.DEVNULL, check=True)
            with open(path) as f:
                for rec in json.load(f)["records"]:
                    cid = cell_id(rec)
                    # table3 sweeps every tree fanout; keep the cell's own.
                    if cid in ours and rec.get("fanout") == ours[cid].get(
                            "fanout"):
                        theirs[cid] = rec
        mismatched = 0
        fields = []
        for cid, rec in ours.items():
            if cid not in theirs:
                print(f"{workload} {cid}: no amo_bench record")
                mismatched += 1
                continue
            diff = differences(rec, theirs[cid])
            fields.append(leaves(rec, theirs[cid]))
            if diff:
                print(f"{workload} {cid}: differs at {diff[:5]}")
                mismatched += 1
        ok = ok and mismatched == 0
        print(f"{workload}: {len(ours) - mismatched}/{len(ours)} cells "
              f"identical to amo_bench ({min(fields, default=0)}-"
              f"{max(fields, default=0)} shared values per cell)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
