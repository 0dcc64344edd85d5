#!/usr/bin/env python3
"""Acceptance gates over amo_bench --json documents.

One subcommand per gate; each reads the JSON files an `amo_bench run ...
--json=FILE` invocation wrote and exits non-zero (AssertionError) when the
gate fails. CI runs the same commands after producing the files, e.g.

    ./build/amo_bench run microbench_hier --json=BENCH_hier.json
    python3 bench/gates.py hier BENCH_hier.json

Subcommands and the runs they expect:

    schema FILE           run table2 --quick --episodes=2
    spin FILE             run microbench_spin --quick --episodes=2
    hier FILE             run microbench_hier
    pdes FILE             run microbench_hier (the same file as hier)
    hier-determinism A B  run microbench_hier --quick --episodes=4 at
                          --threads=1 and --threads=4
    pdes1024 FILE         run microbench_hier --cpus=1024 --episodes=2
    service FILE          run microbench_service --threads=4
    pdes4096 K1 K4 K8     run microbench_hier --cpus=4096 --sim-threads=K
                          --set num_cpus=4096 --episodes=2, for K = 1, 4, 8

The PDES gates read the flat-tree cells, which microbench_hier runs at
sim_threads 1, 2 and 4 for every cpu count (one K when --sim-threads pins
it).
"""
import argparse
import json
import os


def records(path):
    return json.load(open(path))["records"]


def flat_tree(path):
    return [r for r in records(path) if r["barrier"] == "flat_tree"]


def schema(path):
    # The record schema the perf trajectory depends on: per-mechanism
    # cycles, traffic counts, and a registry dump with AMU counters.
    doc = json.load(open(path))
    assert doc["bench"] == "table2_barriers"
    assert doc["schema_version"] == 2
    recs = doc["records"]
    assert recs, "no records emitted"
    mechs = {r["mechanism"] for r in recs}
    assert {"LL/SC", "AMO"} <= mechs, mechs
    for r in recs:
        assert r["cycles_per_barrier"] > 0
        assert r["traffic"]["packets"] > 0
        assert r["traffic"]["bytes"] > 0
        assert r["registry"]["node0"]["amu"]["ops"] >= 0
    print(f"ok: {len(recs)} records, mechanisms={sorted(mechs)}")


# Per-episode cycles and host events of each (cpus, active) cell at
# --quick --episodes=2 when cached spins still re-polled on a 2000-cycle
# fallback timer. Event-driven waiting must reproduce the cycles exactly
# and execute strictly fewer events.
SPIN_POLL_BASELINE = {
    (64, 4): (3539.5, 385.5),
    (64, 16): (3446.5, 532.0),
    (64, 64): (4555.5, 1088.5),
}


def spin(path):
    recs = records(path)
    assert recs, "no records emitted"
    by_key = {}
    for r in recs:
        assert r["workload"] == "microbench_spin"
        assert r["events_per_episode"] > 0
        assert r["cycles_per_episode"] > 0
        by_key[(r["cpus"], r["active"])] = r
    assert set(by_key) == set(SPIN_POLL_BASELINE), sorted(by_key)
    for key, (cycles, events) in SPIN_POLL_BASELINE.items():
        r = by_key[key]
        assert r["cycles_per_episode"] == cycles, (key, r["cycles_per_episode"])
        assert r["events_per_episode"] < events, (key, r["events_per_episode"])
    print(f"ok: {len(recs)} spin records, polling-mode cycles with fewer "
          "host events")


def pdes(path):
    recs = flat_tree(path)
    assert recs, "no flat_tree records emitted"
    by_cell = {}
    for r in recs:
        assert r["workload"] == "microbench_hier"
        assert r["cycles_per_episode"] > 0
        assert r["events"] > 0
        assert r["wall_ms"] > 0
        assert r["events_per_sec"] > 0
        by_cell[(r["cpus"], r["sim_threads"])] = r
    cpus = sorted({c for c, _ in by_cell})
    for c in cpus:
        assert {(c, 1), (c, 2), (c, 4)} <= set(by_cell), c
    # The headline acceptance: on a >= 4-core host, 4 PDES domains
    # run the 256-CPU cell at least 2.5x faster than the serial
    # engine. Skipped on smaller runners where the domains would
    # just time-slice one core.
    if os.cpu_count() >= 4:
        k1 = by_cell[(256, 1)]["wall_ms"]
        k4 = by_cell[(256, 4)]["wall_ms"]
        speedup = k1 / k4
        print(f"256-CPU wall: K=1 {k1:.1f}ms, K=4 {k4:.1f}ms, "
              f"speedup {speedup:.2f}x")
        assert speedup >= 2.5, f"K=4 speedup {speedup:.2f}x < 2.5x"
    else:
        print(f"host has {os.cpu_count()} cores; speedup gate skipped")
    print(f"ok: {len(recs)} pdes records across cpus={cpus}")


def same_simulated_fields(path_a, path_b, sim):
    a = records(path_a)
    b = records(path_b)
    assert len(a) == len(b) and a, (len(a), len(b))
    for ra, rb in zip(a, b):
        for key in sim:  # wall_ms / events_per_sec are host noise
            assert ra[key] == rb[key], (key, ra, rb)
    print(f"ok: {len(a)} records identical on all simulated fields")


def pdes1024(path):
    recs = flat_tree(path)
    ks = {r["sim_threads"] for r in recs if r["cpus"] == 1024}
    assert ks == {1, 2, 4}, ks
    for r in recs:
        assert r["cycles_per_episode"] > 0
    print("ok: 1024-CPU episodes completed at K=1/2/4 within budget")


def hier(path):
    recs = records(path)
    assert recs, "no records emitted"
    by_key = {}
    for r in recs:
        assert r["workload"] == "microbench_hier"
        assert r["cycles_per_episode"] > 0
        by_key[(r["cpus"], r["barrier"], r["sim_threads"])] = r
    # The acceptance gate: at 256+ CPUs the aggregated cluster barrier
    # must cross the fat tree's root links with < 0.5x the messages of
    # the flat AMO tree barrier, at lower cycles per episode.
    for cpus in (256, 1024):
        flat = by_key[(cpus, "flat_tree", 1)]
        agg = by_key[(cpus, "cluster_amu", 1)]
        ratio = (agg["root_link_messages"]
                 / max(1, flat["root_link_messages"]))
        print(f"{cpus} CPUs: root-link msgs {ratio:.3f}x of flat, "
              f"cycles {agg['cycles_per_episode']:.0f} vs "
              f"{flat['cycles_per_episode']:.0f}")
        assert ratio < 0.5, f"root-link reduction gate: {ratio:.3f}"
        assert (agg["cycles_per_episode"]
                < flat["cycles_per_episode"]), cpus
    print(f"ok: {len(recs)} hier records, aggregation gate holds")


def hier_determinism(path_a, path_b):
    same_simulated_fields(path_a, path_b,
                          ("cpus", "sim_threads", "mechanism", "barrier",
                           "levels", "episodes", "cycles_per_episode",
                           "total_cycles", "root_link_messages", "events"))


def service(path):
    recs = records(path)
    assert recs, "no records emitted"
    by_cell = {}
    for r in recs:
        assert r["workload"] == "service"
        assert r["requests"] >= 1_000_000, r["requests"]
        lat = r["latency"]
        assert 0 < lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["p999"]
        by_cell[(r["mechanism"], r["interarrival"])] = lat
    loads = sorted({ia for _, ia in by_cell}, reverse=True)
    assert len(loads) >= 3, loads
    lo, hi = loads[0], loads[-1]
    # Gate 1: at the heaviest offered load the AMO service keeps a
    # lower p999 than LL/SC.
    llsc_hi = by_cell[("LL/SC", hi)]["p999"]
    amo_hi = by_cell[("AMO", hi)]["p999"]
    print(f"p999 @ interarrival={hi}: LL/SC {llsc_hi}, AMO {amo_hi}")
    assert amo_hi < llsc_hi, (amo_hi, llsc_hi)
    # Gate 2: LL/SC p999 grows super-linearly across the load sweep
    # (each halving-ish of the gap more than doubles the tail).
    llsc = [by_cell[("LL/SC", ia)]["p999"] for ia in loads]
    print(f"LL/SC p999 across loads {loads}: {llsc}")
    for a, b in zip(llsc, llsc[1:]):
        assert b > 2 * a, (a, b)
    # Gate 3: AMO stays within 2x of its own low-load p999.
    amo_lo = by_cell[("AMO", lo)]["p999"]
    print(f"AMO p999: low-load {amo_lo}, high-load {amo_hi} "
          f"({amo_hi / amo_lo:.2f}x)")
    assert amo_hi <= 2 * amo_lo, (amo_hi, amo_lo)
    print(f"ok: {len(recs)} service records, tail-latency gates hold")


def pdes4096(path_k1, path_k4, path_k8):
    for k, path in ((1, path_k1), (4, path_k4), (8, path_k8)):
        recs = flat_tree(path)
        assert len(recs) == 1, (k, len(recs))
        r = recs[0]
        assert r["cpus"] == 4096 and r["sim_threads"] == k, r
        assert r["cycles_per_episode"] > 0
    print("ok: 4096-CPU episodes completed at K=1/4/8 within budget")


GATES = {
    "schema": (schema, 1),
    "spin": (spin, 1),
    "pdes": (pdes, 1),
    "pdes1024": (pdes1024, 1),
    "hier": (hier, 1),
    "hier-determinism": (hier_determinism, 2),
    "service": (service, 1),
    "pdes4096": (pdes4096, 3),
}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="gate", required=True)
    for name, (_, nfiles) in GATES.items():
        sub.add_parser(name).add_argument("files", nargs=nfiles)
    args = parser.parse_args()
    GATES[args.gate][0](*args.files)


if __name__ == "__main__":
    main()
