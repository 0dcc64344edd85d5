#!/usr/bin/env python3
"""The repository's benchmark: host cost and fidelity of the simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/driver (and the amo library from src/) with CMake into
.bench_build/perfbench, runs the workload in one fresh process, checks every
cell's outputs, and prints a summary on stderr and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones. README.md defines each.

Other modes:
    --workload all               untraced summary of every workload
    --record-reference           rewrite data/sim_reference.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
WORKLOADS = ["paper_barriers", "paper_locks", "service_open_loop", "hier_1024"]
MECHS = ["llsc", "actmsg", "atomic", "mao", "amo"]
# Table 2's ordering claim, strongest first.
PAPER_ORDER = ["amo", "mao", "actmsg", "atomic", "llsc"]
SERVICE_MECHS = ["llsc", "atomic", "amo"]
SERVICE_GAPS = [64000, 24000]
HIER_VARIANTS = ["flat_tree", "cluster", "cluster_amu"]
REFERENCE_SEED = 1  # core::SystemConfig{}.seed
RUN_TIMEOUT_S = 170
# Best time of the driver's calibration kernel (driver/main.cpp) on the
# reference host, a 4-vCPU Xeon VM: wall_s is reported in seconds of that
# host.
CALIBRATION_REF_S = 0.010
SPANS = ["core.Machine()", "core.spawn", "sim.run", "core.stats_json",
         "check.coherence", "core.~Machine"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build():
    """Configures once and builds the driver; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_driver(exe, args):
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, check=True, text=True)
    return json.loads(proc.stdout)


def load(name):
    with open(os.path.join(DATA, name)) as f:
        return json.load(f)


# ---------------------------------------------------------------- helpers

def cells_by_id(cells):
    return {c["id"]: c for c in cells}


def span_total(p, span):
    return sum(c["seconds"][span] for c in p["cells"])


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------- fidelity / checks

def paper_points(workload, cells):
    """(ours, paper) speedup pairs for the paper's Table 2 or Table 4."""
    c = cells_by_id(cells)
    ref = load("paper_reference.json")
    pts = []
    if workload == "paper_barriers":
        for p, row in ref["table2_central_barrier_speedup_over_llsc"].items():
            base = c[f"central.llsc.p{p}"]["sim"]["cycles_per_barrier"]
            for mech, paper in row.items():
                ours = base / c[f"central.{mech}.p{p}"]["sim"]["cycles_per_barrier"]
                pts.append((ours, paper))
    elif workload == "paper_locks":
        for p, row in ref["table4_lock_speedup_over_llsc_ticket"].items():
            base = c[f"ticket.llsc.p{p}"]["sim"]["total_cycles"]
            for variant, paper in row.items():
                kind, mech = variant.split(".")
                ours = base / c[f"{kind}.{mech}.p{p}"]["sim"]["total_cycles"]
                pts.append((ours, paper))
    return pts


def paper_err_pct(workload, cells):
    """Mean |ours/paper - 1| in percent; 0 where the paper has no table."""
    pts = paper_points(workload, cells)
    if not pts:
        return 0.0
    return 100.0 * statistics.fmean(abs(o / r - 1.0) for o, r in pts)


def paper_order_violations(workload, cells):
    """Table 2 points where AMO > MAO > ActMsg > Atomic > LL/SC fails."""
    if workload != "paper_barriers":
        return 0
    c = cells_by_id(cells)
    bad = 0
    for p in (4, 8, 16, 32, 64, 128, 256):
        cyc = [c[f"central.{m}.p{p}"]["sim"]["cycles_per_barrier"]
               for m in PAPER_ORDER]
        bad += sum(1 for a, b in zip(cyc, cyc[1:]) if not a < b)
    return bad


def check_passes(passes):
    """Counts failed cell executions: failed checks, plus any cell whose
    simulated record differs from the first pass at the same seed (same
    seed twice, and traced vs untraced, must agree exactly)."""
    first = {}
    failed = 0
    errors = []
    for p in passes:
        if p["kind"] == "reference":
            continue
        seen = first.setdefault(p["seed"], {})
        for c in p["cells"]:
            bad = not c["ok"]
            if bad:
                errors.append(f"{p['kind']} {c['id']}: {c['error']}")
            want = seen.setdefault(c["id"], c["digest"])
            if want != c["digest"]:
                bad = True
                errors.append(f"{p['kind']} {c['id']}: simulated output "
                              f"differs from an earlier pass at seed "
                              f"{p['seed']}")
            failed += bad
    return failed, errors


# ---------------------------------------------------------------- metrics

def best_wall(passes):
    """Sum over cells of each cell's fastest time in `passes`. On a shared
    host contention only ever adds time, and the best of a run's
    repetitions of each cell is far steadier than any per-pass figure."""
    best = {}
    for p in passes:
        for c in p["cells"]:
            t = c["seconds"]["cell"]
            best[c["id"]] = min(best.get(c["id"], t), t)
    return sum(best.values())


def host_scale(passes):
    """Reference-host seconds per host second in this run: the fixed
    calibration kernel's time on the reference host over its fastest time
    beside this run's passes. A shared host runs minutes-long slow phases;
    scaling by a same-run reference cancels them (and host changes)."""
    return CALIBRATION_REF_S / min(min(p["calibration_s"]) for p in passes)


def end_to_end(doc):
    """wall_s is best_wall in reference-host seconds; setup_s is the median
    over passes of the pass's Machine construction time, as measured."""
    plain = [p for p in doc["passes"] if p["kind"] == "plain"]
    wall = best_wall(plain) * host_scale(plain)
    ops = sum(c["ops"] for c in plain[0]["cells"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(span_total(p, "core.Machine()")
                                      for p in plain), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "sim_ops_per_s": (ops / wall, "1/s"),
    }


def self_times(p):
    """Per-span self time of one traced pass, from its span events."""
    out = {s: 0.0 for s in ["cell"] + SPANS}
    child = 0.0
    for _, name, begin, end in p["spans"]:
        out[name] += (end - begin) * 1e-6
        if name != "cell":
            child += (end - begin) * 1e-6
    out["cell"] -= child
    return out


def write_trace(doc, path):
    """Chrome trace-event file of every traced pass's spans."""
    events = []
    for n, p in enumerate(q for q in doc["passes"] if q["kind"] == "traced"):
        for cell, name, begin, end in p["spans"]:
            events.append({"name": name, "ph": "X", "pid": 1, "tid": n + 1,
                           "ts": begin, "dur": end - begin,
                           "args": {"cell": p["cells"][cell]["id"]}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def per_layer(doc):
    workload = doc["workload"]
    plain = [p for p in doc["passes"] if p["kind"] == "plain"]
    traced = [p for p in doc["passes"] if p["kind"] == "traced"]
    cells = plain[0]["cells"]
    by_id = cells_by_id(cells)
    k = {}
    for c in cells:
        for name, v in c["counters"].items():
            k[name] = k.get(name, 0) + v
    ops = sum(c["ops"] for c in cells)
    probes = doc["probes"]
    st = [self_times(p) for p in traced]

    def med_self(span):
        return statistics.median(s[span] for s in st)

    m = {}
    m["core.machine_ctor_s"] = (med_self("core.Machine()"), "s")
    m["core.machine_dtor_s"] = (med_self("core.~Machine"), "s")
    m["core.stats_json_s"] = (med_self("core.stats_json"), "s")
    m["core.rss_mb_per_machine"] = (statistics.median(
        statistics.fmean(c["ctor_rss_mb"] for c in p["cells"])
        for p in traced), "MB")

    run_s = med_self("sim.run")
    events = k["events"]
    ns_per_event = ratio(run_s * 1e9, events)
    m["sim.run_s"] = (run_s, "s")
    m["sim.events"] = (events, "count")
    m["sim.events_per_op"] = (ratio(events, ops), "count")
    m["sim.ns_per_event"] = (ns_per_event, "ns")
    m["sim.probe.event_ns"] = (probes["sim.probe.event_ns"], "ns")
    m["sim.dispatch_overhead_x"] = (
        ratio(ns_per_event, probes["sim.probe.event_ns"]), "x")
    cell_ms = [c["seconds"]["cell"] * 1e3
               for p in plain + traced for c in p["cells"]]
    # The highest percentile with at least 10 samples beyond it.
    tail_q = max(0.5, 1.0 - 10.0 / len(cell_ms))
    m["sim.cell_ms_p50"] = (quantile(cell_ms, 0.5), "ms")
    m["sim.cell_ms_ptail"] = (quantile(cell_ms, tail_q), "ms")
    m["sim.cell_ms_ptail_pct"] = (100.0 * tail_q, "%")
    m["sim.cell_samples"] = (len(cell_ms), "count")
    for v in HIER_VARIANTS:
        speedup = 0.0
        if workload == "hier_1024":
            runs = {kk: statistics.median(
                cells_by_id(p["cells"])[f"hier.{v}.k{kk}"]["seconds"]["sim.run"]
                for p in plain + traced) for kk in (1, 2)}
            speedup = ratio(runs[1], runs[2])
        m[f"sim.pdes_k2_speedup.{v}"] = (speedup, "x")

    m["net.packets"] = (k["net.packets"], "count")
    m["net.bytes"] = (k["net.bytes"], "B")
    m["net.root_link_traversals"] = (k["net.root_link_traversals"], "count")
    m["net.probe.send_ns"] = (probes["net.probe.send_ns"], "ns")
    m["coh.dir.ops"] = (k["coh.dir.ops"], "count")
    m["coh.dir.deferred"] = (k["coh.dir.deferred"], "count")
    m["coh.dir.invals_sent"] = (k["coh.dir.invals_sent"], "count")
    m["coh.dir.word_updates_sent"] = (k["coh.dir.word_updates_sent"], "count")
    m["coh.probe.dir_word_op_ns"] = (probes["coh.probe.dir_word_op_ns"], "ns")
    m["coh.cache.sc_fail_ratio"] = (ratio(
        k["coh.cache.sc_fail"],
        k["coh.cache.sc_fail"] + k["coh.cache.sc_success"]), "ratio")
    m["coh.cache.misses"] = (k["coh.cache.misses"], "count")
    l2 = k["mem.l2.hits"] + k["mem.l2.misses"]
    m["mem.l2.hit_ratio"] = (ratio(k["mem.l2.hits"], l2), "ratio")
    m["mem.l2.misses"] = (k["mem.l2.misses"], "count")
    m["mem.probe.cache_hit_ns"] = (probes["mem.probe.cache_hit_ns"], "ns")
    m["amu.ops"] = (k["amu.ops"], "count")
    m["amu.cache_hit_ratio"] = (ratio(
        k["amu.cache_hits"], k["amu.cache_hits"] + k["amu.cache_misses"]),
        "ratio")
    m["amu.puts_suppressed"] = (k["amu.puts_suppressed"], "count")
    m["amu.queue_depth_mean"] = (ratio(k["amu.queue_depth_sum"],
                                       k["amu.queue_depth_samples"]), "count")
    m["amu.probe.submit_ns"] = (probes["amu.probe.submit_ns"], "ns")
    m["cpu.am.replays"] = (k["cpu.am.replays"], "count")
    m["cpu.spin.elided_polls"] = (k["cpu.spin.elided_polls"], "count")
    m["cpu.probe.load_hit_ns"] = (probes["cpu.probe.load_hit_ns"], "ns")

    # Probe cost x matching counter, as a share of sim.run: an estimate in
    # host-independent units (the probes overlap, so shares need not sum
    # to 100).
    for layer, probe, count in (
            ("sim", "sim.probe.event_ns", events),
            ("net", "net.probe.send_ns", k["net.packets"]),
            ("coh", "coh.probe.dir_word_op_ns", k["coh.dir.ops"]),
            ("mem", "mem.probe.cache_hit_ns", l2),
            ("amu", "amu.probe.submit_ns", k["amu.ops"]),
            ("cpu", "cpu.probe.load_hit_ns", k["coh.cache.loads"])):
        m[f"{layer}.est_run_share_pct"] = (
            ratio(100.0 * probes[probe] * count, run_s * 1e9), "%")

    for mech in MECHS:
        v = 0.0
        if workload == "paper_barriers":
            v = by_id[f"central.{mech}.p256"]["sim"]["cycles_per_barrier"]
        m[f"sync.barrier_cycles.{mech}"] = (v, "cycles")
    for mech in MECHS:
        v = 0.0
        if workload == "paper_locks":
            v = by_id[f"ticket.{mech}.p256"]["sim"]["cycles_per_acquire"]
        m[f"sync.acquire_cycles.{mech}"] = (v, "cycles")
    for q in ("p50", "p999"):
        for mech in SERVICE_MECHS:
            for gap in SERVICE_GAPS:
                v = 0.0
                if workload == "service_open_loop":
                    v = by_id[f"service.{mech}.gap{gap}"]["sim"]["latency"][q]
                m[f"svc.{q}_cycles.{mech}.{gap}"] = (v, "cycles")
    m["svc.events_per_request"] = (
        ratio(events, ops) if workload == "service_open_loop" else 0.0,
        "count")

    m["sync.paper_err_pct"] = (paper_err_pct(workload, cells), "%")

    reference = next(p for p in doc["passes"] if p["kind"] == "reference")
    want = load("sim_reference.json")[workload]
    m["check.sim_changed_cells"] = (sum(
        1 for c in reference["cells"] if want.get(c["id"]) != c["digest"]),
        "count")
    m["check.paper_order_violations"] = (
        paper_order_violations(workload, cells), "count")
    m["check.coherence_s"] = (med_self("check.coherence"), "s")
    held_out = next(p for p in doc["passes"] if p["kind"] == "held_out")
    m["check.held_out_failed_cells"] = (
        sum(1 for c in held_out["cells"] if not c["ok"]), "count")
    m["host.calibration_ms"] = (
        1e3 * min(min(p["calibration_s"]) for p in plain + traced), "ms")
    plain_wall = best_wall(plain)
    m["trace.overhead_pct"] = (
        100.0 * (best_wall(traced) - plain_wall) / plain_wall, "%")
    return m


# ------------------------------------------------------------------ modes

def run_workload(exe, workload, seed, seconds, trace):
    doc = run_driver(exe, ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace",
                           "1" if trace else "0"])
    failed, errors = check_passes(doc["passes"])
    attempted = sum(len(p["cells"]) for p in doc["passes"]
                    if p["kind"] != "reference")
    for e in errors[:20]:
        log(f"FAIL {e}")
    if trace:
        write_trace(doc, os.path.join(build_dir(), f"trace-{workload}.json"))
        return attempted, failed, per_layer(doc), {}
    plain = [p for p in doc["passes"] if p["kind"] == "plain"]
    notes = {"failed_frac": (failed / attempted, "ratio"),
             "wall_s_as_measured": (best_wall(plain), "s"),
             "host_scale": (host_scale(plain), "x")}
    if workload.startswith("paper_"):
        notes["paper_err_pct"] = (paper_err_pct(workload, plain[0]["cells"]),
                                  "%")
    return attempted, failed, end_to_end(doc), notes


def summary(workload, attempted, failed, metrics, notes):
    log(f"== {workload}: {attempted} cells attempted, {failed} failed")
    for name, (value, unit) in list(metrics.items()) + list(notes.items()):
        log(f"  {name:34s} {value:16.6g} {unit}")


def record_reference(exe):
    """Digests of every cell at the reference seed, for check.sim_changed_cells."""
    ref = {}
    for w in WORKLOADS:
        path = os.path.join(build_dir(), f"records-{w}.json")
        subprocess.run([exe, "--workload", w, "--seed", str(REFERENCE_SEED),
                        "--dump-records", path], check=True,
                       timeout=RUN_TIMEOUT_S)
        with open(path) as f:
            ref[w] = {r["id"]: r["digest"] for r in json.load(f)}
    with open(os.path.join(DATA, "sim_reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    a = ap.parse_args()
    if not a.workload and not a.record_reference:
        ap.error("--workload is required")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if a.record_reference:
        record_reference(exe)
        return 0
    if a.workload == "all":
        for w in WORKLOADS:
            summary(w, *run_workload(exe, w, a.seed, a.seconds, a.trace == 1))
        return 0
    t0 = time.monotonic()
    attempted, failed, metrics, notes = run_workload(
        exe, a.workload, a.seed, a.seconds, a.trace == 1)
    summary(a.workload, attempted, failed, metrics, notes)
    log(f"  (run took {time.monotonic() - t0:.1f} s)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
