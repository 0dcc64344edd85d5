// perfbench: runs one benchmark workload in this process and prints what
// it measured as one JSON document on stdout. perfbench/run.py builds this
// program and turns the document into the benchmark's metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --dump-records FILE
//
// A run repeats the workload's cells ("a pass") at the given seed until S
// seconds have passed (at least kMinPasses times), timing a fixed
// calibration kernel after each pass. With --trace 1 it
// alternates untraced and traced passes, then runs one pass at a held-out
// seed, one at the reference seed, and the layer probes. --dump-records
// runs one pass and writes every cell's simulated record, registry
// included, to FILE (for comparing against amo_bench --json output).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.hpp"
#include "core/system_config.hpp"

namespace {

using namespace perfbench;
using amo::sim::Json;

constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;
constexpr int kCalibrationsPerPass = 5;
// Seeds of the traced run's extra passes. The reference seed is the
// SystemConfig default, at which data/sim_reference.json was recorded.
constexpr std::uint64_t kHeldOutSeedSalt = 0x9e3779b97f4a7c15ull;
const std::uint64_t kReferenceSeed = amo::core::SystemConfig{}.seed;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dump_records;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--dump-records FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--dump-records") {
        o.dump_records = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

// A fixed reference computation shaped like the simulator's inner loop (a
// hold-model event heap plus a dependent random access into a 16 MB table
// per event), built from this file alone so no change to the library can
// move it. Timing it beside each pass measures how fast the host is
// running right then. Returns seconds.
volatile std::uint64_t g_calibration_sink = 0;  // keeps the loop observable
double calibrate() {
  constexpr std::uint32_t kTable = 1u << 21;
  constexpr int kPending = 4096;
  constexpr int kEvents = 60000;
  static std::vector<std::uint64_t> table(kTable, 1);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kPending; ++i) {
    q.push({next() % 256, static_cast<std::uint32_t>(next() % kTable)});
  }
  for (int i = 0; i < kEvents; ++i) {
    const auto [now, slot] = q.top();
    q.pop();
    acc += table[slot];
    table[slot] = acc ^ now;
    q.push({now + 1 + next() % 256,
            static_cast<std::uint32_t>((slot * 2654435761u + acc) % kTable)});
  }
  const double s = since(t0, Clock::now());
  g_calibration_sink = acc;
  return s;
}

// One pass over every cell. `origin` anchors traced span stamps.
Json run_pass(const std::vector<CellSpec>& cells, const char* kind,
              const RunOptions& opt, Clock::time_point origin) {
  Json pass = Json::object();
  pass["kind"] = kind;
  pass["seed"] = opt.seed;
  Json out = Json::array();
  Json spans = Json::array();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult r = run_cell(cells[i], opt);
    Json c = Json::object();
    c["id"] = cells[i].id;
    c["ok"] = r.ok;
    if (!r.ok) c["error"] = r.error;
    c["ops"] = cells[i].ops();
    c["digest"] = r.digest;
    Json secs = Json::object();
    for (int s = 0; s < kSpanCount; ++s) {
      secs[span_name(static_cast<Span>(s))] = r.seconds[s];
    }
    c["seconds"] = std::move(secs);
    if (opt.trace) c["ctor_rss_mb"] = r.ctor_rss_mb;
    c["sim"] = r.sim;
    c["counters"] = r.counters;
    out.push_back(std::move(c));
    for (const SpanEvent& e : r.spans) {
      Json ev = Json::array();
      ev.push_back(static_cast<std::uint64_t>(i));
      ev.push_back(span_name(e.span));
      ev.push_back(since(origin, e.begin) * 1e6);
      ev.push_back(since(origin, e.end) * 1e6);
      spans.push_back(std::move(ev));
    }
  }
  pass["wall_s"] = since(t0, Clock::now());
  pass["cells"] = std::move(out);
  if (opt.trace) pass["spans"] = std::move(spans);
  return pass;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

int dump_records(const std::vector<CellSpec>& cells, const Options& o) {
  RunOptions opt;
  opt.seed = o.seed;
  opt.keep_registry = true;
  Json records = Json::array();
  for (const CellSpec& spec : cells) {
    CellResult r = run_cell(spec, opt);
    if (!r.ok) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", spec.id.c_str(),
                   r.error.c_str());
      return 1;
    }
    Json rec = std::move(r.sim);
    rec["id"] = spec.id;
    rec["digest"] = r.digest;
    records.push_back(std::move(rec));
  }
  std::ofstream f(o.dump_records, std::ios::trunc);
  f << records.dump(1) << '\n';
  return f.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial value. Left adaptive, it
  // rises after the first large free, and later Machines' arrays then come
  // from a heap whose resident part creeps from cell to cell by a
  // seed-dependent amount. Pinned, every Machine's large arrays are mapped
  // for it and unmapped with it: peak RSS is the largest live footprint,
  // and every pass pays the same cost to build each Machine.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options o = parse(argc, argv);
  const std::vector<CellSpec> cells = workload_cells(o.workload);
  if (cells.empty()) usage("unknown workload " + o.workload);
  if (!o.dump_records.empty()) return dump_records(cells, o);

  const Clock::time_point origin = Clock::now();
  Json passes = Json::array();
  RunOptions plain;
  plain.seed = o.seed;
  RunOptions traced = plain;
  traced.trace = true;

  // Stop once the next pass would end past the deadline (passes take
  // about equally long), but never before the minimum pass counts.
  int n_plain = 0;
  int n_traced = 0;
  double longest = 0;
  double peak_mb = 0;
  while (true) {
    const double elapsed = since(origin, Clock::now());
    const bool enough = n_plain >= kMinPasses &&
                        (!o.trace || n_traced >= kMinTracedPasses);
    if (enough && elapsed + longest > o.seconds) break;
    const bool trace_next = o.trace && n_traced < n_plain;
    const Clock::time_point t0 = Clock::now();
    Json pass = run_pass(cells, trace_next ? "traced" : "plain",
                         trace_next ? traced : plain, origin);
    ++(trace_next ? n_traced : n_plain);
    // The workload's peak is that of its first pass (taken before the
    // calibration kernel's table exists); later passes only repeat it.
    if (n_plain == 1 && n_traced == 0) peak_mb = peak_rss_mb();
    Json calibration = Json::array();
    for (int k = 0; k < kCalibrationsPerPass; ++k) {
      calibration.push_back(calibrate());
    }
    pass["calibration_s"] = std::move(calibration);
    passes.push_back(std::move(pass));
    longest = std::max(longest, since(t0, Clock::now()));
  }

  Json doc = Json::object();
  doc["workload"] = o.workload;
  if (o.trace) {
    RunOptions held_out = plain;
    held_out.seed = o.seed ^ kHeldOutSeedSalt;
    passes.push_back(run_pass(cells, "held_out", held_out, origin));
    RunOptions reference = plain;
    reference.seed = kReferenceSeed;
    passes.push_back(run_pass(cells, "reference", reference, origin));
    doc["probes"] = run_probes();
  }
  doc["passes"] = std::move(passes);
  doc["peak_rss_mb"] = peak_mb;
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}
