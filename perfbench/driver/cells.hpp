// Benchmark cells: one simulated machine each, built and driven through the
// library's public API (core::Machine, sync::make_*, svc::ShardedService).
// A cell runs one kernel (barrier episodes, lock acquisitions or service
// requests), checks its outputs, and returns host times, simulated
// counters and a digest of every simulated value it produced.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hpp"
#include "sync/mechanism.hpp"

namespace perfbench {

enum class Kernel : std::uint8_t {
  kCentralBarrier,
  kTreeBarrier,
  kTicketLock,
  kArrayLock,
  kService,
  kHierBarrier,
};

enum class HierVariant : std::uint8_t { kFlatTree, kCluster, kClusterAmu };

[[nodiscard]] const char* to_string(HierVariant v);
/// Metric-name slug of a mechanism: llsc, atomic, actmsg, mao, amo.
[[nodiscard]] const char* slug(amo::sync::Mechanism m);

struct CellSpec {
  std::string id;  // unique within the workload, e.g. "central.amo.p64"
  Kernel kernel = Kernel::kCentralBarrier;
  amo::sync::Mechanism mech = amo::sync::Mechanism::kLlSc;
  std::uint32_t cpus = 4;
  int warmup = 2;                 // barrier episodes / lock acquisitions
  int count = 8;                  // measured episodes / acquisitions
  std::uint32_t fanout = 4;       // tree barrier leaf groups
  std::uint64_t requests = 0;     // service: requests per cpu
  std::uint64_t interarrival = 0; // service: mean gap in cycles
  HierVariant hier = HierVariant::kFlatTree;
  std::uint32_t sim_threads = 1;

  /// Simulated sync operations the cell performs: barrier arrivals, lock
  /// acquisitions (warmup included) or service requests.
  [[nodiscard]] std::uint64_t ops() const;
};

/// The cells of a named workload; empty for an unknown name.
[[nodiscard]] std::vector<CellSpec> workload_cells(const std::string& name);

/// Host-time spans the benchmark records around each call into a layer.
enum Span : std::uint8_t {
  kSpanCell,
  kSpanCtor,
  kSpanSpawn,
  kSpanRun,
  kSpanStats,
  kSpanCheck,
  kSpanDtor,
  kSpanCount,
};
[[nodiscard]] const char* span_name(Span s);

using Clock = std::chrono::steady_clock;

struct SpanEvent {
  Span span;
  Clock::time_point begin;
  Clock::time_point end;
};

struct CellResult {
  bool ok = true;
  std::string error;                   // first failed check
  double seconds[kSpanCount] = {};     // host time per span
  double ctor_rss_mb = 0;              // resident-set growth of the ctor
  std::string digest;                  // of `sim` (includes the registry)
  amo::sim::Json sim = amo::sim::Json::object();  // simulated record
  amo::sim::Json counters = amo::sim::Json::object();
  std::vector<SpanEvent> spans;        // only when tracing
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool trace = false;        // keep span events and measure ctor RSS
  bool keep_registry = false;  // keep the full registry in `sim`
};

/// Builds, runs, checks and tears down one cell. Never throws: a failed
/// check or an exception from the library marks the result not ok.
[[nodiscard]] CellResult run_cell(const CellSpec& spec, const RunOptions& opt);

/// Layer probes: host nanoseconds per call of single public entry points,
/// each run in isolation on a small machine (the traced run only).
[[nodiscard]] amo::sim::Json run_probes();

}  // namespace perfbench
