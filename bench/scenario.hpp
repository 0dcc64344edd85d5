// The scenario layer: experiments as data. A SweepSpec is a declarative
// list of cells — (config-delta, kernel-params) pairs — that run_spec
// executes; a TableSpec says how to pivot the cells into a printed
// table. Every workload is a registered builder producing a SweepSpec; a
// JSON scenario file deserializes into exactly the same structure, so
// `amo_bench run --spec=file.json` and a named run share every code path
// after parsing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "sim/json.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"

namespace amo::bench {

/// The simulation kernels a cell can run: the paper's two measurement
/// loops (barrier episodes, lock acquisitions) plus the three workloads
/// that are neither.
enum class Kernel : std::uint8_t {
  kBarrier,        // barrier episodes, any BarrierKind; idle spinners
  kLock,           // lock acquisitions, any LockAlgo, one or more locks
  kFig1Episode,    // the paper's Fig. 1 three-processor episode
  kPairwiseFlags,  // producer/consumer AMO flags (sparse sharing)
  kService,        // open-loop sharded service: tail latency vs offered load
};

/// The barrier a kBarrier cell runs. central/tree are the paper's
/// (Tables 2-3); naive/dissemination/mcs_tree the alternative codings;
/// flat_tree/cluster/cluster_amu the hierarchy study, whose cells report
/// root-link traffic. flat_tree is the tree barrier as the hierarchy
/// baseline; levels, thresholds and AMU aggregation for the cluster
/// kinds come from the `hier.*` config knobs (set them per cell).
enum class BarrierKind : std::uint8_t {
  kCentral, kTree, kNaive, kDissemination, kMcsTree, kFlatTree, kCluster,
  kClusterAmu,
};

enum class LockAlgo : std::uint8_t { kTas, kTicket, kArray, kMcs, kCna,
                                     kHmcs };

[[nodiscard]] const char* to_string(Kernel k);
[[nodiscard]] const char* to_string(BarrierKind k);
[[nodiscard]] const char* to_string(LockAlgo a);
[[nodiscard]] const char* to_string(sync::TicketBackoff b);

/// Union of every kernel's parameters; each kernel reads its slice and
/// ignores the rest.
struct CellParams {
  Kernel kernel = Kernel::kBarrier;
  sync::Mechanism mech = sync::Mechanism::kLlSc;
  // kBarrier
  BarrierKind kind = BarrierKind::kCentral;
  std::uint32_t fanout = 4;  // tree and flat_tree
  int warmup_episodes = 2;
  int episodes = 8;
  std::uint64_t max_skew = 200;  // also the lock loop's think time
  // kBarrier: cpus in the barrier set; each other cpu busy-waits on a
  // flag the set raises when done. 0 = every cpu, no flag.
  std::uint32_t active = 0;
  // kLock. warmup_iters == 0: no warmup and no fence, and the measured
  // region is the whole run (to the machine's end time).
  LockAlgo algo = LockAlgo::kTicket;
  int warmup_iters = 1;
  int iters = 6;
  sim::Cycle cs_cycles = 50;
  sync::TicketBackoff backoff = sync::TicketBackoff::kNone;  // ticket only
  std::uint32_t locks = 1;  // cpu c contends for lock c % locks
  // kPairwiseFlags
  int rounds = 10;
  // kService: requests per CPU (offered load comes from the
  // service.interarrival_cycles config knob, set per cell)
  std::uint64_t requests = 65536;
};

struct TrafficSnapshot {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// What every kernel reports. Which of primary/secondary/aux are
/// meaningful depends on the kernel; `primary` is always its headline
/// cycles metric.
struct CellResult {
  double primary = 0;    // cycles per barrier / lock region cycles
  double secondary = 0;  // per proc / per acquire; spin cells: host events
                         // per episode; hierarchy: root links per episode
  TrafficSnapshot traffic;
  std::uint64_t aux = 0;  // fig1: one-way messages; pairwise: update msgs;
                          // spin: host events in the measured episodes
  std::uint64_t events = 0;  // host events over the whole run
  double wall_ms = 0;        // host time of the cell (run_spec sets it)
  /// The cell's --json record: built only when asked for.
  sim::Json record;
};

/// One dotted-path config override, e.g. {"net.hop_cycles", 400}.
struct ConfigDelta {
  std::string key;
  sim::Json value;
};

struct Cell {
  std::vector<ConfigDelta> set;  // applied to the base config, in order
  CellParams params;
};

struct SweepSpec {
  std::string workload;     // registry name ("" for ad-hoc scenarios)
  std::string bench_name;   // --json document name
  sim::Json base_config;    // null, or overrides under every cell
  std::vector<Cell> cells;  // flat, in record order
};

/// Runs one cell's kernel on a fully-built config; `record` asks for the
/// cell's --json record in CellResult::record.
[[nodiscard]] CellResult run_cell(const core::SystemConfig& cfg,
                                  const CellParams& params,
                                  bool record = false);
/// The barrier-episode and lock-acquisition loops (the kBarrier and
/// kLock kernels).
[[nodiscard]] CellResult run_barrier(const core::SystemConfig& cfg,
                                     const CellParams& params,
                                     bool record = false);
[[nodiscard]] CellResult run_lock(const core::SystemConfig& cfg,
                                  const CellParams& params,
                                  bool record = false);

/// Each cell's config: base + its deltas, validated. A core::ConfigError
/// here is prefixed with the cell index.
[[nodiscard]] std::vector<core::SystemConfig> materialize(
    const SweepSpec& spec, const core::SystemConfig& base);

/// Materializes every cell's config before running anything, then runs
/// the cells across `threads` workers. Each cell owns its Machine, so
/// results (and records, when `records` is set) are identical at any
/// thread count; they come back in cell order, each with its wall_ms.
[[nodiscard]] std::vector<CellResult> run_spec(const SweepSpec& spec,
                                               const core::SystemConfig& base,
                                               unsigned threads,
                                               bool records = false);

/// The --json document: {bench, schema_version, records}, with the
/// non-null records in cell order. Records that report whole-run host
/// `events` (the hierarchy/PDES probes) also get the cell's `wall_ms`
/// and `events_per_sec`.
[[nodiscard]] sim::Json json_document(const SweepSpec& spec,
                                      std::span<const CellResult> results);

/// Spec <-> JSON. to_json omits defaulted params; from_json rejects
/// unknown keys/enum tokens with messages naming the cell and field.
[[nodiscard]] sim::Json spec_to_json(const SweepSpec& spec);
[[nodiscard]] SweepSpec spec_from_json(const sim::Json& j);

/// One-line-per-cell formatter for ad-hoc scenario files.
void print_generic(const SweepSpec& spec, std::span<const CellResult> r);

// ---------------------------------------------------------------- tables
// A printed table is a pivot of the cells: each cell's row and column
// are the values of a few keys, each a CellParams field ("mech",
// "fanout") or a dotted SystemConfig field ("num_cpus",
// "net.hop_cycles") of the cell's materialized config.

enum class Metric : std::uint8_t { kPrimary, kSecondary, kAux, kPackets,
                                   kBytes, kEvents, kWallMs };
enum class Relative : std::uint8_t {
  kSpeedup,     // base / v
  kNormalized,  // v / base
};

struct TableSpec {
  std::string title;
  std::vector<std::string> rows{};  // keys; rows in first-appearance order
  std::vector<std::string> cols{};  // keys; columns likewise
  Metric metric = Metric::kPrimary;
  int precision = 0;
  /// When non-empty, every value becomes a ratio against the same row's
  /// base column: this column with these column keys overwritten.
  std::vector<std::pair<std::string, std::string>> relative_to{};
  Relative relative = Relative::kSpeedup;
};

/// Where each cell lands: row/column key tuples in first-appearance
/// order, and per cell its (row, column) slot. Throws std::logic_error
/// when a key names neither a CellParams field nor a config field.
struct Pivot {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<std::string>> cols;
  std::vector<std::pair<std::size_t, std::size_t>> slot;
};
[[nodiscard]] Pivot pivot(const TableSpec& table, const SweepSpec& spec,
                          std::span<const core::SystemConfig> cfgs);

/// The table as text. A slot several cells share shows their minimum
/// (e.g. the best fanout); an empty slot, or a ratio whose base slot is
/// empty, shows "-".
[[nodiscard]] std::string format_table(
    const TableSpec& table, const SweepSpec& spec,
    std::span<const core::SystemConfig> cfgs,
    std::span<const CellResult> results);

}  // namespace amo::bench
