// WorkloadRegistry: every paper table, figure, ablation and microbench as
// a named entry — a builder (CLI options -> SweepSpec) plus the tables
// its cells print as. The driver resolves names, `list` walks the
// registry, and scenario files reuse a workload's tables by naming it.
#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "bench/scenario.hpp"

namespace amo::bench {

struct Workload {
  const char* name;         // "table2"
  const char* description;  // one line for `amo_bench list`
  SweepSpec (*build)(const CliOptions& opt);
  std::vector<TableSpec> tables;
  const char* notes;  // paper reference values / expected shape
};

class WorkloadRegistry {
 public:
  /// The process-wide registry, seeded with the built-in workloads.
  static WorkloadRegistry& instance();

  void add(Workload w) { workloads_.push_back(std::move(w)); }
  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const Workload* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Workload>& all() const {
    return workloads_;
  }

 private:
  WorkloadRegistry();
  std::vector<Workload> workloads_;
};

/// Defined in workloads.cpp; registers the 20 built-in workloads.
void register_builtin_workloads(WorkloadRegistry& reg);

// The one place the per-main copies of CLI-default plumbing collapsed
// into: every builder resolves its sweep axes through these.
/// --cpus wins; otherwise --quick trims to `quick` (when the workload
/// has a quick list); otherwise the workload default.
[[nodiscard]] std::vector<std::uint32_t> resolved_cpus(
    const CliOptions& opt, std::vector<std::uint32_t> dflt,
    std::vector<std::uint32_t> quick = {});
[[nodiscard]] int resolved_episodes(const CliOptions& opt, int dflt = 8);
[[nodiscard]] int resolved_iters(const CliOptions& opt, int dflt = 6);

}  // namespace amo::bench
