// A simulated processor core.
//
// The core is execution-driven: simulated threads are coroutines that call
// this API. Memory operations go through the core's cache controller;
// non-memory work is `compute()`, which reserves the core's serial
// CPU-time resource — the same resource active-message handlers occupy,
// so AM service visibly steals cycles from the host thread.
//
// Remote-operation clients (the paper's five mechanisms):
//   * LL/SC + loads/stores/atomics: via coh::CacheCtrl
//   * amo(): ship an op to the home AMU, in the coherent domain
//   * mao(): same datapath, non-coherent (Origin 2000 / T3E style)
//   * uncached_load/store(): MAO-style spinning accesses
//   * am_rpc(): active message with timeout + retransmit
#pragma once

#include <cstdint>
#include <optional>

#include "amu/amu.hpp"
#include "coh/cache_ctrl.hpp"
#include "coh/wiring.hpp"
#include "cpu/am_server.hpp"
#include "sim/task.hpp"

namespace amo::cpu {

struct CoreConfig {
  coh::CacheCtrlConfig cache;
  sim::Cycle am_timeout_cycles = 20000;
};

struct CoreStats {
  std::uint64_t amo_ops = 0;
  std::uint64_t mao_ops = 0;
  std::uint64_t uncached_loads = 0;
  std::uint64_t uncached_stores = 0;
  std::uint64_t am_requests = 0;
  std::uint64_t am_retransmits = 0;
  std::uint64_t compute_cycles = 0;
};

/// Registry of node devices the cores talk to (wired by core::Machine).
struct NodeDevices {
  std::vector<amu::Amu*> amus;       // [node]
  std::vector<AmServer*> servers;    // [node]
};

class Core {
 public:
  Core(sim::Engine& engine, coh::Wiring& wiring, coh::Agents& agents,
       NodeDevices& devices, sim::CpuId cpu, const CoreConfig& config);

  [[nodiscard]] sim::CpuId cpu() const { return cpu_; }
  [[nodiscard]] sim::NodeId node() const { return node_; }
  [[nodiscard]] coh::CacheCtrl& cache() { return cache_; }
  [[nodiscard]] const coh::CacheCtrl& cache() const { return cache_; }
  [[nodiscard]] const CoreStats& stats() const { return stats_; }

  /// Non-memory work: reserves `cycles` of this core's serial CPU time.
  sim::Task<void> compute(sim::Cycle cycles);

  /// Reserves CPU time for an AM handler (called by AmServer).
  sim::Task<void> occupy(sim::Cycle cycles) { return compute(cycles); }

  /// Active Memory Operation at the home node of `addr`; returns the old
  /// value. Supplying `test` selects the delayed-put policy.
  sim::Task<std::uint64_t> amo(amu::AmoOpcode op, sim::Addr addr,
                               std::uint64_t operand,
                               std::optional<std::uint64_t> test = {},
                               std::uint64_t operand2 = 0);

  /// Memory-side atomic outside the coherent domain.
  sim::Task<std::uint64_t> mao(amu::AmoOpcode op, sim::Addr addr,
                               std::uint64_t operand,
                               std::uint64_t operand2 = 0);

  /// Uncached word access at the home memory (MAO spinning).
  sim::Task<std::uint64_t> uncached_load(sim::Addr addr);
  sim::Task<void> uncached_store(sim::Addr addr, std::uint64_t value);

  /// Active-message RPC to the home node of `addr`; the home processor
  /// executes `op` coherently. Timeout-driven retransmission with
  /// server-side dedup gives exactly-once semantics.
  sim::Task<std::uint64_t> am_rpc(amu::AmoOpcode op, sim::Addr addr,
                                  std::uint64_t operand,
                                  std::uint64_t operand2 = 0);

 private:
  sim::Engine& engine_;
  coh::Wiring& wiring_;
  coh::Agents& agents_;
  NodeDevices& devices_;
  sim::CpuId cpu_;
  sim::NodeId node_;
  CoreConfig config_;
  coh::MsgSizes sizes_;
  coh::CacheCtrl cache_;
  sim::Cycle cpu_busy_until_ = 0;
  std::uint64_t am_seq_ = 0;
  CoreStats stats_;
};

}  // namespace amo::cpu
