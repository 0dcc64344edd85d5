// The 24 built-in workloads: the paper's tables and figures, the
// ablations, the extension lock matrix, and the spin/PDES/hierarchy/
// service microbenches. Each entry is a builder (CLI options -> SweepSpec)
// plus the tables its cells pivot into; paper reference values and
// expected shapes are the entry's notes.
#include <algorithm>
#include <array>

#include "bench/registry.hpp"

namespace amo::bench {

namespace {

using sync::Mechanism;

// The tables' column order (ActMsg before Atomic, as in the paper).
const std::array<Mechanism, 5> kTableMechs = {
    Mechanism::kLlSc, Mechanism::kActMsg, Mechanism::kAtomic,
    Mechanism::kMao, Mechanism::kAmo};

Cell cell(std::uint32_t cpus, CellParams params) {
  Cell c;
  c.set.push_back({"num_cpus", sim::Json(cpus)});
  c.params = params;
  return c;
}

CellParams barrier_params(Mechanism m, int episodes,
                          BarrierKind kind = BarrierKind::kCentral,
                          std::uint32_t fanout = 4) {
  CellParams p;
  p.kernel = Kernel::kBarrier;
  p.mech = m;
  p.episodes = episodes;
  p.kind = kind;
  p.fanout = fanout;
  return p;
}

// warmup_iters = 0 runs the locks cold, with no fence: the ablations and
// the algorithm matrices report the whole run's cycles.
CellParams lock_params(Mechanism m, LockAlgo algo, int iters,
                       int warmup_iters = 1) {
  CellParams p;
  p.kernel = Kernel::kLock;
  p.mech = m;
  p.algo = algo;
  p.iters = iters;
  p.warmup_iters = warmup_iters;
  return p;
}

std::vector<std::uint32_t> tree_fanouts(std::uint32_t p,
                                        bool inclusive = false) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t f = 2; inclusive ? f <= p : f < p; f *= 2) {
    out.push_back(f);
  }
  return out;
}

// ------------------------------------------------------------- fig1
SweepSpec build_fig1(const CliOptions& opt) {
  (void)opt;
  SweepSpec s{"fig1", "fig1_message_count", {}, {}};
  for (Mechanism m : sync::kAllMechanisms) {
    Cell c;
    c.set = {{"num_cpus", sim::Json(4u)},
             {"cpus_per_node", sim::Json(1u)},   // one cpu per node
             {"barrier_sw_overhead", sim::Json(0)}};  // protocol msgs only
    c.params.kernel = Kernel::kFig1Episode;
    c.params.mech = m;
    s.cells.push_back(std::move(c));
  }
  return s;
}

// ---------------------------------------------------- table2 / fig5
SweepSpec build_central_sweep(const CliOptions& opt, const char* name,
                              const char* bench) {
  SweepSpec s{name, bench, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(4), {4, 8, 16, 32});
  const int episodes = resolved_episodes(opt);
  for (std::uint32_t p : cpus) {
    for (Mechanism m : kTableMechs) {
      s.cells.push_back(cell(p, barrier_params(m, episodes)));
    }
  }
  return s;
}

SweepSpec build_table2(const CliOptions& opt) {
  return build_central_sweep(opt, "table2", "table2_barriers");
}

SweepSpec build_fig5(const CliOptions& opt) {
  return build_central_sweep(opt, "fig5", "fig5_barrier_cycles");
}

// ---------------------------------------------------- table3 / fig6
SweepSpec build_table3(const CliOptions& opt) {
  SweepSpec s{"table3", "table3_tree_barriers", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(16), {16, 32});
  const int episodes = resolved_episodes(opt);
  // Per row (serial record order): the central LL/SC baseline, every
  // (mechanism, fanout) tree run, then central AMO for the last column.
  for (std::uint32_t p : cpus) {
    s.cells.push_back(cell(p, barrier_params(Mechanism::kLlSc, episodes)));
    for (Mechanism m : kTableMechs) {
      for (std::uint32_t f : tree_fanouts(p)) {
        s.cells.push_back(
            cell(p, barrier_params(m, episodes, BarrierKind::kTree, f)));
      }
    }
    s.cells.push_back(cell(p, barrier_params(Mechanism::kAmo, episodes)));
  }
  return s;
}

SweepSpec build_fig6(const CliOptions& opt) {
  SweepSpec s{"fig6", "fig6_tree_cycles", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(16), {16, 32});
  const int episodes = resolved_episodes(opt);
  for (std::uint32_t p : cpus) {
    for (Mechanism m : kTableMechs) {
      for (std::uint32_t f : tree_fanouts(p)) {
        s.cells.push_back(
            cell(p, barrier_params(m, episodes, BarrierKind::kTree, f)));
      }
    }
  }
  return s;
}

// ----------------------------------------------------- table4 / fig7
// Variants in the serial run/record order: the LL/SC ticket baseline,
// then (mechanism, ticket/array) skipping the baseline combination.
std::vector<std::pair<Mechanism, LockAlgo>> table4_variants() {
  std::vector<std::pair<Mechanism, LockAlgo>> variants;
  variants.emplace_back(Mechanism::kLlSc, LockAlgo::kTicket);
  for (Mechanism m : kTableMechs) {
    for (LockAlgo algo : {LockAlgo::kTicket, LockAlgo::kArray}) {
      if (m == Mechanism::kLlSc && algo == LockAlgo::kTicket) continue;
      variants.emplace_back(m, algo);
    }
  }
  return variants;
}

SweepSpec build_table4(const CliOptions& opt) {
  SweepSpec s{"table4", "table4_locks", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(4), {4, 8, 16});
  const int iters = resolved_iters(opt);
  for (std::uint32_t p : cpus) {
    for (const auto& [m, algo] : table4_variants()) {
      s.cells.push_back(cell(p, lock_params(m, algo, iters)));
    }
  }
  return s;
}

SweepSpec build_fig7(const CliOptions& opt) {
  SweepSpec s{"fig7", "fig7_lock_traffic", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {128, 256}, {32});
  const int iters = resolved_iters(opt);
  for (std::uint32_t p : cpus) {
    for (Mechanism m : kTableMechs) {
      s.cells.push_back(cell(p, lock_params(m, LockAlgo::kTicket, iters)));
    }
  }
  return s;
}

// ------------------------------------------------ ablation_amu_cache
const std::array<std::uint32_t, 5> kLockCounts = {1, 2, 4, 8, 16};
const std::array<std::uint32_t, 5> kCacheWords = {2, 4, 8, 16, 32};

SweepSpec build_amu_cache(const CliOptions& opt) {
  SweepSpec s{"ablation_amu_cache", "ablation_amu_cache", {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {32}).front();
  const int iters = resolved_iters(opt);
  for (std::uint32_t nlocks : kLockCounts) {
    for (std::uint32_t words : kCacheWords) {
      // Each lock needs TWO AMU-resident words (sequencer + now_serving).
      Cell c = cell(p, lock_params(Mechanism::kAmo, LockAlgo::kTicket, iters,
                                   /*warmup_iters=*/0));
      c.set.push_back({"amu.cache_words", sim::Json(words)});
      c.params.locks = nlocks;
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// -------------------------------------------- ablation_update_policy
SweepSpec build_update_policy(const CliOptions& opt) {
  SweepSpec s{"ablation_update_policy", "ablation_update_policy", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {16, 64, 256}, {16, 32});
  const int episodes = resolved_episodes(opt);
  for (std::uint32_t p : cpus) {
    for (int policy = 0; policy < 3; ++policy) {
      Cell c = cell(p, barrier_params(Mechanism::kAmo, episodes));
      c.set.push_back({"amu.eager_put_all", sim::Json(policy >= 1)});
      c.set.push_back({"dir.put_block_granularity", sim::Json(policy == 2)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// ----------------------------------------------- ablation_multicast
SweepSpec build_multicast(const CliOptions& opt) {
  SweepSpec s{"ablation_multicast", "ablation_multicast", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {16, 64, 256}, {16, 32});
  const int episodes = resolved_episodes(opt);
  for (std::uint32_t p : cpus) {
    for (int mc = 0; mc < 2; ++mc) {
      Cell c = cell(p, barrier_params(Mechanism::kAmo, episodes));
      c.set.push_back({"net.hardware_multicast", sim::Json(mc == 1)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// --------------------------------------------- ablation_hop_latency
const std::array<sim::Cycle, 5> kHops = {25, 50, 100, 200, 400};

SweepSpec build_hop_latency(const CliOptions& opt) {
  SweepSpec s{"ablation_hop_latency", "ablation_hop_latency", {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {64}).front();
  const int episodes = resolved_episodes(opt);
  for (sim::Cycle hop : kHops) {
    for (Mechanism m : {Mechanism::kLlSc, Mechanism::kAmo}) {
      Cell c = cell(p, barrier_params(m, episodes));
      c.set.push_back({"net.hop_cycles", sim::Json(hop)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// --------------------------------------------- ablation_tree_fanout
SweepSpec build_tree_fanout(const CliOptions& opt) {
  SweepSpec s{"ablation_tree_fanout", "ablation_tree_fanout", {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {64}).front();
  const int episodes = resolved_episodes(opt);
  // fanout == p degenerates to a central barrier through the tree code.
  for (std::uint32_t f : tree_fanouts(p, /*inclusive=*/true)) {
    for (Mechanism m :
         {Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kAmo}) {
      s.cells.push_back(
          cell(p, barrier_params(m, episodes, BarrierKind::kTree, f)));
    }
  }
  return s;
}

// ------------------------------------------------- ablation_backoff
SweepSpec build_backoff(const CliOptions& opt) {
  SweepSpec s{"ablation_backoff", "ablation_backoff", {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {8, 32, 128});
  const int iters = resolved_iters(opt);
  for (std::uint32_t p : cpus) {
    for (sync::TicketBackoff b :
         {sync::TicketBackoff::kNone, sync::TicketBackoff::kProportional}) {
      Cell c = cell(p, lock_params(Mechanism::kMao, LockAlgo::kTicket, iters,
                                   /*warmup_iters=*/0));
      c.params.backoff = b;
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// ------------------------------------------------ ablation_protocol
SweepSpec build_protocol(const CliOptions& opt) {
  SweepSpec s{"ablation_protocol", "ablation_protocol", {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {16, 64, 256}, {16, 32});
  const int episodes = resolved_episodes(opt);
  // Per row: {llsc/4hop, amo/4hop, llsc/3hop, amo/3hop} in serial JSON
  // record order (mode-major, mechanism-minor).
  for (std::uint32_t p : cpus) {
    for (int mode = 0; mode < 2; ++mode) {
      for (Mechanism m : {Mechanism::kLlSc, Mechanism::kAmo}) {
        Cell c = cell(p, barrier_params(m, episodes));
        c.set.push_back({"dir.three_hop", sim::Json(mode == 1)});
        s.cells.push_back(std::move(c));
      }
    }
  }
  return s;
}

// -------------------------------------------- ablation_dir_pointers
const std::array<std::uint32_t, 3> kPointerLimits = {0, 8, 1};

SweepSpec build_dir_pointers(const CliOptions& opt) {
  SweepSpec s{"ablation_dir_pointers", "ablation_dir_pointers", {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {16, 64, 128});
  const int rounds = resolved_iters(opt, 10);
  for (std::uint32_t p : cpus) {
    for (std::uint32_t limit : kPointerLimits) {
      Cell c = cell(p, {});
      c.set.push_back({"dir.sharer_pointer_limit", sim::Json(limit)});
      c.params.kernel = Kernel::kPairwiseFlags;
      c.params.mech = Mechanism::kAmo;
      c.params.rounds = rounds;
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// ----------------------------------------- ablation_barrier_styles
// "central" is the optimized coding of Fig. 3(b).
const std::array<BarrierKind, 4> kStyles = {
    BarrierKind::kNaive, BarrierKind::kCentral, BarrierKind::kDissemination,
    BarrierKind::kMcsTree};
const std::array<Mechanism, 4> kStyleMechs = {
    Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kMao, Mechanism::kAmo};

SweepSpec build_barrier_styles(const CliOptions& opt) {
  SweepSpec s{"ablation_barrier_styles", "ablation_barrier_styles", {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {16, 64});
  const int episodes = resolved_episodes(opt);
  for (std::uint32_t p : cpus) {
    for (BarrierKind kind : kStyles) {
      for (Mechanism m : kStyleMechs) {
        s.cells.push_back(cell(p, barrier_params(m, episodes, kind)));
      }
    }
  }
  return s;
}

// -------------------------------------------------- extension_locks
const std::array<LockAlgo, 4> kAlgos = {LockAlgo::kTas, LockAlgo::kTicket,
                                        LockAlgo::kArray, LockAlgo::kMcs};

SweepSpec build_extension_locks(const CliOptions& opt) {
  SweepSpec s{"extension_locks", "extension_locks", {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {8, 32, 128});
  const int iters = resolved_iters(opt, 5);
  for (std::uint32_t p : cpus) {
    for (LockAlgo algo : kAlgos) {
      for (Mechanism m : sync::kAllMechanisms) {
        s.cells.push_back(
            cell(p, lock_params(m, algo, iters, /*warmup_iters=*/0)));
      }
    }
  }
  return s;
}

// --------------------------------------------------- microbench_spin
// Spin-wait virtualization: an AMO central barrier among `active` cpus
// with every remaining cpu busy-waiting on a cached flag. Parked waiters
// cost no events, so host events per episode track the active set.
SweepSpec build_microbench_spin(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {256}, {64});
  const std::uint32_t p = cpus.front();
  const int episodes = resolved_episodes(opt, 8);
  SweepSpec s{"microbench_spin", "microbench_spin", {}, {}};
  std::vector<std::uint32_t> actives;
  for (std::uint32_t a = std::max(2u, p / 16); a < p; a *= 4) {
    actives.push_back(a);
  }
  actives.push_back(p);
  for (std::uint32_t a : actives) {
    Cell c = cell(p, barrier_params(Mechanism::kAmo, episodes));
    c.params.active = a;
    s.cells.push_back(std::move(c));
  }
  return s;
}

// --------------------------------------------------- microbench_pdes
// Host-parallel scaling: the same flat-tree-barrier episode workload run at
// sim_threads (PDES domains) K = 1, 2, 4 for each cpu count. Simulated
// cycles are deterministic per K; wall-clock and events/s are host
// measurements, reported for the BENCH_pdes artifact. K = 1 is the
// serial engine; each K > 1 is its own deterministic mode, so cycles may
// differ across columns (see DESIGN.md §10) but never across reruns.
SweepSpec build_microbench_pdes(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {64, 256}, {64});
  const int episodes = resolved_episodes(opt, 8);
  SweepSpec s{"microbench_pdes", "microbench_pdes", {}, {}};
  // --sim-threads pins the sweep to that single domain count (the CI
  // 4096-CPU smoke runs one K per invocation to stay inside its budget).
  std::vector<std::uint32_t> threads = {1, 2, 4};
  if (opt.sim_threads != 0) threads = {opt.sim_threads};
  for (std::uint32_t p : cpus) {
    for (std::uint32_t k : threads) {
      Cell c = cell(p, barrier_params(Mechanism::kAmo, episodes,
                                      BarrierKind::kFlatTree));
      c.set.push_back({"sim_threads", sim::Json(k)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// --------------------------------------------------- microbench_hier
// Hierarchy-aware barriers: for each cpu count, the flat fixed-fanout
// AMO tree barrier (the PR-gate baseline) vs the cluster-hierarchical
// barrier with software fan-in and with AMU aggregation. The headline
// number is packets crossing the fat tree's ROOT links per episode —
// aggregation turns O(P) root-bound arrivals into O(clusters) combined
// fetch-adds. The largest cpu count also runs the aggregated variant at
// sim_threads = 2 and 4 for the BENCH_hier scaling curve (skipped when
// --sim-threads already pins the whole sweep to one K).
const std::array<BarrierKind, 3> kHierVariants = {
    BarrierKind::kFlatTree, BarrierKind::kCluster, BarrierKind::kClusterAmu};

CellParams hier_params(BarrierKind kind, int episodes) {
  return barrier_params(Mechanism::kAmo, episodes, kind);
}

Cell hier_cell(std::uint32_t cpus, std::uint32_t levels, CellParams params) {
  Cell c = cell(cpus, params);
  if (params.kind != BarrierKind::kFlatTree) {
    c.set.push_back({"hier.levels", sim::Json(levels)});
  }
  return c;
}

SweepSpec build_microbench_hier(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {64, 256, 1024}, {64, 256});
  const int episodes = resolved_episodes(opt, 8);
  // Two physical tree levels of clustering: valid for every default cpu
  // count (64 cpus = 32 nodes is already height 2 at radix 8).
  const std::uint32_t levels = 2;
  SweepSpec s{"microbench_hier", "microbench_hier", {}, {}};
  std::vector<std::uint32_t> scale_ks;
  if (opt.sim_threads == 0) scale_ks = {2, 4};
  for (std::uint32_t p : cpus) {
    for (BarrierKind v : kHierVariants) {
      s.cells.push_back(hier_cell(p, levels, hier_params(v, episodes)));
    }
  }
  for (std::uint32_t k : scale_ks) {
    Cell c = hier_cell(cpus.back(), levels,
                       hier_params(BarrierKind::kClusterAmu, episodes));
    c.set.push_back({"sim_threads", sim::Json(k)});
    s.cells.push_back(std::move(c));
  }
  return s;
}

// ------------------------------------------------ ablation_hier_depth
// Topology shape x hierarchy depth: for each router radix, the flat AMO
// tree baseline and the aggregated cluster barrier at 1..3 folded
// levels. Skinny trees (radix 2) have many levels to fold; fat trees
// saturate early.
const std::array<std::uint32_t, 3> kHierRadixes = {2, 4, 8};
const std::array<std::uint32_t, 3> kHierDepths = {1, 2, 3};

/// Router levels of the fat tree derived for `nodes` leaves — the
/// validate() ceiling for hier.levels (kept in step with config_io).
std::uint32_t tree_height(std::uint32_t nodes, std::uint32_t radix) {
  std::uint32_t height = 0;
  for (std::uint32_t e = nodes; e > 1; e = (e + radix - 1) / radix) {
    ++height;
  }
  return height;
}

SweepSpec build_hier_depth(const CliOptions& opt) {
  SweepSpec s{"ablation_hier_depth", "ablation_hier_depth", {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {256}, {64}).front();
  const int episodes = resolved_episodes(opt, 4);
  for (std::uint32_t radix : kHierRadixes) {
    {
      Cell c = cell(p, hier_params(BarrierKind::kFlatTree, episodes));
      c.set.push_back({"net.radix", sim::Json(radix)});
      s.cells.push_back(std::move(c));
    }
    // A depth past the derived tree height is a config error, not a
    // deeper hierarchy; clamp so --quick (fewer nodes) stays valid.
    // Assumes the default cpus_per_node=2 (these cells never change it).
    const std::uint32_t height =
        std::max(1u, tree_height((p + 1) / 2, radix));
    for (std::uint32_t depth : kHierDepths) {
      Cell c = cell(p, hier_params(BarrierKind::kClusterAmu, episodes));
      c.set.push_back({"net.radix", sim::Json(radix)});
      c.set.push_back({"hier.levels", sim::Json(std::min(depth, height))});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

// ------------------------------------------------ ablation_hier_locks
// Queue locks with and without topology awareness, across mechanisms:
// plain MCS vs the CNA-style subtree-first MCS vs the HMCS hierarchy of
// queues (thresholds from hier.*, defaults 64 and 8).
const std::array<LockAlgo, 3> kHierLockAlgos = {LockAlgo::kMcs,
                                                LockAlgo::kCna,
                                                LockAlgo::kHmcs};

SweepSpec build_hier_locks(const CliOptions& opt) {
  SweepSpec s{"ablation_hier_locks", "ablation_hier_locks", {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {32, 128}, {16});
  const int iters = resolved_iters(opt, 5);
  for (std::uint32_t p : cpus) {
    for (LockAlgo algo : kHierLockAlgos) {
      for (Mechanism m : sync::kAllMechanisms) {
        s.cells.push_back(
            cell(p, lock_params(m, algo, iters, /*warmup_iters=*/0)));
      }
    }
  }
  return s;
}

// ----------------------------------------------- microbench_service
// The "millions of users" scenario: an open-loop sharded key-value
// service under Poisson arrivals, judged by tail latency. Each request
// takes its home shard's ticket lock, bumps the shard op counter
// through the swept mechanism, and round-trips the shard's AMO log
// queue; latency counts from the *scheduled* arrival, so backlog is
// charged to the tail. Sweeps offered load (mean interarrival cycles,
// descending = rising load) x mechanism. The headline is p999: LL/SC
// retry collapse sends it super-linear with load while AMO stays near
// its uncontended cost (the BENCH_service gate).
const std::array<Mechanism, 3> kServiceMechs = {
    Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kAmo};
// Mean interarrival cycles per cpu, descending = rising load. Tuned so
// at 16 cpus / 4 shards the lowest value sits past LL/SC's saturation
// point (its open-loop backlog grows without bound) but inside AMO's
// stable region (p999 within 2x of its low-load value — the CI gate).
const std::array<std::uint64_t, 3> kServiceLoads = {64000, 32000, 24000};

Cell service_cell(std::uint32_t cpus, Mechanism mech, std::uint64_t load,
                  std::uint64_t requests) {
  Cell c = cell(cpus, {});
  c.params.kernel = Kernel::kService;
  c.params.mech = mech;
  c.params.requests = requests;
  c.set.push_back({"service.interarrival_cycles", sim::Json(load)});
  return c;
}

/// Per-cpu request count: the default 16-cpu cell serves 16 x 65536 =
/// 1,048,576 requests; --quick trims for CI identity checks.
std::uint64_t service_requests(const CliOptions& opt) {
  if (opt.iters > 0) return static_cast<std::uint64_t>(opt.iters);
  return opt.quick ? 1024 : 65536;
}

SweepSpec build_microbench_service(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {16}, {16});
  const std::uint64_t requests = service_requests(opt);
  SweepSpec s{"microbench_service", "microbench_service", {}, {}};
  for (std::uint32_t p : cpus) {
    for (std::uint64_t load : kServiceLoads) {
      for (Mechanism mech : kServiceMechs) {
        s.cells.push_back(service_cell(p, mech, load, requests));
      }
    }
  }
  return s;
}

// ------------------------------------------------ ablation_service_load
// Finer offered-load grid for the two extremes (LL/SC vs AMO): the
// saturation knee. Same kernel and sharding as microbench_service.
const std::array<Mechanism, 2> kServiceAblMechs = {Mechanism::kLlSc,
                                                   Mechanism::kAmo};
const std::array<std::uint64_t, 5> kServiceLoadGrid = {32000, 16000, 8000,
                                                       4000, 2000};

SweepSpec build_service_load(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {16}, {16});
  const std::uint64_t requests =
      opt.iters > 0 ? static_cast<std::uint64_t>(opt.iters)
                    : (opt.quick ? 512 : 16384);
  SweepSpec s{"ablation_service_load", "ablation_service_load", {}, {}};
  for (std::uint32_t p : cpus) {
    for (std::uint64_t load : kServiceLoadGrid) {
      for (Mechanism mech : kServiceAblMechs) {
        s.cells.push_back(service_cell(p, mech, load, requests));
      }
    }
  }
  return s;
}

}  // namespace

void register_builtin_workloads(WorkloadRegistry& reg) {
  using M = Metric;
  const std::vector<std::string> cpus = {"num_cpus"};
  const std::vector<std::string> mech = {"mech"};
  const std::vector<std::pair<std::string, std::string>> vs_llsc = {
      {"mech", "LL/SC"}};

  reg.add({"fig1",
           "one-way message count for a 3-processor barrier (paper Fig. 1)",
           build_fig1,
           {{.title = "Figure 1: one-way messages until all three "
                      "processors proceed (variable homed on a 4th node)",
             .cols = mech, .metric = M::kAux},
            {.title = "Figure 1: cycles until all three proceed",
             .cols = mech}},
           "paper: conventional atomics need 18 one-way messages before all "
           "three processors proceed; AMOs need 6 (3 requests + 3 replies) "
           "plus the word-update wave that releases the spinners."});
  reg.add({"table2",
           "central barrier speedup over LL/SC, 4..256 CPUs (Table 2)",
           build_table2,
           {{.title = "Table 2: central barrier cycles per barrier",
             .rows = cpus, .cols = mech, .precision = 2},
            {.title = "Table 2: barrier speedup over LL/SC",
             .rows = cpus, .cols = mech, .precision = 2,
             .relative_to = vs_llsc}},
           "paper:  4: 0.95/1.15/1.21/2.10   32: 2.38/1.36/4.20/15.14"
           "   256: 2.82/1.23/14.70/61.94"});
  reg.add({"fig5", "central barrier cycles-per-processor vs P (Fig. 5)",
           build_fig5,
           {{.title = "Figure 5: barrier cycles-per-processor",
             .rows = cpus, .cols = mech, .metric = M::kSecondary,
             .precision = 1}},
           "expected shape: LL/SC per-proc time rises with P (superlinear "
           "total); AMO per-proc time is flat and slightly decreasing."});
  reg.add({"table3",
           "two-level tree barriers, best fanout per point (Table 3)",
           build_table3,
           {{.title = "Table 3: tree barrier speedup over central LL/SC "
                      "(best fanout)",
             .rows = cpus, .cols = {"kind", "mech"}, .precision = 2,
             .relative_to = {{"kind", "central"}, {"mech", "LL/SC"}}}},
           "paper: 16: 1.70/2.41/2.25/2.60/2.59/9.11"
           "   256: 8.38/14.72/11.22/20.37/22.62/61.94"});
  reg.add({"fig6", "tree barrier cycles-per-processor, best fanout (Fig. 6)",
           build_fig6,
           {{.title = "Figure 6: tree barrier cycles-per-processor "
                      "(best fanout)",
             .rows = cpus, .cols = mech, .metric = M::kSecondary,
             .precision = 1}},
           "expected shape: per-processor time decreases with P for all "
           "tree barriers (overhead amortized over more branches)."});
  reg.add({"table4",
           "ticket/array lock speedups over LL/SC ticket (Table 4)",
           build_table4,
           {{.title = "Table 4: lock cycles (measured region)",
             .rows = cpus, .cols = {"mech", "algo"}},
            {.title = "Table 4: lock speedups over the LL/SC ticket lock",
             .rows = cpus, .cols = {"mech", "algo"}, .precision = 2,
             .relative_to = {{"mech", "LL/SC"}, {"algo", "ticket"}}}},
           "paper: 4: AMO 1.95/1.31   64: LLSC.a 1.42, AMO 4.90/5.45"
           "   256: AMO 10.36/10.05"});
  reg.add({"fig7",
           "ticket-lock network traffic normalized to LL/SC (Fig. 7)",
           build_fig7,
           {{.title = "Figure 7: ticket-lock network traffic (bytes, "
                      "normalized to LL/SC)",
             .rows = cpus, .cols = mech, .metric = M::kBytes,
             .precision = 2, .relative_to = vs_llsc,
             .relative = Relative::kNormalized}},
           "expected shape: AMO lowest by far; ActMsg highest (timeout "
           "retransmissions under contention)."});
  reg.add({"ablation_amu_cache", "AMU cache size vs concurrent AMO locks",
           build_amu_cache,
           {{.title = "Ablation: AMU cache size (AMO ticket locks, total "
                      "cycles, lower is better)",
             .rows = {"num_cpus", "locks"}, .cols = {"amu.cache_words"}}},
           "expected shape: cells worsen sharply once 2*locks exceeds the "
           "AMU cache words (sequencer + counter per lock)."});
  const std::vector<std::string> policy = {"amu.eager_put_all",
                                           "dir.put_block_granularity"};
  reg.add({"ablation_update_policy",
           "delayed vs eager vs block-update put policies",
           build_update_policy,
           {{.title = "Ablation: AMO update policy (barrier cycles)",
             .rows = cpus, .cols = policy},
            {.title = "Ablation: AMO update policy (network bytes over the "
                      "measured episodes)",
             .rows = cpus, .cols = policy, .metric = M::kBytes}},
           "columns: delayed put = false/false, eager = true/false, "
           "block-update = true/true.\n"
           "expected shape: delayed put is fastest with the least traffic; "
           "eager adds an update wave per arrival; block updates multiply "
           "bytes further."});
  const std::vector<std::string> multicast = {"net.hardware_multicast"};
  reg.add({"ablation_multicast",
           "hardware multicast for AMO word-update waves", build_multicast,
           {{.title = "Ablation: hardware multicast for AMO updates "
                      "(cycles per barrier)",
             .rows = cpus, .cols = multicast},
            {.title = "Ablation: hardware multicast gain",
             .rows = cpus, .cols = multicast, .precision = 2,
             .relative_to = {{"net.hardware_multicast", "false"}}}},
           "expected shape: gain grows with P (the serialized update "
           "injection is the AMO barrier's only O(P) term)."});
  const std::vector<std::string> hops = {"num_cpus", "net.hop_cycles"};
  reg.add({"ablation_hop_latency", "AMO advantage as network hops slow down",
           build_hop_latency,
           {{.title = "Ablation: hop latency (central barriers, cycles per "
                      "barrier)",
             .rows = hops, .cols = mech},
            {.title = "Ablation: hop latency (speedup over LL/SC)",
             .rows = hops, .cols = mech, .precision = 2,
             .relative_to = vs_llsc}},
           "expected shape: AMO speedup grows with hop latency."});
  reg.add({"ablation_tree_fanout", "tree branching factor sweep per mechanism",
           build_tree_fanout,
           {{.title = "Ablation: tree fanout (cycles per barrier)",
             .rows = {"num_cpus", "fanout"}, .cols = mech}},
           "expected shape: conventional mechanisms have a non-trivial "
           "optimum fanout; AMO is flat-to-worse with deeper trees (it does "
           "not need them)."});
  const std::vector<std::string> backoff = {"backoff"};
  reg.add({"ablation_backoff", "proportional backoff for MAO ticket locks",
           build_backoff,
           {{.title = "Ablation: MAO ticket-lock backoff (total cycles)",
             .rows = cpus, .cols = backoff},
            {.title = "Ablation: MAO ticket-lock backoff gain",
             .rows = cpus, .cols = backoff, .precision = 2,
             .relative_to = {{"backoff", "none"}}}},
           "expected shape: backoff helps increasingly with P (less MC "
           "flooding), unlike on cache-coherent spinning where the paper "
           "notes it is largely moot."});
  const std::vector<std::string> protocol = {"dir.three_hop", "mech"};
  reg.add({"ablation_protocol",
           "home-centric 4-hop vs forwarding 3-hop directory", build_protocol,
           {{.title = "Ablation: 4-hop vs 3-hop protocol (central barriers, "
                      "cycles per barrier)",
             .rows = cpus, .cols = protocol},
            {.title = "Ablation: speedup over LL/SC per protocol",
             .rows = cpus, .cols = protocol, .precision = 2,
             .relative_to = vs_llsc}},
           "expected shape: AMO numbers are insensitive to the protocol "
           "(AMOs rarely recall). For LL/SC, 3-hop cuts *isolated* "
           "migration latency (see ThreeHop.CutsOwnershipMigrationLatency), "
           "but under a hot-spot barrier our blocking fill-ack variant "
           "slightly lengthens per-transaction block occupancy, so "
           "throughput is a wash. Either way the paper's speedup story is "
           "unchanged — which is why the home-centric default is a safe "
           "substitution (DESIGN.md)."});
  const std::vector<std::string> pointers = {"dir.sharer_pointer_limit"};
  reg.add({"ablation_dir_pointers",
           "limited directory pointers under sparse sharing",
           build_dir_pointers,
           {{.title = "Ablation: directory pointer capacity (pairwise AMO "
                      "signalling, cycles)",
             .rows = cpus, .cols = pointers},
            {.title = "Ablation: directory pointer capacity (word-update "
                      "messages)",
             .rows = cpus, .cols = pointers, .metric = M::kAux}},
           "columns: 0 = full bit-vector, 8 and 1 = limited pointers.\n"
           "expected shape: with sparse sharing, a small pointer budget "
           "multiplies update-message counts (broadcast puts) and slows the "
           "run; a full bit-vector keeps puts at 1 message per signal. For "
           "fully-shared barrier variables the budget is irrelevant."});
  reg.add({"ablation_barrier_styles",
           "naive/optimized/dissemination/mcs-tree codings",
           build_barrier_styles,
           {{.title = "Ablation: barrier codings (cycles per episode)",
             .rows = {"num_cpus", "kind"}, .cols = mech}},
           "expected shape: central (the optimized coding) beats naive for conventional "
           "mechanisms (the Fig. 3(b) trade); for AMO the two are within "
           "noise — the naive coding is already right."});
  const std::vector<std::string> algos = {"num_cpus", "algo"};
  reg.add({"extension_locks",
           "tas/ticket/array/mcs locks across every mechanism",
           build_extension_locks,
           {{.title = "Extension: lock algorithms x mechanisms (total "
                      "cycles, lower is better)",
             .rows = algos, .cols = mech}},
           "expected shape: within a mechanism, mcs/array beat tas/ticket "
           "at scale; within an algorithm, AMO wins; AMO ticket rivals "
           "conventional MCS (the paper's simplicity argument)."});
  reg.add({"microbench_spin",
           "spin-wait virtualization: events/episode vs active cpus",
           build_microbench_spin,
           {{.title = "Microbench: spin-wait virtualization, host events "
                      "per episode (AMO central barrier + idle "
                      "busy-waiters)",
             .rows = cpus, .cols = {"active"}, .metric = M::kSecondary},
            {.title = "Microbench: spin-wait virtualization, cycles per "
                      "episode",
             .rows = cpus, .cols = {"active"}}},
           "expected shape: events/episode track the active set, not the "
           "total P (parked waiters cost no events)."});
  const std::vector<std::string> domains = {"sim_threads"};
  reg.add({"microbench_pdes",
           "host-parallel PDES scaling: wall-clock at sim_threads=1/2/4",
           build_microbench_pdes,
           {{.title = "Microbench: conservative PDES (AMO tree barrier), "
                      "cycles per episode",
             .rows = cpus, .cols = domains},
            {.title = "Microbench: conservative PDES, host events",
             .rows = cpus, .cols = domains, .metric = M::kEvents},
            {.title = "Microbench: conservative PDES, wall ms",
             .rows = cpus, .cols = domains, .metric = M::kWallMs,
             .precision = 1},
            {.title = "Microbench: conservative PDES, wall-clock speedup "
                      "over sim_threads=1",
             .rows = cpus, .cols = domains, .metric = M::kWallMs,
             .precision = 2, .relative_to = {{"sim_threads", "1"}}}},
           "expected shape: cycles/episode stable within a column across "
           "reruns (deterministic per K); wall-clock speedup approaches the "
           "domain count on a host with that many cores."});
  const std::vector<std::string> hier = {"kind", "sim_threads"};
  reg.add({"microbench_hier",
           "cluster-hierarchical barriers: root-link traffic vs flat tree",
           build_microbench_hier,
           {{.title = "Microbench: hierarchy-aware AMO barriers (cluster "
                      "fan-in vs flat fanout-4 tree), cycles per episode",
             .rows = cpus, .cols = hier},
            {.title = "Microbench: hierarchy-aware AMO barriers, root-link "
                      "messages per episode",
             .rows = cpus, .cols = hier, .metric = M::kSecondary,
             .precision = 1},
            {.title = "Microbench: hierarchy-aware AMO barriers, root-link "
                      "cut vs the flat tree",
             .rows = cpus, .cols = hier, .metric = M::kSecondary,
             .precision = 2, .relative_to = {{"kind", "flat_tree"}}}},
           "expected shape: both cluster variants cut root-link messages; "
           "AMU aggregation cuts them to O(clusters) — at 256+ CPUs >= 2x "
           "fewer than the flat tree, at lower cycles/episode (the CI "
           "gate)."});
  const std::vector<std::string> radix = {"num_cpus", "net.radix"};
  const std::vector<std::string> depth = {"kind", "hier.levels"};
  reg.add({"ablation_hier_depth",
           "router radix x folded hierarchy depth for aggregated barriers",
           build_hier_depth,
           {{.title = "Ablation: topology shape x hierarchy depth (AMO "
                      "barriers, root-link messages per episode)",
             .rows = radix, .cols = depth, .metric = M::kSecondary,
             .precision = 1},
            {.title = "Ablation: topology shape x hierarchy depth (cycles "
                      "per episode)",
             .rows = radix, .cols = depth}},
           "expected shape: deeper folding keeps cutting root-link messages "
           "(each level combines one more tier of clusters); cycles are "
           "flat-to-better until the extra fan-in rounds outweigh the "
           "relieved root links. Depths past the tree height are clamped "
           "to it, so those cells land in the deepest valid column."});
  reg.add({"ablation_hier_locks",
           "mcs vs cna vs hmcs queue locks across every mechanism",
           build_hier_locks,
           {{.title = "Ablation: topology-aware queue locks (total cycles, "
                      "lower is better)",
             .rows = algos, .cols = mech}},
           "expected shape: under multi-node contention cna/hmcs beat plain "
           "mcs (handoffs stay inside a cluster until the threshold), with "
           "the gap growing with node count; the bounded thresholds keep "
           "worst-case fairness."});
  const std::vector<std::string> load = {"num_cpus",
                                         "service.interarrival_cycles"};
  reg.add({"microbench_service",
           "open-loop sharded service: p999 latency vs offered load",
           build_microbench_service,
           {{.title = "Microbench: open-loop sharded service (p999 request "
                      "latency, cycles)",
             .rows = load, .cols = mech},
            {.title = "Microbench: open-loop sharded service (p999 "
                      "normalized to AMO)",
             .rows = load, .cols = mech, .precision = 2,
             .relative_to = {{"mech", "AMO"}},
             .relative = Relative::kNormalized}},
           "expected shape: as interarrival shrinks (load rises), LL/SC "
           "p999 grows super-linearly (retry collapse under backlog) while "
           "AMO p999 stays within ~2x of its low-load value."});
  reg.add({"ablation_service_load",
           "offered-load grid for LL/SC vs AMO service tail latency",
           build_service_load,
           {{.title = "Ablation: offered load vs mechanism (open-loop "
                      "service p999 latency, cycles)",
             .rows = load, .cols = mech},
            {.title = "Ablation: offered load vs mechanism (mean latency, "
                      "cycles)",
             .rows = load, .cols = mech, .metric = M::kSecondary}},
           "expected shape: a saturation knee — below it the two mechanisms "
           "track each other; past it LL/SC's p999 diverges while AMO's "
           "stays flat."});
}

}  // namespace amo::bench
