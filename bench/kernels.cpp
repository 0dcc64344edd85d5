// The cell kernels: each Kernel value dispatches to one simulation body,
// driven by CellParams. A kernel returns its headline numbers in
// CellResult and, when asked, its --json record.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/scenario.hpp"
#include "core/machine.hpp"
#include "net/network.hpp"
#include "sim/stats.hpp"
#include "svc/service.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"
#include "sync/spin.hpp"

namespace amo::bench {

namespace {

TrafficSnapshot snap(const net::Network& n) {
  return TrafficSnapshot{n.stats().packets, n.stats().bytes};
}

sim::Json traffic_json(const TrafficSnapshot& t) {
  sim::Json j = sim::Json::object();
  j["packets"] = t.packets;
  j["bytes"] = t.bytes;
  return j;
}

// The machine knobs ablations sweep, so --json records are
// self-describing even when a bench varies more than the CPU count.
sim::Json config_json(const core::SystemConfig& cfg) {
  sim::Json j = sim::Json::object();
  j["num_cpus"] = cfg.num_cpus;
  j["cpus_per_node"] = cfg.cpus_per_node;
  j["hop_cycles"] = cfg.net.hop_cycles;
  j["hardware_multicast"] = cfg.net.hardware_multicast;
  j["amu_cache_words"] = cfg.amu.cache_words;
  j["amu_eager_put_all"] = cfg.amu.eager_put_all;
  j["seed"] = cfg.seed;
  // Only when decomposed: serial records stay byte-identical to pre-PDES.
  if (cfg.sim_threads > 1) j["sim_threads"] = cfg.sim_threads;
  return j;
}

// The paper's Figure 1 scenario: a three-processor barrier, one processor
// per node, the variable homed on a fourth node, counting every one-way
// protocol message until all three proceed.
CellResult run_fig1_cell(const core::SystemConfig& cfg, const CellParams& p,
                         bool record) {
  const sync::Mechanism mech = p.mech;
  core::Machine m(cfg);
  const sim::Addr var = m.galloc().alloc_word_line(3);  // the home node

  sim::Cycle done = 0;
  for (sim::CpuId c = 0; c < 3; ++c) {
    m.spawn(c, [&, mech](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await sync::fetch_add(mech, t, var, 1,
                                     /*test=*/std::uint64_t{3});
      const auto all_in = [](std::uint64_t v) { return v == 3; };
      if (mech == sync::Mechanism::kMao) {
        (void)co_await sync::spin_uncached_until(
            t, var, all_in, [](std::uint64_t) { return sim::Cycle{400}; });
      } else {
        (void)co_await sync::spin_cached_until(t, var, all_in);
      }
      done = std::max(done, t.now());
    });
  }
  m.run();
  CellResult r;
  r.primary = static_cast<double>(done);
  r.aux = m.stats().net.packets;
  r.events = m.domains().total_events_executed();
  if (record) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "fig1_episode";
    rec["cpus"] = 3;
    rec["mechanism"] = sync::to_string(mech);
    rec["one_way_messages"] = m.stats().net.packets;
    rec["cycles"] = done;
    rec["registry"] = m.stats_json();
    r.record = std::move(rec);
  }
  return r;
}

// Groups of four: cpu 4k produces through an AMO flag; cpus 4k+1..4k+3
// consume. Each flag has exactly three cached sharers regardless of
// machine size, so an exact directory entry fans each put out to ~2 nodes
// while a coarse (pointer-overflowed) entry must touch every node.
CellResult run_pairwise_flags_cell(const core::SystemConfig& cfg,
                                   const CellParams& p, bool record) {
  core::Machine m(cfg);
  const int rounds = p.rounds;
  const std::uint32_t groups = cfg.num_cpus / 4;
  std::vector<sim::Addr> flags;
  for (std::uint32_t k = 0; k < groups; ++k) {
    flags.push_back(m.galloc().alloc_word_line(
        (4 * k + 1) / cfg.cpus_per_node));  // homed near the consumers
  }
  for (std::uint32_t k = 0; k < groups; ++k) {
    m.spawn(4 * k, [&, k, rounds](core::ThreadCtx& t) -> sim::Task<void> {
      for (int r = 0; r < rounds; ++r) {
        co_await t.compute(300);
        (void)co_await t.amo_fetch_add(flags[k], 1);
      }
    });
    for (std::uint32_t j = 1; j <= 3; ++j) {
      m.spawn(4 * k + j,
              [&, k, rounds](core::ThreadCtx& t) -> sim::Task<void> {
        for (int r = 1; r <= rounds; ++r) {
          while (co_await t.load(flags[k]) <
                 static_cast<std::uint64_t>(r)) {
            co_await t.delay(200);
          }
          co_await t.compute(100);
        }
      });
    }
  }
  m.run();
  CellResult res;
  res.primary = static_cast<double>(m.domains().max_now());
  res.traffic = snap(m.network());
  res.aux = m.stats().dir.word_updates_sent;
  res.events = m.domains().total_events_executed();
  if (record) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "pairwise_flags";
    rec["cpus"] = cfg.num_cpus;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["rounds"] = rounds;
    rec["total_cycles"] = res.primary;
    rec["word_updates"] = res.aux;
    rec["traffic"] = traffic_json(res.traffic);
    rec["config"] = config_json(cfg);
    rec["registry"] = m.stats_json();
    res.record = std::move(rec);
  }
  return res;
}

// Open-loop sharded-service scenario: every cpu runs an independent
// Poisson arrival process (mean gap = service.interarrival_cycles) and
// pushes each request through the ShardedService. Latency is measured
// from the *scheduled* arrival, so when the service can't keep up the
// backlog is charged to the requests — the heavy-traffic regime where
// LL/SC retry collapse shows as a p999 explosion. Latencies land in
// per-domain LogHistogram shards merged in ascending domain order, so
// the emitted quantiles are identical across --sim-threads.
CellResult run_service_cell(const core::SystemConfig& cfg_in,
                            const CellParams& p, bool record) {
  core::SystemConfig cfg = cfg_in;
  cfg.stats.histograms = true;  // this scenario exists to read them
  core::Machine m(cfg);
  svc::ShardedService service(m, p.mech);
  const std::uint64_t requests = p.requests;
  const sim::Cycle mean_gap = cfg.service.interarrival_cycles;
  std::vector<sim::LogHistogram> lat(m.domains().count());
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    const std::uint32_t dom = m.domains().domain_of(c / cfg.cpus_per_node);
    m.spawn(c, [&service, &lat, dom, requests,
                mean_gap](core::ThreadCtx& t) -> sim::Task<void> {
      sim::LogHistogram& h = lat[dom];
      sim::Cycle next = 0;
      for (std::uint64_t i = 0; i < requests; ++i) {
        const double gap =
            t.rng().exponential() * static_cast<double>(mean_gap);
        next += std::max<sim::Cycle>(
            1, static_cast<sim::Cycle>(std::ceil(gap)));
        if (t.now() < next) co_await t.delay(next - t.now());
        const std::uint64_t key = t.rng().next() % service.key_space();
        co_await service.handle(t, key);
        h.record(t.now() - next);
      }
    });
  }
  m.run();
  sim::LogHistogram merged;
  for (const sim::LogHistogram& h : lat) merged += h;

  const sim::Cycle total_cycles = m.domains().max_now();
  CellResult r;
  r.primary = static_cast<double>(merged.quantile(0.999));
  r.secondary = merged.mean();
  r.traffic = snap(m.network());
  r.aux = merged.count();
  r.events = m.domains().total_events_executed();
  if (record) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "service";
    rec["cpus"] = cfg.num_cpus;
    rec["sim_threads"] = cfg.sim_threads;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["shards"] = service.num_shards();
    rec["interarrival"] = mean_gap;
    rec["requests"] = merged.count();
    rec["latency"]["mean"] = merged.mean();
    rec["latency"]["min"] = merged.min();
    rec["latency"]["max"] = merged.max();
    rec["latency"]["p50"] = merged.quantile(0.50);
    rec["latency"]["p90"] = merged.quantile(0.90);
    rec["latency"]["p99"] = merged.quantile(0.99);
    rec["latency"]["p999"] = merged.quantile(0.999);
    rec["cycles"] = total_cycles;
    rec["registry"] = m.stats_json();
    r.record = std::move(rec);
  }
  return r;
}

bool hier_kind(BarrierKind k) {
  return k == BarrierKind::kFlatTree || k == BarrierKind::kCluster ||
         k == BarrierKind::kClusterAmu;
}

std::unique_ptr<sync::Barrier> make_barrier(core::Machine& m,
                                            const core::SystemConfig& cfg,
                                            const CellParams& p,
                                            std::uint32_t n) {
  switch (p.kind) {
    case BarrierKind::kCentral:
      return sync::make_central_barrier(m, p.mech, n);
    case BarrierKind::kTree:
    case BarrierKind::kFlatTree:
      return sync::make_tree_barrier(m, p.mech, n, p.fanout);
    case BarrierKind::kNaive:
      return sync::make_naive_barrier(m, p.mech, n);
    case BarrierKind::kDissemination:
      return sync::make_dissemination_barrier(m, p.mech, n);
    case BarrierKind::kMcsTree:
      return sync::make_mcs_tree_barrier(m, p.mech, n);
    case BarrierKind::kCluster:
    case BarrierKind::kClusterAmu:
      // Software fan-in unless the config opts into AMU combining; the
      // cluster_amu kind forces it regardless of the knob.
      return sync::make_cluster_barrier(
          m, p.mech, n, cfg.hier.levels,
          p.kind == BarrierKind::kClusterAmu || cfg.hier.amu_aggregation);
  }
  return nullptr;
}

std::unique_ptr<sync::Lock> make_lock(core::Machine& m,
                                      const core::SystemConfig& cfg,
                                      const CellParams& p) {
  switch (p.algo) {
    case LockAlgo::kTas: return sync::make_tas_lock(m, p.mech);
    case LockAlgo::kTicket: {
      sync::TicketLockConfig lcfg;
      lcfg.backoff = p.backoff;
      return sync::make_ticket_lock(m, p.mech, lcfg);
    }
    case LockAlgo::kArray:
      return sync::make_array_lock(m, p.mech, cfg.num_cpus);
    case LockAlgo::kMcs: return sync::make_mcs_lock(m, p.mech);
    case LockAlgo::kCna:
      return sync::make_cna_lock(m, p.mech, cfg.hier.levels,
                                 cfg.hier.cna_threshold);
    case LockAlgo::kHmcs:
      return sync::make_hmcs_lock(m, p.mech, cfg.hier.levels,
                                  cfg.hier.hmcs_threshold);
  }
  return nullptr;
}

}  // namespace

CellResult run_barrier(const core::SystemConfig& cfg, const CellParams& p,
                       bool record) {
  core::Machine m(cfg);
  const std::uint32_t n =
      p.active == 0 ? cfg.num_cpus : std::min(p.active, cfg.num_cpus);
  std::unique_ptr<sync::Barrier> barrier = make_barrier(m, cfg, p, n);
  // With an active subset, every other cpu busy-waits on a flag cpu 0
  // raises after its last episode. Parked waiters are event-free, so host
  // events per episode track the active set, not the cpu count.
  const sim::Addr done_flag = p.active != 0 ? m.galloc().alloc_word_line(0)
                                            : sim::Addr{0};

  // Cpu 0 brackets the measured region: right after its warmup exit and
  // right after its last measured exit. All cpus are within one barrier
  // of each other at those points. Under PDES (sim_threads > 1) a mid-run
  // read of the network or event counters would race other domains'
  // shards, so brackets keep only cpu 0's clock and the traffic and
  // event windows fall back to the whole run.
  struct Mark {
    sim::Cycle cycle = 0;
    TrafficSnapshot traffic;
    std::uint64_t events = 0;
  };
  Mark start;
  Mark end;
  const bool parallel = cfg.sim_threads > 1;
  const auto mark = [&](Mark& at, sim::Cycle now) {
    at.cycle = now;
    if (parallel) return;
    at.traffic = snap(m.network());
    at.events = m.engine().events_executed();
  };
  const int total = p.warmup_episodes + p.episodes;
  for (sim::CpuId c = 0; c < n; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < total; ++ep) {
        if (p.max_skew > 0) co_await t.compute(t.rng().below(p.max_skew));
        co_await barrier->wait(t);
        if (c == 0 && ep == p.warmup_episodes - 1) mark(start, t.now());
        if (c == 0 && ep == total - 1) mark(end, t.now());
      }
      if (c == 0 && p.active != 0) co_await t.store(done_flag, 1);
    });
  }
  for (sim::CpuId c = n; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await sync::spin_cached_until(
          t, done_flag, [](std::uint64_t v) { return v != 0; });
    });
  }
  m.run();
  CellResult r;
  r.events = m.domains().total_events_executed();
  if (parallel) {
    end.traffic = snap(m.network());
    end.events = r.events;
  }
  const std::uint64_t root_links = m.network().root_link_traversals();
  r.primary = static_cast<double>(end.cycle - start.cycle) / p.episodes;
  r.traffic.packets = end.traffic.packets - start.traffic.packets;
  r.traffic.bytes = end.traffic.bytes - start.traffic.bytes;
  r.aux = end.events - start.events;
  // Root-link counts cover the whole run (warmup included): both the flat
  // and the cluster kinds pay the same warmup, so their ratio is fair.
  if (hier_kind(p.kind)) {
    r.secondary = static_cast<double>(root_links) / total;
  } else if (p.active != 0) {
    r.secondary = static_cast<double>(r.aux) / p.episodes;
  } else {
    r.secondary = r.primary / cfg.num_cpus;  // Figure 5/6: latency / P
  }
  if (!record) return r;

  sim::Json rec = sim::Json::object();
  if (hier_kind(p.kind)) {
    rec["workload"] = "microbench_hier";
    rec["cpus"] = cfg.num_cpus;
    rec["sim_threads"] = cfg.sim_threads;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["barrier"] = to_string(p.kind);
    rec["levels"] = cfg.hier.levels;
    rec["radix"] = cfg.net.radix;
    rec["episodes"] = p.episodes;
    rec["cycles_per_episode"] = r.primary;
    rec["total_cycles"] = m.domains().max_now();
    rec["root_link_messages"] = root_links;
    rec["root_link_messages_per_episode"] = r.secondary;
    rec["events"] = r.events;
  } else if (p.active != 0) {
    rec["workload"] = "microbench_spin";
    rec["cpus"] = cfg.num_cpus;
    rec["active"] = n;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["episodes"] = p.episodes;
    rec["cycles_per_episode"] = r.primary;
    rec["events_per_episode"] = r.secondary;
    rec["registry"] = m.stats_json();
  } else {
    rec["workload"] = "barrier";
    rec["cpus"] = cfg.num_cpus;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["barrier"] = to_string(p.kind);
    if (p.kind == BarrierKind::kTree) rec["fanout"] = p.fanout;
    rec["episodes"] = p.episodes;
    rec["cycles_per_barrier"] = r.primary;
    rec["cycles_per_proc"] = r.secondary;
    rec["traffic"] = traffic_json(r.traffic);
    rec["config"] = config_json(cfg);
    rec["registry"] = m.stats_json();
  }
  r.record = std::move(rec);
  return r;
}

CellResult run_lock(const core::SystemConfig& cfg, const CellParams& p,
                    bool record) {
  core::Machine m(cfg);
  std::vector<std::unique_ptr<sync::Lock>> locks;
  for (std::uint32_t l = 0; l < p.locks; ++l) {
    locks.push_back(make_lock(m, cfg, p));
  }
  // A barrier separates warmup from the measured region so the timing
  // brackets are clean. It uses processor-side atomics regardless of the
  // lock mechanism under test; its traffic is excluded via snapshots.
  // Without warmup there is no fence, and the measured region is the
  // whole run, up to the machine's end time.
  const bool fenced = p.warmup_iters > 0;
  std::unique_ptr<sync::Barrier> fence =
      fenced ? sync::make_central_barrier(m, sync::Mechanism::kAtomic,
                                          cfg.num_cpus)
             : nullptr;

  sim::Cycle t_start = 0;
  sim::Cycle t_end = 0;
  TrafficSnapshot traffic_start{};
  TrafficSnapshot traffic_end{};
  std::uint32_t finished = 0;
  // PDES-safe bookkeeping: the shared `finished` counter and mid-run
  // traffic snapshots are serial-only; K > 1 keeps a per-cpu finish
  // cycle (each element written by exactly one domain thread) and takes
  // the whole run's traffic.
  const bool parallel = cfg.sim_threads > 1;
  std::vector<sim::Cycle> finish_at(parallel ? cfg.num_cpus : 0, 0);

  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    sync::Lock& lock = *locks[c % p.locks];
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      if (fenced) {
        for (int i = 0; i < p.warmup_iters; ++i) {
          co_await lock.acquire(t);
          co_await t.compute(p.cs_cycles);
          co_await lock.release(t);
          co_await t.compute(t.rng().below(p.max_skew + 1));
        }
        co_await fence->wait(t);
        if (c == 0) {
          t_start = t.now();
          if (!parallel) traffic_start = snap(m.network());
        }
      }
      for (int i = 0; i < p.iters; ++i) {
        co_await lock.acquire(t);
        co_await t.compute(p.cs_cycles);
        co_await lock.release(t);
        if (p.max_skew > 0) {
          co_await t.compute(t.rng().below(p.max_skew));
        }
      }
      if (!fenced) co_return;
      if (parallel) {
        finish_at[c] = t.now();
      } else if (++finished == cfg.num_cpus) {
        // Last finisher closes the measured region.
        t_end = t.now();
        traffic_end = snap(m.network());
      }
    });
  }
  m.run();
  if (!fenced) {
    t_end = m.domains().max_now();
    traffic_end = snap(m.network());
  } else if (parallel) {
    t_end = *std::max_element(finish_at.begin(), finish_at.end());
    traffic_end = snap(m.network());
  }

  CellResult r;
  r.primary = static_cast<double>(t_end - t_start);  // measured region
  r.secondary =  // cycles per acquire
      r.primary / (static_cast<double>(cfg.num_cpus) * p.iters);
  r.traffic.packets = traffic_end.packets - traffic_start.packets;
  r.traffic.bytes = traffic_end.bytes - traffic_start.bytes;
  r.events = m.domains().total_events_executed();
  if (record) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "lock";
    rec["cpus"] = cfg.num_cpus;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["lock"] = to_string(p.algo);
    if (p.locks != 1) rec["locks"] = p.locks;
    if (p.backoff != sync::TicketBackoff::kNone) {
      rec["backoff"] = to_string(p.backoff);
    }
    rec["iters"] = p.iters;
    rec["cs_cycles"] = p.cs_cycles;
    rec["total_cycles"] = r.primary;
    rec["cycles_per_acquire"] = r.secondary;
    rec["traffic"] = traffic_json(r.traffic);
    rec["config"] = config_json(cfg);
    rec["registry"] = m.stats_json();
    r.record = std::move(rec);
  }
  return r;
}

CellResult run_cell(const core::SystemConfig& cfg, const CellParams& params,
                    bool record) {
  switch (params.kernel) {
    case Kernel::kBarrier: return run_barrier(cfg, params, record);
    case Kernel::kLock: return run_lock(cfg, params, record);
    case Kernel::kFig1Episode: return run_fig1_cell(cfg, params, record);
    case Kernel::kPairwiseFlags:
      return run_pairwise_flags_cell(cfg, params, record);
    case Kernel::kService: return run_service_cell(cfg, params, record);
  }
  return {};
}

}  // namespace amo::bench
