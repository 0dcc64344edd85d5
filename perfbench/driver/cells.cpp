#include "cells.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <unistd.h>

#include "core/config_io.hpp"
#include "core/machine.hpp"
#include "sim/stats.hpp"
#include "svc/service.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"

namespace perfbench {

namespace {

using amo::sync::Mechanism;
namespace core = amo::core;
namespace sim = amo::sim;
namespace sync = amo::sync;

// The paper's column order (ActMsg before Atomic), as in Tables 2 and 4.
constexpr Mechanism kTableMechs[] = {Mechanism::kLlSc, Mechanism::kActMsg,
                                     Mechanism::kAtomic, Mechanism::kMao,
                                     Mechanism::kAmo};
constexpr std::uint32_t kPaperCpus[] = {4, 8, 16, 32, 64, 128, 256};

// Barrier and lock kernels add this much random compute before each
// episode/acquisition, as the paper's microbenchmarks do.
constexpr std::uint64_t kMaxSkew = 200;
constexpr sim::Cycle kCsCycles = 50;

std::string cell_id(const char* family, Mechanism m, std::uint32_t cpus) {
  return std::string(family) + "." + slug(m) + ".p" + std::to_string(cpus);
}

// Two-level combining tree with the leaf fanout nearest sqrt(P) from
// below: both levels then have comparable width.
std::uint32_t two_level_fanout(std::uint32_t cpus) {
  std::uint32_t log2 = 0;
  while ((2u << log2) <= cpus) ++log2;
  return 1u << (log2 / 2);
}

std::vector<CellSpec> paper_barriers() {
  std::vector<CellSpec> cells;
  for (Kernel k : {Kernel::kCentralBarrier, Kernel::kTreeBarrier}) {
    for (std::uint32_t p : kPaperCpus) {
      for (Mechanism m : kTableMechs) {
        CellSpec c;
        c.kernel = k;
        c.mech = m;
        c.cpus = p;
        c.warmup = 2;
        c.count = 8;
        c.fanout = two_level_fanout(p);
        c.id = cell_id(k == Kernel::kCentralBarrier ? "central" : "tree", m,
                       p);
        cells.push_back(c);
      }
    }
  }
  return cells;
}

std::vector<CellSpec> paper_locks() {
  std::vector<CellSpec> cells;
  for (std::uint32_t p : {4u, 16u, 64u, 256u}) {
    for (Mechanism m : kTableMechs) {
      for (Kernel k : {Kernel::kTicketLock, Kernel::kArrayLock}) {
        CellSpec c;
        c.kernel = k;
        c.mech = m;
        c.cpus = p;
        c.warmup = 1;
        // Acquisitions per cpu: the 256-cpu row costs ~6x the rest
        // together per acquisition, so it runs fewer.
        c.count = p >= 256 ? 2 : 6;
        c.id = cell_id(k == Kernel::kTicketLock ? "ticket" : "array", m, p);
        cells.push_back(c);
      }
    }
  }
  return cells;
}

std::vector<CellSpec> service_open_loop() {
  std::vector<CellSpec> cells;
  for (std::uint64_t load : {64000u, 24000u}) {
    for (Mechanism m :
         {Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kAmo}) {
      CellSpec c;
      c.kernel = Kernel::kService;
      c.mech = m;
      c.cpus = 16;
      c.requests = 512;
      c.interarrival = load;
      c.id = std::string("service.") + slug(m) + ".gap" +
             std::to_string(load);
      cells.push_back(c);
    }
  }
  return cells;
}

std::vector<CellSpec> hier_1024() {
  std::vector<CellSpec> cells;
  for (std::uint32_t k : {1u, 2u}) {
    for (HierVariant v : {HierVariant::kFlatTree, HierVariant::kCluster,
                          HierVariant::kClusterAmu}) {
      CellSpec c;
      c.kernel = Kernel::kHierBarrier;
      c.mech = Mechanism::kAmo;
      c.cpus = 1024;
      c.warmup = 2;
      c.count = 8;
      c.hier = v;
      c.sim_threads = k;
      c.id = std::string("hier.") + to_string(v) + ".k" + std::to_string(k);
      cells.push_back(c);
    }
  }
  return cells;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Resident set size of this process in MB (Linux /proc/self/statm).
double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Times one span; with tracing on, also keeps its begin/end stamps.
class SpanTimer {
 public:
  SpanTimer(CellResult& r, Span s, bool trace)
      : r_(r), s_(s), trace_(trace), begin_(Clock::now()) {}
  ~SpanTimer() {
    const Clock::time_point end = Clock::now();
    r_.seconds[s_] += seconds_between(begin_, end);
    if (trace_) r_.spans.push_back({s_, begin_, end});
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  CellResult& r_;
  Span s_;
  bool trace_;
  Clock::time_point begin_;
};

// Host-side barrier check shared by the cpus of one cell: counts arrivals
// per episode before each wait, and verifies after it that every cpu had
// arrived (no early passage) and that every cpu ran every episode. Costs
// no simulated cycles. Atomic: with sim_threads > 1 the cpus' coroutines
// run on different host threads.
class BarrierCheck {
 public:
  BarrierCheck(std::uint32_t cpus, int episodes)
      : cpus_(cpus), arrivals_(static_cast<std::size_t>(episodes)),
        done_(cpus) {}
  void arrive(int ep) { arrivals_[ep].fetch_add(1); }
  void passed(sim::CpuId c, int ep) {
    if (arrivals_[ep].load() != cpus_) early_.store(true);
    done_[c].fetch_add(1);
  }
  [[nodiscard]] std::optional<std::string> failure(int episodes) const {
    if (early_.load()) return "a cpu left a barrier episode early";
    for (const auto& d : done_) {
      if (d.load() != episodes) return "a cpu missed a barrier episode";
    }
    return std::nullopt;
  }

 private:
  std::uint32_t cpus_;
  std::vector<std::atomic<std::uint32_t>> arrivals_;
  std::vector<std::atomic<int>> done_;
  std::atomic<bool> early_{false};
};

struct Traffic {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

Traffic traffic(core::Machine& m) {
  return Traffic{m.network().stats().packets, m.network().stats().bytes};
}

void put_traffic(sim::Json& rec, Traffic start, Traffic end) {
  rec["traffic"]["packets"] = end.packets - start.packets;
  rec["traffic"]["bytes"] = end.bytes - start.bytes;
}

core::SystemConfig cell_config(const CellSpec& spec, std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.num_cpus = spec.cpus;
  cfg.seed = seed;
  cfg.sim_threads = spec.sim_threads;
  if (spec.kernel == Kernel::kService) {
    cfg.service.interarrival_cycles = spec.interarrival;
    cfg.stats.histograms = true;  // the latency quantiles come from them
  }
  if (spec.kernel == Kernel::kHierBarrier &&
      spec.hier != HierVariant::kFlatTree) {
    cfg.hier.levels = 2;  // two physical tree levels of clustering
  }
  core::validate(cfg);
  return cfg;
}

std::unique_ptr<sync::Barrier> make_barrier(core::Machine& m,
                                            const CellSpec& spec) {
  const core::SystemConfig& cfg = m.config();
  if (spec.kernel == Kernel::kCentralBarrier) {
    return sync::make_central_barrier(m, spec.mech, spec.cpus);
  }
  if (spec.kernel == Kernel::kTreeBarrier ||
      spec.hier == HierVariant::kFlatTree) {
    return sync::make_tree_barrier(m, spec.mech, spec.cpus, spec.fanout);
  }
  // Software fan-in unless the config opts into AMU combining; the
  // cluster_amu variant forces it.
  return sync::make_cluster_barrier(
      m, spec.mech, spec.cpus, cfg.hier.levels,
      spec.hier == HierVariant::kClusterAmu || cfg.hier.amu_aggregation);
}

// Barrier kernels: P cpus run warmup + measured episodes; cpu 0 brackets
// the measured region. The paper's barriers record the measured region's
// traffic; the hierarchy cells (which may run on several host threads,
// where a mid-run traffic snapshot would race) record root-link messages
// over the whole run.
void barrier_body(core::Machine& m, const CellSpec& spec, CellResult& r,
                  bool trace, std::optional<std::string>& failure) {
  const core::SystemConfig& cfg = m.config();
  const bool hier = spec.kernel == Kernel::kHierBarrier;
  const int total = spec.warmup + spec.count;
  std::unique_ptr<sync::Barrier> barrier;
  BarrierCheck check(spec.cpus, total);
  sim::Cycle t_start = 0;
  sim::Cycle t_end = 0;
  Traffic tr_start;
  Traffic tr_end;
  {
    SpanTimer span(r, kSpanSpawn, trace);
    barrier = make_barrier(m, spec);
    for (sim::CpuId c = 0; c < spec.cpus; ++c) {
      m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
        for (int ep = 0; ep < total; ++ep) {
          co_await t.compute(t.rng().below(kMaxSkew));
          check.arrive(ep);
          co_await barrier->wait(t);
          check.passed(c, ep);
          if (c == 0 && ep == spec.warmup - 1) {
            t_start = t.now();
            if (!hier) tr_start = traffic(m);
          }
          if (c == 0 && ep == total - 1) {
            t_end = t.now();
            if (!hier) tr_end = traffic(m);
          }
        }
      });
    }
  }
  {
    SpanTimer span(r, kSpanRun, trace);
    m.run();
  }
  failure = check.failure(total);
  const double per_episode =
      static_cast<double>(t_end - t_start) / spec.count;
  if (hier) {
    const std::uint64_t root = m.network().root_link_traversals();
    r.sim["sim_threads"] = cfg.sim_threads;
    r.sim["barrier"] = to_string(spec.hier);
    r.sim["levels"] = cfg.hier.levels;
    r.sim["radix"] = cfg.net.radix;
    r.sim["episodes"] = spec.count;
    r.sim["cycles_per_episode"] = per_episode;
    r.sim["root_link_messages"] = root;
    r.sim["root_link_messages_per_episode"] =
        static_cast<double>(root) / total;
    r.sim["events"] = m.domains().total_events_executed();
    put_traffic(r.sim, Traffic{}, traffic(m));
    return;
  }
  if (spec.kernel == Kernel::kCentralBarrier) {
    r.sim["barrier"] = "central";
  } else {
    r.sim["barrier"] = "tree";
    r.sim["fanout"] = spec.fanout;
  }
  r.sim["episodes"] = spec.count;
  r.sim["cycles_per_barrier"] = per_episode;
  r.sim["cycles_per_proc"] = per_episode / spec.cpus;
  put_traffic(r.sim, tr_start, tr_end);
}

// Ticket and array locks: warmup acquisitions, an Atomic central barrier
// fence, then the measured acquisitions; the last finisher closes the
// region. A host-side holder count checks mutual exclusion.
void lock_body(core::Machine& m, const CellSpec& spec, CellResult& r,
               bool trace, std::optional<std::string>& failure) {
  const std::uint32_t p = spec.cpus;
  std::unique_ptr<sync::Lock> lock;
  std::unique_ptr<sync::Barrier> fence;
  sim::Cycle t_start = 0;
  sim::Cycle t_end = 0;
  Traffic tr_start;
  Traffic tr_end;
  std::uint32_t finished = 0;
  int holders = 0;
  bool overlap = false;
  std::vector<int> acquired(p, 0);
  {
    SpanTimer span(r, kSpanSpawn, trace);
    lock = spec.kernel == Kernel::kArrayLock
               ? sync::make_array_lock(m, spec.mech, p)
               : sync::make_ticket_lock(m, spec.mech);
    fence = sync::make_central_barrier(m, Mechanism::kAtomic, p);
    for (sim::CpuId c = 0; c < p; ++c) {
      m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
        auto critical = [&]() -> sim::Task<void> {
          co_await lock->acquire(t);
          if (++holders > 1) overlap = true;
          ++acquired[c];
          co_await t.compute(kCsCycles);
          --holders;
          co_await lock->release(t);
        };
        for (int i = 0; i < spec.warmup; ++i) {
          co_await critical();
          co_await t.compute(t.rng().below(kMaxSkew + 1));
        }
        co_await fence->wait(t);
        if (c == 0) {
          t_start = t.now();
          tr_start = traffic(m);
        }
        for (int i = 0; i < spec.count; ++i) {
          co_await critical();
          co_await t.compute(t.rng().below(kMaxSkew));
        }
        if (++finished == p) {
          t_end = t.now();
          tr_end = traffic(m);
        }
      });
    }
  }
  {
    SpanTimer span(r, kSpanRun, trace);
    m.run();
  }
  if (overlap) failure = "two threads held the lock at once";
  for (int a : acquired) {
    if (a != spec.warmup + spec.count) failure = "a cpu missed an acquisition";
  }
  const double total = static_cast<double>(t_end - t_start);
  r.sim["lock"] = spec.kernel == Kernel::kArrayLock ? "array" : "ticket";
  r.sim["iters"] = spec.count;
  r.sim["cs_cycles"] = kCsCycles;
  r.sim["total_cycles"] = total;
  r.sim["cycles_per_acquire"] = total / (static_cast<double>(p) * spec.count);
  put_traffic(r.sim, tr_start, tr_end);
}

// Open-loop sharded service: each cpu draws Poisson arrivals from its
// seeded stream; latency counts from the scheduled arrival.
void service_body(core::Machine& m, const CellSpec& spec, CellResult& r,
                  bool trace, std::optional<std::string>& failure) {
  const core::SystemConfig& cfg = m.config();
  std::unique_ptr<amo::svc::ShardedService> service;
  std::vector<sim::LogHistogram> lat(m.domains().count());
  std::vector<std::uint64_t> served(cfg.num_cpus, 0);
  const std::uint64_t requests = spec.requests;
  const sim::Cycle mean_gap = cfg.service.interarrival_cycles;
  {
    SpanTimer span(r, kSpanSpawn, trace);
    service = std::make_unique<amo::svc::ShardedService>(m, spec.mech);
    for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
      const std::uint32_t dom = m.domains().domain_of(c / cfg.cpus_per_node);
      m.spawn(c, [&, c, dom](core::ThreadCtx& t) -> sim::Task<void> {
        sim::LogHistogram& h = lat[dom];
        sim::Cycle next = 0;
        for (std::uint64_t i = 0; i < requests; ++i) {
          const double gap =
              t.rng().exponential() * static_cast<double>(mean_gap);
          next += std::max<sim::Cycle>(
              1, static_cast<sim::Cycle>(std::ceil(gap)));
          if (t.now() < next) co_await t.delay(next - t.now());
          const std::uint64_t key = t.rng().next() % service->key_space();
          co_await service->handle(t, key);
          h.record(t.now() - next);
          ++served[c];
        }
      });
    }
  }
  {
    SpanTimer span(r, kSpanRun, trace);
    m.run();
  }
  sim::LogHistogram merged;
  for (const sim::LogHistogram& h : lat) merged += h;
  for (std::uint64_t s : served) {
    if (s != requests) failure = "a cpu missed a request";
  }
  if (merged.count() != requests * cfg.num_cpus) {
    failure = "completed requests differ from requested";
  }
  r.sim["sim_threads"] = cfg.sim_threads;
  r.sim["shards"] = service->num_shards();
  r.sim["interarrival"] = mean_gap;
  r.sim["requests"] = merged.count();
  r.sim["latency"]["mean"] = merged.mean();
  r.sim["latency"]["min"] = merged.min();
  r.sim["latency"]["max"] = merged.max();
  r.sim["latency"]["p50"] = merged.quantile(0.50);
  r.sim["latency"]["p90"] = merged.quantile(0.90);
  r.sim["latency"]["p99"] = merged.quantile(0.99);
  r.sim["latency"]["p999"] = merged.quantile(0.999);
  r.sim["cycles"] = m.domains().max_now();
  put_traffic(r.sim, Traffic{}, traffic(m));
}

void collect_counters(core::Machine& m, CellResult& r) {
  const core::MachineStats s = m.stats();
  std::uint64_t real_events = 0;
  for (std::uint32_t d = 0; d < m.domains().count(); ++d) {
    real_events += m.domains().engine(d).real_events_executed();
  }
  std::uint64_t elided = 0;
  for (sim::CpuId c = 0; c < m.num_cpus(); ++c) {
    elided += m.ctx(c).spin_stats().elided_polls;
  }
  sim::Json& k = r.counters;
  k["events"] = real_events;
  k["net.packets"] = s.net.packets;
  k["net.bytes"] = s.net.bytes;
  k["net.root_link_traversals"] = m.network().root_link_traversals();
  k["coh.dir.ops"] = s.dir.gets + s.dir.getx + s.dir.upgrades +
                     s.dir.putbacks + s.dir.word_gets + s.dir.word_puts +
                     s.dir.uncached_reads + s.dir.uncached_writes;
  k["coh.dir.deferred"] = s.dir.deferred;
  k["coh.dir.invals_sent"] = s.dir.invals_sent;
  k["coh.dir.word_updates_sent"] = s.dir.word_updates_sent;
  k["coh.cache.loads"] = s.cache.loads;
  k["coh.cache.sc_success"] = s.cache.sc_success;
  k["coh.cache.sc_fail"] = s.cache.sc_fail;
  k["coh.cache.misses"] =
      s.cache.miss_gets + s.cache.miss_getx + s.cache.miss_upgrade;
  k["mem.l2.hits"] = s.l2.hits;
  k["mem.l2.misses"] = s.l2.misses;
  k["amu.ops"] = s.amu.ops;
  k["amu.cache_hits"] = s.amu.cache_hits;
  k["amu.cache_misses"] = s.amu.cache_misses;
  k["amu.puts_suppressed"] = s.amu.puts_suppressed;
  k["amu.queue_depth_sum"] = s.amu.queue_depth.mean() *
                             static_cast<double>(s.amu.queue_depth.count());
  k["amu.queue_depth_samples"] = s.amu.queue_depth.count();
  k["cpu.am.replays"] = s.am.replays;
  k["cpu.spin.elided_polls"] = elided;
}

}  // namespace

const char* to_string(HierVariant v) {
  switch (v) {
    case HierVariant::kFlatTree: return "flat_tree";
    case HierVariant::kCluster: return "cluster";
    case HierVariant::kClusterAmu: return "cluster_amu";
  }
  return "?";
}

const char* slug(Mechanism m) {
  switch (m) {
    case Mechanism::kLlSc: return "llsc";
    case Mechanism::kAtomic: return "atomic";
    case Mechanism::kActMsg: return "actmsg";
    case Mechanism::kMao: return "mao";
    case Mechanism::kAmo: return "amo";
  }
  return "?";
}

const char* span_name(Span s) {
  switch (s) {
    case kSpanCell: return "cell";
    case kSpanCtor: return "core.Machine()";
    case kSpanSpawn: return "core.spawn";
    case kSpanRun: return "sim.run";
    case kSpanStats: return "core.stats_json";
    case kSpanCheck: return "check.coherence";
    case kSpanDtor: return "core.~Machine";
    case kSpanCount: break;
  }
  return "?";
}

std::uint64_t CellSpec::ops() const {
  switch (kernel) {
    case Kernel::kService: return requests * cpus;
    default: return static_cast<std::uint64_t>(warmup + count) * cpus;
  }
}

std::vector<CellSpec> workload_cells(const std::string& name) {
  if (name == "paper_barriers") return paper_barriers();
  if (name == "paper_locks") return paper_locks();
  if (name == "service_open_loop") return service_open_loop();
  if (name == "hier_1024") return hier_1024();
  return {};
}

CellResult run_cell(const CellSpec& spec, const RunOptions& opt) {
  CellResult r;
  std::optional<std::string> failure;
  {
    SpanTimer cell_span(r, kSpanCell, opt.trace);
    try {
      const core::SystemConfig cfg = cell_config(spec, opt.seed);
      r.sim["cpus"] = cfg.num_cpus;
      r.sim["mechanism"] = sync::to_string(spec.mech);
      std::unique_ptr<core::Machine> m;
      const double rss0 = opt.trace ? resident_mb() : 0;
      {
        SpanTimer span(r, kSpanCtor, opt.trace);
        m = std::make_unique<core::Machine>(cfg);
      }
      if (opt.trace) r.ctor_rss_mb = resident_mb() - rss0;
      switch (spec.kernel) {
        case Kernel::kCentralBarrier:
        case Kernel::kTreeBarrier:
        case Kernel::kHierBarrier:
          barrier_body(*m, spec, r, opt.trace, failure);
          break;
        case Kernel::kTicketLock:
        case Kernel::kArrayLock:
          lock_body(*m, spec, r, opt.trace, failure);
          break;
        case Kernel::kService:
          service_body(*m, spec, r, opt.trace, failure);
          break;
      }
      {
        SpanTimer span(r, kSpanStats, opt.trace);
        r.sim["registry"] = m->stats_json();
      }
      {
        SpanTimer span(r, kSpanCheck, opt.trace);
        m->check_coherence();
      }
      collect_counters(*m, r);
      {
        SpanTimer span(r, kSpanDtor, opt.trace);
        m.reset();
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
    r.digest = fnv1a(r.sim.dump());
  }
  if (!opt.keep_registry) {
    sim::Json slim = sim::Json::object();
    for (const auto& [key, value] : r.sim.items()) {
      if (key != "registry") slim[key] = value;
    }
    r.sim = std::move(slim);
  }
  if (failure) {
    r.ok = false;
    r.error = *failure;
  }
  return r;
}

}  // namespace perfbench
