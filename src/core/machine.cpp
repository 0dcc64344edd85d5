#include "core/machine.hpp"

#include <cassert>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace amo::core {

Machine::Machine(const SystemConfig& config)
    : config_(config),
      domains_(config.sim_threads, config.num_nodes()),
      rng_(config.seed) {
  const std::uint32_t nodes = config_.num_nodes();
  backings_.reserve(domains_.count());
  for (std::uint32_t d = 0; d < domains_.count(); ++d) {
    backings_.emplace_back(config_.line_bytes());
  }
  // One observability knob fans out to every subsystem's derived flag:
  // default-off keeps recording branches cold and registry dumps
  // byte-identical.
  const bool hists = config_.stats.histograms;
  config_.cache.histograms = hists;
  config_.dir.histograms = hists;
  config_.amu.histograms = hists;
  config_.dram.histograms = hists;
  if (hists) {
    engine_dispatch_hists_.resize(domains_.count());
    sync_hists_.resize(domains_.count());
    for (std::uint32_t d = 0; d < domains_.count(); ++d) {
      domains_.engine(d).set_dispatch_hist(&engine_dispatch_hists_[d]);
    }
  }
  net::NetConfig net_cfg = config_.net;
  net_cfg.num_nodes = nodes;
  net_cfg.histograms = hists;
  // A single-node machine still needs a valid (degenerate) topology.
  network_ = std::make_unique<net::Network>(domains_, net_cfg);
  wiring_ = std::make_unique<coh::Wiring>(domains_, *network_,
                                          config_.cpus_per_node,
                                          config_.local_cycles,
                                          config_.bus_cycles);
  galloc_ = std::make_unique<GAlloc>(nodes, config_.line_bytes());

  agents_.caches.resize(config_.num_cpus, nullptr);
  agents_.dirs.resize(nodes, nullptr);
  agents_.amus.resize(nodes, nullptr);
  devices_.amus.resize(nodes, nullptr);
  devices_.servers.resize(nodes, nullptr);

  drams_.reserve(nodes);
  dirs_.reserve(nodes);
  for (sim::NodeId n = 0; n < nodes; ++n) {
    sim::Engine& ne = domains_.engine_for_node(n);
    drams_.push_back(std::make_unique<mem::Dram>(ne, config_.dram));
    dirs_.push_back(std::make_unique<coh::Directory>(
        ne, *wiring_, agents_, n, backings_[domains_.domain_of(n)],
        *drams_[n], config_.dir));
    agents_.dirs[n] = dirs_[n].get();
  }

  cpu::CoreConfig core_cfg;
  core_cfg.cache = config_.cache;
  core_cfg.am_timeout_cycles = config_.am_timeout_cycles;
  cores_.reserve(config_.num_cpus);
  ctxs_.reserve(config_.num_cpus);
  for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
    sim::Engine& ce = domains_.engine_for_node(c / config_.cpus_per_node);
    cores_.push_back(std::make_unique<cpu::Core>(
        ce, *wiring_, agents_, devices_, c, core_cfg));
    agents_.caches[c] = &cores_[c]->cache();
    ctxs_.push_back(std::make_unique<ThreadCtx>(
        *cores_[c], ce, rng_.split(),
        hists ? &sync_hists_[domains_.domain_of(c / config_.cpus_per_node)]
              : nullptr));
  }

  amus_.reserve(nodes);
  servers_.reserve(nodes);
  for (sim::NodeId n = 0; n < nodes; ++n) {
    sim::Engine& ne = domains_.engine_for_node(n);
    amus_.push_back(std::make_unique<amu::Amu>(
        ne, n, *dirs_[n], backings_[domains_.domain_of(n)], *drams_[n],
        config_.amu));
    agents_.amus[n] = amus_[n].get();
    devices_.amus[n] = amus_[n].get();
    // Handlers run on the node's first core (the paper's home-processor
    // interference model).
    servers_.push_back(std::make_unique<cpu::AmServer>(
        ne, *wiring_, *cores_[n * config_.cpus_per_node],
        config_.am_server));
    devices_.servers[n] = servers_[n].get();
  }
  // Hook every AMU into the fabric for per-subtree aggregation
  // (AMU -> AMU combining); devices_.amus is stable from here on.
  for (sim::NodeId n = 0; n < nodes; ++n) {
    amus_[n]->connect_fabric(wiring_.get(), &devices_.amus);
  }

  // Index every subsystem's counters under hierarchical names. The
  // registry only holds pointers; all pointees are owned by this Machine.
  // Registration order is the snapshot order. Engine and fabric counters
  // merge the domains' shards at snapshot time, at every K.
  registry_.add_fn("engine.events_executed",
                   [this] { return domains_.total_events_executed(); });
  registry_.add_fn("engine.now", [this] { return domains_.max_now(); });
  registry_.add_fn("engine.queue.pushed",
                   [this] { return domains_.total_events_scheduled(); });
  registry_.add_fn("engine.queue.pending", [this] {
    std::uint64_t v = 0;
    for (std::uint32_t d = 0; d < domains_.count(); ++d) {
      v += domains_.engine(d).pending_events();
    }
    return v;
  });
  network_->register_stats(registry_, "net");
  registry_.add_fn("local.messages",
                   [this] { return wiring_->local_stats().messages; });
  registry_.add_fn("local.bytes",
                   [this] { return wiring_->local_stats().bytes; });
  for (sim::NodeId n = 0; n < nodes; ++n) {
    const std::string prefix = "node" + std::to_string(n);
    dirs_[n]->register_stats(registry_, prefix + ".dir");
    amus_[n]->register_stats(registry_, prefix + ".amu");
    servers_[n]->register_stats(registry_, prefix + ".am");
  }
  for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
    cores_[c]->cache().register_stats(registry_,
                                      "cpu" + std::to_string(c) + ".cache");
  }
  // The spin counter is a machine-wide sum: per-cpu entries would add P
  // string-keyed registrations to every Machine build.
  registry_.add_fn("spin.parked_wakes", [this] {
    std::uint64_t v = 0;
    for (const auto& ctx : ctxs_) v += ctx->spin_stats().parked_wakes;
    return v;
  });
  if (hists) {
    // Latency histograms, all conditional: default-mode dumps keep their
    // exact bytes, and every merge walks shards in ascending domain
    // order. (The net and per-node/per-cpu subsystem histograms above
    // registered themselves behind their own derived flags.)
    registry_.add_hist_fn("engine.dispatch_delay_hist",
                          [this](sim::LogHistogram& out) {
                            for (const auto& h : engine_dispatch_hists_) {
                              out += h;
                            }
                          });
    for (sim::NodeId n = 0; n < nodes; ++n) {
      drams_[n]->register_stats(registry_,
                                "node" + std::to_string(n) + ".dram");
    }
    registry_.add_hist_fn("sync.lock_acquire_hist",
                          [this](sim::LogHistogram& out) {
                            for (const auto& h : sync_hists_) {
                              out += h.lock_acquire;
                            }
                          });
    registry_.add_hist_fn("sync.barrier_episode_hist",
                          [this](sim::LogHistogram& out) {
                            for (const auto& h : sync_hists_) {
                              out += h.barrier_episode;
                            }
                          });
  }
}

void Machine::spawn(sim::CpuId c,
                    std::function<sim::Task<void>(ThreadCtx&)> body) {
  if (c >= config_.num_cpus) throw std::out_of_range("spawn: bad cpu id");
  ++pending_;
  // Keep the functor alive for the coroutine's lifetime, then start it
  // through the event queue for deterministic interleaving.
  bodies_.push_back(std::move(body));
  auto& stored = bodies_.back();
  domains_.engine_for_node(c / config_.cpus_per_node)
      .schedule(0, [this, c, &stored] {
        sim::detach(stored(*ctxs_[c]), [this] {
          pending_.fetch_sub(1, std::memory_order_relaxed);
        });
      });
}

void Machine::run() {
  // Conservative lookahead: no packet injected at t can reach another
  // node before t + min_cross_latency (>= two cheapest links plus
  // minimum-packet serialization). Domains partition whole nodes, so
  // this bounds all cross-domain influence.
  const sim::Cycle lookahead = network_->min_cross_latency();
  assert(domains_.count() == 1 || lookahead > 0);
  domains_.run(lookahead);
  if (pending_threads() != 0) {
    std::ostringstream oss;
    oss << "Machine::run: event queue drained with " << pending_threads()
        << " thread(s) still blocked (deadlock)";
    throw std::runtime_error(oss.str());
  }
}

mem::Backing& Machine::backing(sim::Addr addr) {
  return backings_[domains_.domain_of(coh::home_of(addr))];
}

MachineStats Machine::stats() const {
  MachineStats s;
  s.net = network_->stats();
  s.local = wiring_->local_stats();
  s.events = domains_.total_events_executed();
  s.cycles = domains_.max_now();
  for (const auto& d : dirs_) {
    const coh::DirStats& ds = d->stats();
    s.dir.gets += ds.gets;
    s.dir.getx += ds.getx;
    s.dir.upgrades += ds.upgrades;
    s.dir.putbacks += ds.putbacks;
    s.dir.invals_sent += ds.invals_sent;
    s.dir.recalls_sent += ds.recalls_sent;
    s.dir.word_gets += ds.word_gets;
    s.dir.word_puts += ds.word_puts;
    s.dir.word_updates_sent += ds.word_updates_sent;
    s.dir.uncached_reads += ds.uncached_reads;
    s.dir.uncached_writes += ds.uncached_writes;
    s.dir.deferred += ds.deferred;
  }
  for (const auto& c : cores_) {
    const coh::CacheCtrlStats& cs = c->cache().stats();
    s.cache.loads += cs.loads;
    s.cache.stores += cs.stores;
    s.cache.ll += cs.ll;
    s.cache.sc_success += cs.sc_success;
    s.cache.sc_fail += cs.sc_fail;
    s.cache.atomics += cs.atomics;
    s.cache.miss_gets += cs.miss_gets;
    s.cache.miss_getx += cs.miss_getx;
    s.cache.miss_upgrade += cs.miss_upgrade;
    s.cache.recalls += cs.recalls;
    s.cache.invals += cs.invals;
    s.cache.word_updates += cs.word_updates;
    s.cache.writebacks += cs.writebacks;
    const mem::CacheStats& l2 = c->cache().l2().stats();
    s.l2.hits += l2.hits;
    s.l2.misses += l2.misses;
    s.l2.evictions += l2.evictions;
    s.l2.dirty_evictions += l2.dirty_evictions;
    s.l2.invals_received += l2.invals_received;
    s.l2.word_updates += l2.word_updates;
  }
  for (const auto& a : amus_) {
    const amu::AmuStats& as = a->stats();
    s.amu.ops += as.ops;
    s.amu.amo_ops += as.amo_ops;
    s.amu.mao_ops += as.mao_ops;
    s.amu.cache_hits += as.cache_hits;
    s.amu.cache_misses += as.cache_misses;
    s.amu.evictions += as.evictions;
    s.amu.puts += as.puts;
    s.amu.queue_depth += as.queue_depth;
  }
  for (const auto& sv : servers_) {
    const cpu::AmServerStats& ss = sv->stats();
    s.am.requests += ss.requests;
    s.am.duplicates += ss.duplicates;
    s.am.replays += ss.replays;
    s.am.handled += ss.handled;
  }
  return s;
}

void MachineStats::print(std::ostream& os) const {
  os << "cycles=" << cycles << " events=" << events << '\n'
     << "net: packets=" << net.packets << " bytes=" << net.bytes
     << " hops=" << net.hops << " avg_lat=" << std::fixed
     << std::setprecision(1) << net.latency.mean() << '\n'
     << "local: messages=" << local.messages << '\n'
     << "dir: gets=" << dir.gets << " getx=" << dir.getx
     << " upg=" << dir.upgrades << " inv=" << dir.invals_sent
     << " recall=" << dir.recalls_sent << " wget=" << dir.word_gets
     << " wput=" << dir.word_puts << " wupd=" << dir.word_updates_sent
     << " defer=" << dir.deferred << '\n'
     << "cache: ld=" << cache.loads << " st=" << cache.stores
     << " ll=" << cache.ll << " sc+=" << cache.sc_success
     << " sc-=" << cache.sc_fail << " atomic=" << cache.atomics
     << " missS=" << cache.miss_gets << " missX=" << cache.miss_getx
     << " upg=" << cache.miss_upgrade << '\n'
     << "amu: ops=" << amu.ops << " (amo=" << amu.amo_ops
     << " mao=" << amu.mao_ops << ") hit=" << amu.cache_hits
     << " miss=" << amu.cache_misses << " puts=" << amu.puts << '\n'
     << "am: req=" << am.requests << " dup=" << am.duplicates
     << " handled=" << am.handled << '\n';
}

std::uint64_t Machine::peek_word(sim::Addr addr) const {
  const sim::Addr block =
      addr & ~static_cast<sim::Addr>(config_.line_bytes() - 1);
  const coh::Directory& d = *dirs_[coh::home_of(addr)];
  if (d.state_of(block) == coh::Directory::State::kExclusive) {
    const sim::CpuId owner = d.owner_of(block);
    const mem::Cache& l2 = cores_[owner]->cache().l2();
    const mem::Cache::Line* line = l2.peek(addr);
    if (line != nullptr) {
      return l2.words(*line)[(addr - block) / 8];
    }
  }
  const amu::Amu& a = *amus_[coh::home_of(addr)];
  if (a.holds_word(addr)) return a.peek_word(addr);
  // const_cast: Backing lazily materializes zero-filled lines.
  return const_cast<Machine*>(this)->backing(addr).read_word(addr);
}

void Machine::check_coherence() const {
  if (!domains_.all_idle()) {
    throw std::logic_error("check_coherence: engine not quiescent");
  }
  struct Copy {
    sim::CpuId cpu;
    mem::LineState state;
  };
  std::unordered_map<sim::Addr, std::vector<Copy>> copies;
  for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
    cores_[c]->cache().l2().for_each_line([&](const mem::Cache::Line& line) {
      copies[line.block].push_back(Copy{c, line.state});
    });
  }
  for (const auto& [block, list] : copies) {
    const sim::NodeId home = coh::home_of(block);
    const coh::Directory& d = *dirs_[home];
    if (d.busy(block)) {
      throw std::logic_error("coherence: busy block at quiescence");
    }
    std::uint32_t exclusive_copies = 0;
    for (const Copy& cp : list) {
      if (cp.state == mem::LineState::kModified ||
          cp.state == mem::LineState::kExclusive) {
        ++exclusive_copies;
        if (d.state_of(block) != coh::Directory::State::kExclusive ||
            d.owner_of(block) != cp.cpu) {
          throw std::logic_error(
              "coherence: M/E copy not matching directory owner");
        }
      } else {
        if (!d.is_sharer(block, cp.cpu)) {
          throw std::logic_error(
              "coherence: S copy not in directory sharer list");
        }
      }
    }
    if (exclusive_copies > 1 ||
        (exclusive_copies == 1 && list.size() > 1)) {
      throw std::logic_error("coherence: multiple writers / mixed copies");
    }
  }
}

}  // namespace amo::core
