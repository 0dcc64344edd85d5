// Layer probes: each times one public entry point in isolation and reports
// host nanoseconds per call (median of several rounds). Multiplied by a
// workload's matching counter, a probe estimates that layer's share of
// the workload's sim.run time in host-independent units.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "cells.hpp"
#include "core/machine.hpp"
#include "mem/cache.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

namespace core = amo::core;
namespace sim = amo::sim;

constexpr int kRounds = 7;

// Keeps probe loops' results observable.
volatile std::uint64_t g_sink = 0;

// Median over rounds of (host ns of one round) / ops, where `round` does
// `ops` calls and returns nothing the optimizer could drop.
double ns_per_op(int ops, const std::function<void()>& round) {
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    round();
    const Clock::time_point t1 = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 ops);
  }
  std::nth_element(ns.begin(), ns.begin() + kRounds / 2, ns.end());
  return ns[kRounds / 2];
}

core::SystemConfig probe_config(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  return cfg;
}

// Engine::schedule + run: the bare event dispatch cost, as a hold model
// (every event schedules one successor) with the queue at a steady depth
// of the order the workloads keep pending.
double probe_event() {
  constexpr int kPending = 1024;
  constexpr int kEvents = 200000;
  sim::Engine engine;
  sim::Rng rng(1);
  int left = 0;
  std::function<void()> hold = [&] {
    if (--left >= kPending) {
      engine.schedule(1 + rng.below(256), [&hold] { hold(); });
    }
  };
  return ns_per_op(kEvents, [&] {
    left = kEvents;
    for (int i = 0; i < kPending; ++i) {
      engine.schedule(1 + rng.below(256), [&hold] { hold(); });
    }
    engine.run();
  });
}

// Network::send of one 32-byte request between mixed node pairs, through
// delivery.
double probe_send() {
  constexpr int kPackets = 50000;
  core::Machine m(probe_config(64));
  const std::uint32_t nodes = m.num_nodes();
  std::uint64_t delivered = 0;
  return ns_per_op(kPackets, [&] {
    for (int i = 0; i < kPackets; ++i) {
      const auto src = static_cast<sim::NodeId>(i % nodes);
      auto dst = static_cast<sim::NodeId>((i * 7 + 1) % nodes);
      if (dst == src) dst = (dst + 1) % nodes;
      m.network().send(amo::net::Packet{src, dst, amo::net::MsgClass::kRequest,
                                        32, [&delivered] { ++delivered; }});
    }
    m.engine().run();
  });
}

// Directory::word_get / word_put on words the home AMU holds (so puts run
// the full pipeline slot), alternating get and put.
double probe_dir_word_op() {
  constexpr int kOps = 40000;
  constexpr int kWords = 8;
  core::Machine m(probe_config(4));
  std::vector<sim::Addr> words;
  for (int w = 0; w < kWords; ++w) {
    words.push_back(m.galloc().alloc_word_line(0));
    amo::amu::AmoRequest req;
    req.addr = words.back();
    req.reply = [](std::uint64_t) {};
    m.amu(0).submit(std::move(req));
  }
  m.engine().run();
  std::uint64_t got = 0;
  return ns_per_op(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      const sim::Addr a = words[static_cast<std::size_t>(i % kWords)];
      if (i % 2 == 1) {
        m.dir(0).word_put(a, static_cast<std::uint64_t>(i));
      } else {
        m.dir(0).word_get(a, [&got](std::uint64_t) { ++got; });
      }
    }
    m.engine().run();
  });
}

// Cache::find + read_word hits over a full default L2.
double probe_cache_hit() {
  constexpr int kOps = 400000;
  const amo::mem::CacheGeometry geom = core::SystemConfig{}.cache.l2;
  amo::mem::Cache cache(geom);
  std::vector<std::uint64_t> words(geom.line_bytes / 8, 7);
  const std::uint32_t lines = geom.num_sets() * geom.ways;
  for (std::uint32_t i = 0; i < lines; ++i) {
    (void)cache.insert(static_cast<sim::Addr>(i) * geom.line_bytes,
                       amo::mem::LineState::kShared, words);
  }
  std::uint64_t sum = 0;
  const double ns = ns_per_op(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      const auto addr = static_cast<sim::Addr>(
          (static_cast<std::uint64_t>(i) * 40503 % lines) * geom.line_bytes +
          (i % 16) * 8);
      sum += cache.read_word(*cache.find(addr), addr);
    }
  });
  g_sink = sum;
  return ns;
}

// Amu::submit of a cached amo.inc, through its reply.
double probe_amu_submit() {
  constexpr int kOps = 40000;
  core::Machine m(probe_config(4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::uint64_t replies = 0;
  return ns_per_op(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      amo::amu::AmoRequest req;
      req.addr = a;
      req.reply = [&replies](std::uint64_t) { ++replies; };
      m.amu(0).submit(std::move(req));
    }
    m.engine().run();
  });
}

// ThreadCtx::load hits: one simulated thread re-reading a cached word.
double probe_load_hit() {
  constexpr int kLoads = 100000;
  core::Machine m(probe_config(4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  return ns_per_op(kLoads, [&] {
    m.spawn(0, [a](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < kLoads; ++i) (void)co_await t.load(a);
    });
    m.run();
  });
}

}  // namespace

amo::sim::Json run_probes() {
  sim::Json j = sim::Json::object();
  j["sim.probe.event_ns"] = probe_event();
  j["net.probe.send_ns"] = probe_send();
  j["coh.probe.dir_word_op_ns"] = probe_dir_word_op();
  j["mem.probe.cache_hit_ns"] = probe_cache_hit();
  j["amu.probe.submit_ns"] = probe_amu_submit();
  j["cpu.probe.load_hit_ns"] = probe_load_hit();
  return j;
}

}  // namespace perfbench
