// Leak-regression and waiter-accounting properties of the spin-wait
// virtualization layer.
//
// The bugs these pin down: with_timeout used to leak its timeout callback
// (and the watcher coroutine frame) whenever the future completed first,
// and a cached spin that woke K times used to stack K stale waiters on
// the cache controller. The leak tests measure pool/queue/table sizes
// across many repetitions, so a reintroduced leak shows up as monotone
// growth rather than a one-off. The SpinWake tests cover every path that
// must wake a parked cached spin, since a missed wake is a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/machine.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"
#include "sim/timeout.hpp"
#include "sync/barrier.hpp"
#include "sync/spin.hpp"

namespace amo {
namespace {

// ------------------------------------------------ with_timeout (engine)

sim::Task<void> TimeoutOnce(sim::Engine& e, int* timeouts) {
  sim::Promise<std::uint64_t> never(e);  // intentionally never completed
  const std::optional<std::uint64_t> r =
      co_await sim::with_timeout(e, never.get_future(), 64);
  if (!r.has_value()) ++*timeouts;
}

TEST(SpinLeaks, ConsecutiveTimeoutsDoNotGrowPoolsOrQueue) {
  sim::Engine e;
  int timeouts = 0;
  const auto once = [&] {
    sim::Task<void> t = TimeoutOnce(e, &timeouts);
    e.run();
  };
  for (int i = 0; i < 8; ++i) once();  // warmup: frame slabs, timer cells
  const std::size_t slabs = sim::frame_pool_detail::slabs_held();
  const std::size_t cells = e.timer_cells_allocated();
  for (int i = 0; i < 256; ++i) once();
  EXPECT_EQ(timeouts, 8 + 256);
  EXPECT_EQ(sim::frame_pool_detail::slabs_held(), slabs)
      << "timed-out watcher frames must return to the pool";
  EXPECT_EQ(e.timer_cells_allocated(), cells)
      << "fired timeout timers must recycle their cells";
  EXPECT_EQ(e.pending_events(), 0u)
      << "nothing may linger in the ladder queue after a timeout drains";
}

sim::Task<void> CompleteOnce(sim::Engine& e, std::uint64_t* sum) {
  sim::Promise<std::uint64_t> p(e);
  e.schedule(8, [p] { p.set_value(42); });
  // Timeout far in the future: before the fix, each iteration leaked the
  // un-fired timeout callback (and its captures) until that cycle.
  const std::optional<std::uint64_t> r =
      co_await sim::with_timeout(e, p.get_future(), 1 << 20);
  EXPECT_TRUE(r.has_value());
  if (r.has_value()) *sum += *r;
}

TEST(SpinLeaks, CompletionBeforeTimeoutReleasesTheTimer) {
  sim::Engine e;
  std::uint64_t sum = 0;
  const auto once = [&] {
    sim::Task<void> t = CompleteOnce(e, &sum);
    e.run();  // also drains the canceled timer's tombstone slot
  };
  for (int i = 0; i < 8; ++i) once();
  const std::size_t slabs = sim::frame_pool_detail::slabs_held();
  const std::size_t cells = e.timer_cells_allocated();
  for (int i = 0; i < 256; ++i) once();
  EXPECT_EQ(sum, 42u * (8 + 256));
  EXPECT_EQ(sim::frame_pool_detail::slabs_held(), slabs);
  EXPECT_EQ(e.timer_cells_allocated(), cells)
      << "cancel() must release the cell even though the queue slot "
         "fires later as a tombstone";
  EXPECT_EQ(e.pending_events(), 0u);
}

// --------------------------------------------- cached spin (machine)

// A parked spin holds exactly ONE waiter entry for its whole stretch,
// executes no events while it waits, and unparks on exit.
TEST(SpinLeaks, ParkedSpinHoldsExactlyOneWaiterAndRunsNoEvents) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr sim::Cycle kRelease = 20000;
  std::size_t max_parked = 0;
  std::size_t samples_parked = 0;
  std::size_t samples = 0;
  std::uint64_t last_executed = 0;
  std::size_t busy_gaps = 0;
  // Sample while cpu 0 is mid-spin and cpu 1 sits in one long compute.
  // Between two ticks the only event the engine may run is the tick.
  for (sim::Cycle at = 2000; at < kRelease; at += 977) {
    m.engine().schedule_at(at, [&] {
      const std::uint64_t executed = m.engine().events_executed();
      if (samples > 0 && executed != last_executed + 1) ++busy_gaps;
      last_executed = executed;
      ++samples;
      const auto& cache = m.core(0).cache();
      max_parked = std::max(max_parked, cache.parked_entries());
      if (cache.parked_entries() == 1) ++samples_parked;
    });
  }
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    const std::uint64_t v = co_await sync::spin_cached_until(
        t, flag, [](std::uint64_t x) { return x != 0; });
    EXPECT_EQ(v, 1u);
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kRelease);
    co_await t.store(flag, 1);
  });
  m.run();
  EXPECT_GE(samples, 18u);
  EXPECT_EQ(max_parked, 1u);
  EXPECT_EQ(samples_parked, samples)
      << "the registration never lapses while the spin waits";
  EXPECT_EQ(busy_gaps, 0u) << "a parked spin must cost zero events";
  EXPECT_EQ(m.core(0).cache().parked_entries(), 0u)
      << "a satisfied spin unparks its entry";
}

// Steady-state spin episodes keep the frame pool, the timer-cell pool,
// and the ladder queue at their high-water marks.
TEST(SpinLeaks, CachedSpinEpisodesReachSteadyState) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr int kWarmup = 8;
  constexpr int kEpisodes = 32;
  constexpr sim::Cycle kHold = 4000;
  std::size_t slabs = 0, cells = 0;
  bool grew = false;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      const auto goal = static_cast<std::uint64_t>(ep);
      co_await sync::spin_cached_until(
          t, flag, [goal](std::uint64_t x) { return x >= goal; });
      if (ep == kWarmup) {
        slabs = sim::frame_pool_detail::slabs_held();
        cells = t.engine().timer_cells_allocated();
      } else if (ep > kWarmup) {
        grew = grew ||
               sim::frame_pool_detail::slabs_held() != slabs ||
               t.engine().timer_cells_allocated() != cells;
      }
    }
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      co_await t.compute(kHold);
      co_await t.store(flag, static_cast<std::uint64_t>(ep));
    }
  });
  m.run();
  EXPECT_FALSE(grew)
      << "episodes past warmup must not fault new slabs or timer cells";
  EXPECT_EQ(m.engine().pending_events(), 0u);
}

// ------------------------------------------ cached-spin wake paths
//
// A parked cached spin has no timer, so a missed wake is a hang: each
// path that can change a parked spinner's word must wake it. Each test
// parks spin_cached_until on cpu 0 and checks it returns the new value.
// Remote writers sit on cpu 2 (node 1), so their traffic crosses the
// network.

struct WakeRun {
  std::uint64_t seen = 0;
  bool finished = false;
};

// A 4-CPU machine with cpu 0 spinning on `flag` (homed on node 0) until
// it reads nonzero.
void spawn_spinner(core::Machine& m, sim::Addr flag, WakeRun& run) {
  m.spawn(0, [&m, flag, &run](core::ThreadCtx& t) -> sim::Task<void> {
    run.seen = co_await sync::spin_cached_until(
        t, flag, [](std::uint64_t x) { return x != 0; });
    run.finished = true;
    EXPECT_EQ(m.core(0).cache().parked_entries(), 0u);
  });
}

constexpr sim::Cycle kWriteAt = 3000;  // well after the spinner parks

// cpu 3 also reads the flag, so cpu 0 holds a shared copy that the
// remote store must invalidate.
TEST(SpinWake, RemoteStoreInvalidatesTheLine) {
  core::SystemConfig cfg;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  WakeRun run;
  spawn_spinner(m, flag, run);
  m.spawn(3, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt / 2);
    (void)co_await t.load(flag);
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt);
    co_await t.store(flag, 5);
  });
  m.run();
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.seen, 5u);
  EXPECT_GE(m.core(0).cache().stats().invals, 1u);
}

// A lone reader is granted the line exclusive-clean, so the remote store
// recalls it instead of invalidating a shared copy.
TEST(SpinWake, RemoteStoreRecallsAnExclusiveCopy) {
  core::SystemConfig cfg;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  WakeRun run;
  spawn_spinner(m, flag, run);
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt);
    co_await t.store(flag, 5);
  });
  m.run();
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.seen, 5u);
  EXPECT_GE(m.core(0).cache().stats().recalls, 1u);
}

TEST(SpinWake, AmoUpdateWavePatchesTheCachedWord) {
  core::SystemConfig cfg;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  WakeRun run;
  spawn_spinner(m, flag, run);
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt);
    (void)co_await t.amo_inc(flag, 1);  // reaches the test value: put
  });
  m.run();
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.seen, 1u);
  const auto& st = m.core(0).cache().stats();
  EXPECT_GE(st.word_updates, 1u) << "the wave must patch cpu 0's copy";
  EXPECT_EQ(st.invals, 0u);
}

// cpu 3 also reads the flag, so cpu 0's copy is shared. cpu 0's L2 is
// one 2-way set, so a second context on cpu 0 silently drops that copy
// by loading two other lines. The directory still lists cpu 0 as a
// sharer, so the AMO update wave reaches it as a word update for a line
// it may not hold. Either the eviction wake or the absent-line branch
// of on_word_update must release the spinner; each suffices alone.
TEST(SpinWake, WordUpdateReachesASilentlyDroppedCopy) {
  core::SystemConfig cfg;
  cfg.cache.l1 = {256, 2, 128};
  cfg.cache.l2 = {256, 2, 128};
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  const sim::Addr b = m.galloc().alloc_word_line(0);
  WakeRun run;
  spawn_spinner(m, flag, run);
  m.spawn(3, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt / 4);
    (void)co_await t.load(flag);
  });
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt / 2);
    (void)co_await t.load(a);
    (void)co_await t.load(b);
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt);
    (void)co_await t.amo_inc(flag, 1);
  });
  m.run();
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.seen, 1u);
}

// A local write by another coroutine on the spinner's own cpu: no
// coherence message reaches cpu 0, only the store's own notify.
TEST(SpinWake, LocalWriteBySiblingContext) {
  core::SystemConfig cfg;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  WakeRun run;
  spawn_spinner(m, flag, run);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kWriteAt);
    co_await t.store(flag, 9);
  });
  m.run();
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.seen, 9u);
  const auto& st = m.core(0).cache().stats();
  EXPECT_EQ(st.invals, 0u);
  EXPECT_EQ(st.word_updates, 0u);
}

// --------------------------------------- uncached word-watch (machine)

TEST(SpinLeaks, UncachedWatchHoldsOneDirectoryEntry) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  cfg.spin.uncached_watch = true;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr sim::Cycle kRelease = 30000;
  std::size_t max_watches = 0;
  for (sim::Cycle at = 3000; at < kRelease; at += 977) {
    m.engine().schedule_at(at, [&] {
      max_watches = std::max(max_watches, m.dir(0).watch_entries());
    });
  }
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    const std::uint64_t v = co_await sync::spin_uncached_until(
        t, flag, [](std::uint64_t x) { return x != 0; },
        [](std::uint64_t) { return sim::Cycle{400}; });
    EXPECT_EQ(v, 1u);
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(kRelease);
    co_await t.uncached_store(flag, 1);
  });
  m.run();
  EXPECT_EQ(max_watches, 1u)
      << "one parked stretch registers exactly one home-node watcher";
  EXPECT_EQ(m.dir(0).watch_entries(), 0u)
      << "the wake-up ping flushes and erases the watch entry";
}

// ---------------------------------------- pinned barrier timing (machine)

// An 8-CPU AMO central barrier with skewed arrivals. The per-episode
// completion cycles are the values measured when cached spins still
// re-polled on a 2000-cycle fallback timer: event-driven waiting must
// not move a single simulated cycle here.
TEST(SpinLeaks, AmoBarrierEpisodeCyclesMatchPollingBaseline) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  core::Machine m(cfg);
  const std::unique_ptr<sync::Barrier> barrier =
      sync::make_central_barrier(m, sync::Mechanism::kAmo, cfg.num_cpus);
  constexpr int kEpisodes = 12;
  std::vector<sim::Cycle> done(kEpisodes, 0);
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= kEpisodes; ++ep) {
        co_await t.compute(1 + (c * 7 + static_cast<unsigned>(ep)) % 50);
        co_await barrier->wait(t);
        done[ep - 1] = std::max(done[ep - 1], t.now());
      }
    });
  }
  m.run();
  const std::vector<sim::Cycle> baseline = {
      3967,  6762,  9620,  12479, 15339, 18200,
      21062, 23925, 26789, 29654, 32520, 35387};
  EXPECT_EQ(done, baseline);
}

}  // namespace
}  // namespace amo
