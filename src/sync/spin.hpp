// Spin-wait helpers.
//
// Cached spinning is event-driven: after a poll that does not satisfy the
// condition, the waiter parks on the cache controller's per-line spin
// slot and re-polls only when a coherence event touches the line
// (invalidation, data fill, word update, eviction, local write). No timer
// is needed: the poll and the park happen in the same event, and every
// path that can change the cached word notifies the slot, so waiting
// costs zero events until the wake-up arrives. The parked registration
// is persistent — a spin woken K times holds exactly one entry, not K —
// which keeps simulation cost proportional to coherence traffic, as a
// real spinner's cost to the machine is.
#pragma once

#include "core/thread_ctx.hpp"
#include "sim/task.hpp"

namespace amo::sync {

/// Spins on a *cacheable* word until `done(value)`; returns the final
/// value. The spinning itself is free of network traffic while the copy
/// stays valid — exactly the conventional-barrier behaviour the paper
/// analyses.
template <typename DoneFn>
sim::Task<std::uint64_t> spin_cached_until(core::ThreadCtx& t, sim::Addr addr,
                                           DoneFn done) {
  std::uint64_t v = co_await t.load(addr);
  if (done(v)) co_return v;
  auto& cache = t.core().cache();
  for (;;) {
    co_await cache.park(addr);
    ++t.spin_stats().parked_wakes;
    v = co_await t.load(addr);
    if (done(v)) {
      cache.unpark(addr);
      co_return v;
    }
  }
}

/// Spins with *uncached* loads (MAO-style: every poll is a remote access)
/// with a backoff between polls computed from the last value.
template <typename DoneFn, typename BackoffFn>
sim::Task<std::uint64_t> spin_uncached_until(core::ThreadCtx& t,
                                             sim::Addr addr, DoneFn done,
                                             BackoffFn backoff) {
  for (;;) {
    const std::uint64_t v = co_await t.uncached_load(addr);
    if (done(v)) co_return v;
    const sim::Cycle wait = backoff(v);
    if (wait > 0) co_await t.delay(wait);
  }
}

}  // namespace amo::sync
