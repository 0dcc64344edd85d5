// Spin-wait virtualization knobs.
//
// Cached spins always quiesce: they park on the cache controller and
// wake only on coherence events (sync/spin.hpp), so they need no knob.
// The knobs below cover uncached (MAO-style) spins, which by default
// genuinely poll, and LL/SC retry loops; the watch settings trade those
// polls for directory wake events.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace amo::core {

struct SpinConfig {
  /// Route uncached (MAO-style) spin polls through the home directory's
  /// word-watch: register once with the last-seen value, wake on the next
  /// uncached/AMU write to the word. Polls elided between wakes are
  /// counted in the per-cpu spin stats.
  bool uncached_watch = false;

  /// Liveness fallback re-poll period while an uncached word-watch is
  /// registered (covers watch-table overflow or wake loss; ABA on
  /// non-monotonic words).
  sim::Cycle watch_repoll_cycles = 1u << 16;

  /// After this many consecutive LL/SC or CAS retry failures, wait for
  /// home-node activity on the block (word-watch ping) before retrying
  /// instead of re-fetching immediately. 0 = retry immediately (default,
  /// paper-parity).
  std::uint32_t llsc_watch_after = 0;
};

}  // namespace amo::core
