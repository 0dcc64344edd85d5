// Shared protocol constants and limits for the directory coherence layer.
//
// The protocol is a home-centric blocking MESI directory (SGI Origin
// flavoured, simplified to route all data through the home):
//
//   * one transaction per block at a time; later requests queue at home
//   * GetS:    Uncached -> DataE (MESI clean-exclusive) | Shared -> Data(S)
//              Exclusive -> Recall-S owner, data via home
//   * GetX:    invalidate sharers (acks to home), recall owner, DataE
//   * Upgrade: ack-only if the requestor still shares, else degenerates
//              to GetX (the requestor lost its copy to a crossing inval)
//   * PutM/PutE: eviction notices; a putback crossing a recall is consumed
//              as the recall's data (per-(src,dst) FIFO makes this safe)
//
// Fine-grained extension (the paper's get/put):
//   * WordGet:  the local AMU becomes a word-granular sharer that may
//               modify without ownership
//   * WordPut:  word updates pushed to memory and every sharer's cache
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace amo::coh {

/// A read-only view of one sharer set: one bit per CPU, packed in 64-bit
/// words (bit c%64 of word c/64). CPUs past the view's words read as
/// clear, so an empty view is the empty set.
class SharerBits {
 public:
  explicit SharerBits(std::span<const std::uint64_t> words) : words_(words) {}

  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }
  [[nodiscard]] bool test(sim::CpuId c) const {
    return c / 64 < words_.size() && (words_[c / 64] & bit(c)) != 0;
  }
  [[nodiscard]] bool none() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint32_t count() const {
    std::uint32_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::uint32_t>(std::popcount(w));
    }
    return n;
  }
  /// Calls fn(cpu) for every set cpu, ascending, skipping clear bits a
  /// word at a time: a walk costs the sharers and the machine's words.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t b = words_[w]; b != 0; b &= b - 1) {
        fn(static_cast<sim::CpuId>(w * 64 + std::countr_zero(b)));
      }
    }
  }

  static constexpr std::uint64_t bit(sim::CpuId c) {
    return std::uint64_t{1} << (c % 64);
  }

 private:
  std::span<const std::uint64_t> words_;
};

/// The sharer sets of one directory, sized to a machine of P CPUs:
/// ⌈P/64⌉ words per set. Each set is an 8-byte `Slot` in its directory
/// entry. Up to 64 CPUs the slot is the set's one word, inline. Above,
/// the slot is 0 for an empty set that holds no storage, or 1 + the index
/// of a block of words in this pool; a block is taken when the set first
/// gains a member and comes back through the free list on `release`.
/// The pool belongs to one directory, so under PDES a block is only ever
/// touched on its home domain's thread.
class SharerSets {
 public:
  using Slot = std::uint64_t;

  explicit SharerSets(std::uint32_t cpus)
      : cpus_(cpus), words_(std::max<std::uint32_t>(1, (cpus + 63) / 64)) {}

  /// Words per set: 1 up to 64 CPUs, ⌈P/64⌉ above.
  [[nodiscard]] std::uint32_t words() const { return words_; }

  /// The set's words (none for an empty pooled slot). Up to 64 CPUs the
  /// view points at the slot itself, so the slot must outlive it; above,
  /// a `set` that takes a new block may move the pool and void it.
  [[nodiscard]] SharerBits bits(const Slot& s) const {
    if (words_ == 1) return SharerBits({&s, 1});
    if (s == 0) return SharerBits({});
    return SharerBits({&pool_[(s - 1) * words_], words_});
  }
  SharerBits bits(const Slot&& s) const = delete;

  void set(Slot& s, sim::CpuId c) {
    assert(c < cpus_);
    if (words_ == 1) {
      s |= SharerBits::bit(c);
      return;
    }
    if (s == 0) s = acquire();
    pool_[(s - 1) * words_ + c / 64] |= SharerBits::bit(c);
  }

  /// Empties the set. A pooled block stays with the slot: a block that
  /// lost its sharers is usually about to gain new ones.
  void clear(Slot& s) {
    if (words_ == 1) {
      s = 0;
    } else if (s != 0) {
      std::fill_n(&pool_[(s - 1) * words_], words_, std::uint64_t{0});
    }
  }

  /// Empties the set and returns its block (if any) to the pool.
  void release(Slot& s) {
    clear(s);
    if (words_ != 1 && s != 0) {
      free_.push_back(static_cast<std::uint32_t>(s - 1));
    }
    s = 0;
  }

 private:
  /// A zeroed block's slot value.
  Slot acquire() {
    if (!free_.empty()) {
      const std::uint32_t i = free_.back();
      free_.pop_back();
      return Slot{i} + 1;
    }
    const std::size_t i = pool_.size() / words_;
    pool_.resize(pool_.size() + words_, 0);
    return Slot{i} + 1;
  }

  std::uint32_t cpus_;
  std::uint32_t words_;
  std::vector<std::uint64_t> pool_;   // blocks of words_ words
  std::vector<std::uint32_t> free_;   // released block indices
};

/// Physical address layout: the top bits name the home node. The global
/// allocator (core::GAlloc) hands out addresses as (node << shift) | offset.
inline constexpr std::uint32_t kNodeAddrShift = 32;

[[nodiscard]] inline sim::NodeId home_of(sim::Addr a) {
  return static_cast<sim::NodeId>(a >> kNodeAddrShift);
}

/// Network message payload sizing. Headers are 32 bytes (the NUMALink
/// minimum packet); data messages add the cache line; word messages add
/// one 8-byte word.
struct MsgSizes {
  std::uint32_t line_bytes;
  [[nodiscard]] std::uint32_t ctrl() const { return 32; }
  [[nodiscard]] std::uint32_t data() const { return 32 + line_bytes; }
  [[nodiscard]] std::uint32_t word() const { return 32 + 8; }
};

}  // namespace amo::coh
