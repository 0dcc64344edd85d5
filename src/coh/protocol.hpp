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

#include <array>
#include <bit>
#include <cstdint>

#include "sim/types.hpp"

namespace amo::coh {

/// Upper bound on processors (paper max: 256; headroom for the PDES
/// scaling smokes and the 1024–4096 CPU hierarchy sweeps beyond the
/// paper's table). Directory entries embed a kMaxCpus-wide SharerSet
/// (512 B at 4096), and update waves carry it by value through pooled
/// closures — raising this further mostly costs directory slab and
/// frame-pool bytes. Walks over a set cost the machine's CPU count, not
/// this bound (SharerSet::for_each).
inline constexpr std::uint32_t kMaxCpus = 4096;

/// A directory sharer set: one bit per CPU, packed in 64-bit words.
/// `for_each` visits the set bits below a CPU limit in ascending order,
/// reading only the limit's words and skipping clear bits a word at a
/// time, so a sharer walk costs the sharers and the machine's words
/// rather than kMaxCpus bit tests.
class SharerSet {
 public:
  void set(sim::CpuId c) { words_[c / 64] |= bit(c); }
  void reset(sim::CpuId c) { words_[c / 64] &= ~bit(c); }
  void reset() { words_.fill(0); }
  [[nodiscard]] bool test(sim::CpuId c) const {
    return (words_[c / 64] & bit(c)) != 0;
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
  /// Calls fn(cpu) for every set cpu < limit, ascending.
  template <typename F>
  void for_each(std::uint32_t limit, F&& fn) const {
    const std::uint32_t full = limit / 64;
    for (std::uint32_t w = 0; w < full; ++w) visit(w, words_[w], fn);
    if (const std::uint32_t tail = limit % 64; tail != 0) {
      visit(full, words_[full] & (bit(tail) - 1), fn);
    }
  }

 private:
  static constexpr std::uint64_t bit(sim::CpuId c) {
    return std::uint64_t{1} << (c % 64);
  }
  template <typename F>
  static void visit(std::uint32_t w, std::uint64_t bits, F& fn) {
    for (; bits != 0; bits &= bits - 1) {
      fn(static_cast<sim::CpuId>(w * 64 + std::countr_zero(bits)));
    }
  }

  static_assert(kMaxCpus % 64 == 0);
  std::array<std::uint64_t, kMaxCpus / 64> words_{};
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
