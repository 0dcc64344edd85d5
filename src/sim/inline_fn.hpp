// InlineFn: a small-buffer-optimized, move-only replacement for
// std::function<void()> on the event-queue hot path.
//
// Every simulated event — a coroutine resume, a network hop, a DRAM
// completion — is a small capture (a coroutine handle, a couple of
// pointers). std::function heap-allocates many of these and drags in
// copyability requirements; InlineFn stores any nothrow-movable callable
// of up to kInlineBytes directly in the event-queue slot and only falls
// back to the heap for oversized or throwing-move captures.
//
// InlineFnT<Args...> generalizes the same storage scheme to callbacks
// that take arguments (multicast delivery takes a NodeId, AMO replies
// take the old word value); InlineFn is the nullary alias the event
// queue uses.
//
// The oversized fallback boxes the callable through FramePool, not the
// global allocator: AMO requests ride the network inside closures that
// carry a nested reply InlineFn (well past 48 bytes), and pooling their
// boxes keeps steady-state AMO traffic allocation-free too.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/frame_pool.hpp"

namespace amo::sim {

template <typename... Args>
class InlineFnT {
 public:
  /// Inline storage size. 48 bytes holds the biggest hot-path captures
  /// (Engine::DelayAwaiter resumes, network deliver closures: a handle
  /// plus a few pointers/integers) with room to spare; anything larger is
  /// a cold-path construction and may heap-allocate.
  static constexpr std::size_t kInlineBytes = 48;

  InlineFnT() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFnT> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&,
                                      Args...>>>
  InlineFnT(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                      // std::function at every schedule() call site
    using Fn = std::remove_cvref_t<F>;
    // A raw move copies the whole buffer, so the bytes past the
    // callable's state are zeroed here (a size fixed per type) rather
    // than copied uninitialized on every relocation.
    constexpr std::size_t live = !fits_inline<Fn>()    ? sizeof(Fn*)
                                 : std::is_empty_v<Fn> ? 0
                                                       : sizeof(Fn);
    __builtin_memset(buf_ + live, 0, kInlineBytes - live);
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* box = FramePool::allocate(sizeof(Fn));
      try {
        ::new (box) Fn(std::forward<F>(f));
      } catch (...) {
        FramePool::deallocate(box, sizeof(Fn));
        throw;
      }
      ::new (static_cast<void*>(buf_)) Fn*(static_cast<Fn*>(box));
      ops_ = &kHeapOps<Fn>;
    }
  }

  // Moves are the event queue's hottest operation (every vector growth and
  // pop relocates events). Most captures are trivially copyable (handles,
  // pointers, ints); for those — and for the heap fallback, which only
  // relocates a pointer — `relocate` is null and a branch-predictable
  // fixed-size copy of the buffer suffices.
  InlineFnT(InlineFnT&& o) noexcept { take(o); }

  InlineFnT& operator=(InlineFnT&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }

  InlineFnT(const InlineFnT&) = delete;
  InlineFnT& operator=(const InlineFnT&) = delete;

  ~InlineFnT() { reset(); }

  void operator()(Args... args) {
    ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when the held callable lives in the inline buffer (no heap).
  /// Exposed so tests can pin down the SBO boundary.
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->heap_held == false;
  }

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage, Args... args);
    // Move-construct into `dst` from `src`, then destroy the source; null
    // when a raw copy of the inline buffer does the same thing.
    void (*relocate)(void* dst, void* src) noexcept;
    // Destroy the held callable; null when destruction is a no-op.
    void (*destroy)(void* storage) noexcept;
    bool heap_held;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s, Args... args) {
        (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* from = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*from));
              from->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) noexcept {
              std::launder(reinterpret_cast<Fn*>(s))->~Fn();
            },
      /*heap_held=*/false,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s, Args... args) {
        (**std::launder(reinterpret_cast<Fn**>(s)))(
            std::forward<Args>(args)...);
      },
      nullptr,  // relocating the owning pointer is a raw copy
      [](void* s) noexcept {
        Fn* p = *std::launder(reinterpret_cast<Fn**>(s));
        p->~Fn();
        FramePool::deallocate(p, sizeof(Fn));
      },
      /*heap_held=*/true,
  };

  /// Moves `o`'s callable into this (empty) object and empties `o`.
  void take(InlineFnT& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, o.buf_);
    } else {
      __builtin_memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

using InlineFn = InlineFnT<>;

}  // namespace amo::sim
