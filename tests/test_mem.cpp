// Unit tests for the memory substrate: backing store, DRAM timing, the
// set-associative cache, and the L1 tag filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "mem/backing.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/engine.hpp"

namespace amo::mem {
namespace {

TEST(Backing, FirstTouchReadsZero) {
  Backing b(128);
  EXPECT_EQ(b.read_word(0x1000), 0u);
  const auto& line = b.read_line(0x2000);
  for (std::uint64_t w : line) EXPECT_EQ(w, 0u);
  EXPECT_EQ(line.size(), 16u);  // 128B / 8
}

TEST(Backing, WordReadWriteRoundTrip) {
  Backing b(128);
  b.write_word(0x1008, 77);
  EXPECT_EQ(b.read_word(0x1008), 77u);
  EXPECT_EQ(b.read_word(0x1000), 0u);  // neighbours untouched
}

TEST(Backing, LineWriteReadRoundTrip) {
  Backing b(128);
  std::vector<std::uint64_t> line(16);
  for (int i = 0; i < 16; ++i) line[i] = 100 + i;
  b.write_line(0x4000, line);
  EXPECT_EQ(b.read_word(0x4000), 100u);
  EXPECT_EQ(b.read_word(0x4078), 115u);
}

TEST(Backing, AddressHelpers) {
  Backing b(128);
  EXPECT_EQ(b.line_base(0x1234), 0x1200u);
  EXPECT_EQ(b.word_index(0x1238), 7u);
  EXPECT_EQ(b.words_per_line(), 16u);
}

TEST(Dram, LatencyAndOccupancy) {
  sim::Engine e;
  Dram d(e, DramConfig{60, 8});
  // Two back-to-back accesses: the second queues behind the first's
  // channel occupancy.
  EXPECT_EQ(d.access(), 60u);
  EXPECT_EQ(d.access(), 8u + 60u);
  EXPECT_EQ(d.accesses(), 2u);
}

TEST(Dram, OccupancyDrains) {
  sim::Engine e;
  Dram d(e, DramConfig{60, 8});
  (void)d.access();
  e.schedule(1000, [] {});
  e.run();
  EXPECT_EQ(d.access(), e.now() + 60u);
}

CacheGeometry tiny_cache() {
  // 4 sets x 2 ways x 128B lines.
  return CacheGeometry{4 * 2 * 128, 2, 128};
}

std::vector<std::uint64_t> words(std::uint64_t v) {
  return std::vector<std::uint64_t>(16, v);
}

TEST(Cache, GeometryDerivesSets) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.geometry().num_sets(), 4u);
  EXPECT_EQ(c.line_base(0x1281), 0x1280u);
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.find(0x1000), nullptr);
  EXPECT_EQ(c.stats().misses, 1u);
  c.insert(0x1000, LineState::kShared, words(5));
  Cache::Line* line = c.find(0x1008);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.read_word(*line, 0x1008), 5u);
}

TEST(Cache, InsertEvictsLru) {
  Cache c(tiny_cache());  // 2 ways per set
  // Three blocks mapping to set 0: 0x0000, 0x0800 (4 sets*128=512... use
  // stride sets*line = 512).
  c.insert(0x0000, LineState::kShared, words(1));
  c.insert(0x0200, LineState::kShared, words(2));
  (void)c.find(0x0000);  // touch: 0x0200 becomes LRU
  auto victim = c.insert(0x0400, LineState::kShared, words(3));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, 0x0200u);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_NE(c.find(0x0000), nullptr);
  EXPECT_NE(c.find(0x0400), nullptr);
  EXPECT_EQ(c.find(0x0200), nullptr);
}

TEST(Cache, PinnedLinesSurviveVictimSelection) {
  Cache c(tiny_cache());
  c.insert(0x0000, LineState::kShared, words(1));
  c.insert(0x0200, LineState::kShared, words(2));
  c.find(0x0000, /*touch=*/false)->pinned = true;
  (void)c.find(0x0200);  // make 0x0000 the LRU — but it is pinned
  auto victim = c.insert(0x0400, LineState::kShared, words(3));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, 0x0200u);
  EXPECT_NE(c.find(0x0000, false), nullptr);
}

TEST(Cache, DirtyEvictionReturnsData) {
  Cache c(tiny_cache());
  c.insert(0x0000, LineState::kModified, words(9));
  c.insert(0x0200, LineState::kShared, words(2));
  (void)c.find(0x0200);  // 0x0000 is LRU
  auto victim = c.insert(0x0400, LineState::kShared, words(3));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->state, LineState::kModified);
  EXPECT_EQ(victim->data[0], 9u);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(tiny_cache());
  c.insert(0x1000, LineState::kExclusive, words(4));
  auto victim = c.invalidate(0x1008);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->state, LineState::kExclusive);
  EXPECT_EQ(c.find(0x1000, false), nullptr);
  EXPECT_EQ(c.stats().invals_received, 1u);
  EXPECT_FALSE(c.invalidate(0x1000).has_value());
}

TEST(Cache, WordWriteInPlace) {
  Cache c(tiny_cache());
  c.insert(0x1000, LineState::kShared, words(0));
  Cache::Line* line = c.find(0x1000);
  c.write_word(*line, 0x1010, 42);
  EXPECT_EQ(c.read_word(*line, 0x1010), 42u);
  EXPECT_EQ(c.read_word(*line, 0x1008), 0u);
}

TEST(Cache, ForEachLineVisitsValidOnly) {
  Cache c(tiny_cache());
  c.insert(0x1000, LineState::kShared, words(1));
  c.insert(0x2000, LineState::kModified, words(2));
  c.invalidate(0x1000);
  int count = 0;
  c.for_each_line([&](const Cache::Line& line) {
    ++count;
    EXPECT_EQ(line.block, 0x2000u);
  });
  EXPECT_EQ(count, 1);
}

// Oracle for the differential test below: the flat set/way layout the
// cache used before its storage became resident-only — every set's ways
// preallocated in one set-major array, payloads in a parallel array.
class FlatCache {
 public:
  struct Line {
    sim::Addr block = 0;
    LineState state = LineState::kInvalid;
    bool pinned = false;
    std::uint64_t lru = 0;
  };

  explicit FlatCache(const CacheGeometry& g)
      : g_(g),
        wpl_(g.line_bytes / 8),
        lines_(static_cast<std::size_t>(g.num_sets()) * g.ways),
        words_(lines_.size() * wpl_) {}

  Line* find(sim::Addr addr, bool touch) {
    const sim::Addr block = addr & ~static_cast<sim::Addr>(g_.line_bytes - 1);
    Line* base = set_base(block);
    for (std::uint32_t w = 0; w < g_.ways; ++w) {
      if (base[w].state != LineState::kInvalid && base[w].block == block) {
        if (touch) {
          base[w].lru = ++clock_;
          ++stats_.hits;
        }
        return &base[w];
      }
    }
    if (touch) ++stats_.misses;
    return nullptr;
  }

  std::optional<Cache::Victim> insert(sim::Addr block, LineState state,
                                      std::span<const std::uint64_t> data) {
    Line* base = set_base(block);
    Line* slot = nullptr;
    for (std::uint32_t w = 0; w < g_.ways && slot == nullptr; ++w) {
      if (base[w].state == LineState::kInvalid) slot = &base[w];
    }
    std::optional<Cache::Victim> victim;
    if (slot == nullptr) {
      for (std::uint32_t w = 0; w < g_.ways; ++w) {
        if (base[w].pinned) continue;
        if (slot == nullptr || base[w].lru < slot->lru) slot = &base[w];
      }
      victim.emplace(Cache::Victim{slot->block, slot->state,
                                   LineBuf(words(*slot))});
      ++stats_.evictions;
      if (slot->state == LineState::kModified) ++stats_.dirty_evictions;
    }
    *slot = Line{block, state, false, ++clock_};
    std::copy(data.begin(), data.end(), payload(*slot));
    return victim;
  }

  std::optional<Cache::Victim> invalidate(sim::Addr addr) {
    Line* line = find(addr, false);
    if (line == nullptr) return std::nullopt;
    ++stats_.invals_received;
    Cache::Victim v{line->block, line->state, LineBuf(words(*line))};
    line->state = LineState::kInvalid;
    line->pinned = false;
    return v;
  }

  std::span<const std::uint64_t> words(const Line& line) const {
    return {words_.data() + index(line) * wpl_, wpl_};
  }
  std::uint64_t* payload(const Line& line) {
    return words_.data() + index(line) * wpl_;
  }
  std::uint32_t pinned_in_set(sim::Addr block) {
    const Line* base = set_base(block);
    return static_cast<std::uint32_t>(std::count_if(
        base, base + g_.ways, [](const Line& l) { return l.pinned; }));
  }
  const CacheStats& stats() const { return stats_; }

  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (const Line& line : lines_) {
      if (line.state != LineState::kInvalid) fn(line);
    }
  }

 private:
  Line* set_base(sim::Addr block) {
    const std::size_t set = (block / g_.line_bytes) & (g_.num_sets() - 1);
    return lines_.data() + set * g_.ways;
  }
  std::size_t index(const Line& line) const {
    return static_cast<std::size_t>(&line - lines_.data());
  }

  CacheGeometry g_;
  std::size_t wpl_;
  std::vector<Line> lines_;
  std::vector<std::uint64_t> words_;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

using LineImage = std::tuple<sim::Addr, LineState, bool, std::uint64_t,
                             std::vector<std::uint64_t>>;

template <typename C>
std::vector<LineImage> resident_lines(const C& c) {
  std::vector<LineImage> out;
  c.for_each_line([&](const auto& l) {
    const auto w = c.words(l);
    out.emplace_back(l.block, l.state, l.pinned, l.lru,
                     std::vector<std::uint64_t>(w.begin(), w.end()));
  });
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_victim(const std::optional<Cache::Victim>& got,
                        const std::optional<Cache::Victim>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->block, want->block);
  EXPECT_EQ(got->state, want->state);
  EXPECT_EQ(got->data.view().size(), want->data.view().size());
  EXPECT_TRUE(std::equal(got->data.view().begin(), got->data.view().end(),
                         want->data.view().begin()));
}

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
  EXPECT_EQ(a.invals_received, b.invals_received);
  EXPECT_EQ(a.word_updates, b.word_updates);
}

// Randomized differential test: the resident-only cache against the flat
// oracle over inserts (with evictions), touching and non-touching finds,
// invalidations, pin/unpin, word writes and line fills. Addresses are
// drawn from a few sets (first, last, and random ones) with more tags
// than ways, so sets fill, conflict and evict. Hit/miss results, line
// metadata (LRU stamps included), victims, stats and the resident-line
// image must match after every step.
class CacheDifferential : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheDifferential, MatchesFlatOracle) {
  const CacheGeometry g = GetParam();
  Cache cache(g);
  FlatCache oracle(g);
  std::mt19937_64 rng(0x5eedcace + g.ways * 131 + g.size_bytes);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };

  const std::uint64_t sets = g.num_sets();
  std::vector<std::uint64_t> hot{0, sets - 1};
  for (int i = 0; i < 4; ++i) hot.push_back(pick(sets));
  const std::uint64_t tags = 2 * g.ways + 1;
  auto random_addr = [&] {
    const std::uint64_t set = hot[pick(hot.size())];
    const std::uint64_t block = (pick(tags) * sets + set) * g.line_bytes;
    return static_cast<sim::Addr>(block + 8 * pick(g.line_bytes / 8));
  };
  const std::size_t wpl = g.line_bytes / 8;
  auto random_words = [&] {
    std::vector<std::uint64_t> w(wpl);
    for (auto& x : w) x = rng();
    return w;
  };
  constexpr LineState kStates[] = {LineState::kShared, LineState::kExclusive,
                                   LineState::kModified};

  for (int step = 0; step < 20000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const sim::Addr addr = random_addr();
    const sim::Addr block = cache.line_base(addr);
    Cache::Line* line = cache.find(addr, /*touch=*/false);
    FlatCache::Line* want = oracle.find(addr, /*touch=*/false);
    ASSERT_EQ(line != nullptr, want != nullptr);
    switch (pick(7)) {
      case 0:
      case 1: {  // find with touch, plus a word read on hit
        line = cache.find(addr);
        want = oracle.find(addr, true);
        ASSERT_EQ(line != nullptr, want != nullptr);
        if (line != nullptr) {
          EXPECT_EQ(cache.read_word(*line, addr),
                    oracle.words(*want)[(addr - block) / 8]);
        }
        break;
      }
      case 2: {  // insert (only legal when absent)
        if (line != nullptr) break;
        const std::vector<std::uint64_t> data = random_words();
        const LineState st = kStates[pick(3)];
        expect_same_victim(cache.insert(block, st, data),
                           oracle.insert(block, st, data));
        break;
      }
      case 3:  // invalidate, present or not
        expect_same_victim(cache.invalidate(addr), oracle.invalidate(addr));
        break;
      case 4: {  // pin (leaving a way to evict) or unpin
        if (line == nullptr) break;
        const bool pin = !line->pinned &&
                         oracle.pinned_in_set(block) + 1 < g.ways;
        line->pinned = pin;
        want->pinned = pin;
        break;
      }
      case 5: {  // write_word into a resident line
        if (line == nullptr) break;
        const std::uint64_t v = rng();
        cache.write_word(*line, addr, v);
        oracle.payload(*want)[(addr - block) / 8] = v;
        break;
      }
      case 6: {  // fill_words over a resident line
        if (line == nullptr) break;
        const std::vector<std::uint64_t> data = random_words();
        cache.fill_words(*line, data);
        std::copy(data.begin(), data.end(), oracle.payload(*want));
        break;
      }
    }
    if (Cache::Line* l = cache.find(addr, false)) {
      const FlatCache::Line* o = oracle.find(addr, false);
      ASSERT_NE(o, nullptr);
      EXPECT_EQ(l->block, o->block);
      EXPECT_EQ(l->state, o->state);
      EXPECT_EQ(l->pinned, o->pinned);
      EXPECT_EQ(l->lru, o->lru);
    }
    expect_same_stats(cache.stats(), oracle.stats());
    if (step % 97 == 0) {
      ASSERT_EQ(resident_lines(cache), resident_lines(oracle));
    }
    if (HasFailure()) return;
  }
  EXPECT_EQ(resident_lines(cache), resident_lines(oracle));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(CacheGeometry{2 * 2 * 128, 2, 128},  // tinycache
                      CacheGeometry{},                     // default 4-way
                      CacheGeometry{256 * 1024, 8, 128}),  // 8-way
    [](const ::testing::TestParamInfo<CacheGeometry>& info) {
      return std::to_string(info.param.ways) + "way_" +
             std::to_string(info.param.num_sets()) + "sets";
    });

TEST(TagCache, ProbeFillInvalidate) {
  TagCache t(tiny_cache());
  EXPECT_FALSE(t.probe(0x1000));
  t.fill(0x1000);
  EXPECT_TRUE(t.probe(0x1008));  // same line
  t.invalidate(0x1000);
  EXPECT_FALSE(t.probe(0x1000));
}

TEST(TagCache, LruDisplacement) {
  TagCache t(tiny_cache());  // 2 ways
  t.fill(0x0000);
  t.fill(0x0200);
  EXPECT_TRUE(t.probe(0x0000));  // touch
  t.fill(0x0400);                // displaces 0x0200
  EXPECT_TRUE(t.probe(0x0000));
  EXPECT_TRUE(t.probe(0x0400));
  EXPECT_FALSE(t.probe(0x0200));
}

TEST(TagCache, RefillingResidentLineIsIdempotent) {
  TagCache t(tiny_cache());
  t.fill(0x0000);
  t.fill(0x0000);
  t.fill(0x0200);
  EXPECT_TRUE(t.probe(0x0000));
  EXPECT_TRUE(t.probe(0x0200));
}

}  // namespace
}  // namespace amo::mem
