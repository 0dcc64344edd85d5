// Property sweep for ds::AddrTable and ds::WaitPool against standard-
// library oracles: a long, seeded random op mix (create / find / erase,
// with enough churn to force table growth and exercise backward-shift
// deletion) must keep the table's observable contents identical to a
// std::unordered_map, and pooled FIFO queues identical to std::queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

#include "ds/addr_table.hpp"
#include "ds/ring_queue.hpp"

namespace amo::ds {
namespace {

struct Rec {
  std::uint64_t payload = 0;
  std::uint32_t next_free = kNilIndex;
};

TEST(AddrTable, MatchesUnorderedMapOracle) {
  AddrTable<Rec> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(0xA110CA7ABl);

  // Line-aligned keys from a window small enough to guarantee frequent
  // re-creation of previously erased keys (free-list reuse) and large
  // enough to push the table through several growth doublings.
  auto random_key = [&] { return (rng() % 4096) * 128; };

  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = random_key();
    switch (rng() % 4) {
      case 0: {  // create-or-touch
        const bool existed = oracle.count(key) != 0;
        Rec& r = table.get_or_create(key);
        if (existed) {
          EXPECT_EQ(r.payload, oracle[key]);
        } else {
          EXPECT_EQ(r.payload, 0u) << "fresh entry must be default-state";
          r.payload = rng() | 1;  // nonzero
          oracle[key] = r.payload;
        }
        break;
      }
      case 1: {  // lookup
        Rec* r = table.find(key);
        auto it = oracle.find(key);
        ASSERT_EQ(r != nullptr, it != oracle.end());
        if (r != nullptr) {
          EXPECT_EQ(r->payload, it->second);
        }
        break;
      }
      case 2: {  // erase (entry reset first, per the contract)
        if (Rec* r = table.find(key)) r->payload = 0;
        table.erase(key);
        oracle.erase(key);
        break;
      }
      case 3: {  // const lookup through a second key
        const std::uint64_t k2 = random_key();
        const AddrTable<Rec>& ct = table;
        const Rec* r = ct.find(k2);
        auto it = oracle.find(k2);
        ASSERT_EQ(r != nullptr, it != oracle.end());
        if (r != nullptr) {
          EXPECT_EQ(r->payload, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  // Final full sweep: every oracle key resolves with the right payload.
  for (const auto& [key, payload] : oracle) {
    Rec* r = table.find(key);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->payload, payload);
  }
}

TEST(AddrTable, EraseOfAbsentKeyIsNoop) {
  AddrTable<Rec> table;
  table.get_or_create(128).payload = 7;
  table.erase(256);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(128)->payload, 7u);
}

TEST(WaitPool, ManyInterleavedQueuesStayFifo) {
  WaitPool<std::uint64_t> pool;
  constexpr int kQueues = 8;
  WaitPool<std::uint64_t>::Queue queues[kQueues];
  std::queue<std::uint64_t> oracle[kQueues];
  std::mt19937_64 rng(42);

  for (int op = 0; op < 100000; ++op) {
    const int q = static_cast<int>(rng() % kQueues);
    if (rng() % 2 == 0) {
      const std::uint64_t v = rng();
      pool.push(queues[q], v);
      oracle[q].push(v);
    } else if (!oracle[q].empty()) {
      EXPECT_EQ(pool.pop(queues[q]), oracle[q].front());
      oracle[q].pop();
    }
    ASSERT_EQ(pool.empty(queues[q]), oracle[q].empty());
  }
  for (int q = 0; q < kQueues; ++q) {
    while (!oracle[q].empty()) {
      ASSERT_FALSE(pool.empty(queues[q]));
      EXPECT_EQ(pool.pop(queues[q]), oracle[q].front());
      oracle[q].pop();
    }
    EXPECT_TRUE(pool.empty(queues[q]));
  }
}

TEST(RingQueue, MatchesDequeOracleAcrossGrowth) {
  RingQueue<std::uint64_t> ring(4);
  std::queue<std::uint64_t> oracle;
  std::mt19937_64 rng(7);
  for (int op = 0; op < 100000; ++op) {
    // Bias toward push so the ring grows through several doublings, then
    // drain in bursts so head wraps across the boundary repeatedly.
    if (rng() % 3 != 0) {
      const std::uint64_t v = rng();
      ring.push_back(v);
      oracle.push(v);
    } else {
      for (int i = 0; i < 5 && !oracle.empty(); ++i) {
        EXPECT_EQ(ring.pop_front(), oracle.front());
        oracle.pop();
      }
    }
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
  }
  while (!oracle.empty()) {
    EXPECT_EQ(ring.pop_front(), oracle.front());
    oracle.pop();
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace amo::ds
