// Unit tests for the machine-readable stats pipeline: the Json document
// type (dump/parse round-trip, stable key order) and the StatsRegistry.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "sim/stats_registry.hpp"

namespace amo::sim {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  // Integral-valued doubles stay recognizably floating-point.
  EXPECT_EQ(Json(8.0).dump(), "8.0");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, LargeUint64IsExact) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(Json(big).dump(), "18446744073709551615");
  EXPECT_EQ(Json::parse("18446744073709551615").as_uint(), big);
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
  EXPECT_EQ(Json::parse("\"a\\u0041\\n\"").as_string(), "aA\n");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mango"]["nested"] = 3;
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":{\"nested\":3}}");
}

TEST(Json, ArrayAndFindPath) {
  Json j = Json::object();
  j["xs"].push_back(1);
  j["xs"].push_back("two");
  j["a"]["b"]["c"] = 9;
  EXPECT_EQ(j["xs"].size(), 2u);
  ASSERT_NE(j.find_path("a.b.c"), nullptr);
  EXPECT_EQ(j.find_path("a.b.c")->as_uint(), 9u);
  EXPECT_EQ(j.find_path("a.b.missing"), nullptr);
}

TEST(Json, RoundTripIsStable) {
  Json j = Json::object();
  j["name"] = "table2";
  j["count"] = std::uint64_t{123456789};
  j["neg"] = -5;
  j["ratio"] = 0.1;
  j["flag"] = true;
  j["nothing"] = nullptr;
  j["list"].push_back(1);
  j["list"].push_back(2.5);
  j["nested"]["k"] = "v";
  const std::string once = j.dump();
  const Json back = Json::parse(once);
  EXPECT_EQ(back, j);
  EXPECT_EQ(back.dump(), once);
  // Pretty output parses back to the same document too.
  EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{'a':1}"), std::runtime_error);
}

TEST(Json, ParseHandlesWhitespaceAndNesting) {
  const Json j = Json::parse("  { \"a\" : [ 1 , { \"b\" : null } ] }\n");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("a").size(), 2u);
  EXPECT_TRUE(j.at("a")[1].at("b").is_null());
}

TEST(StatsRegistry, ReadsCountersLazily) {
  StatsRegistry reg;
  std::uint64_t hits = 0;
  reg.add_counter("node0.amu.cache_hits", &hits);
  EXPECT_EQ(reg.value("node0.amu.cache_hits").as_uint(), 0u);
  hits = 17;  // registry must observe the live value, not a copy
  EXPECT_EQ(reg.value("node0.amu.cache_hits").as_uint(), 17u);
}

TEST(StatsRegistry, SnapshotNestsDottedNames) {
  StatsRegistry reg;
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
  reg.add_counter("net.packets", &a);
  reg.add_counter("node0.amu.ops", &b);
  reg.add_counter("node0.dir.gets", &c);
  reg.add_fn("engine.now", [] { return std::uint64_t{99}; });
  const Json snap = reg.snapshot();
  EXPECT_EQ(snap.find_path("net.packets")->as_uint(), 1u);
  EXPECT_EQ(snap.find_path("node0.amu.ops")->as_uint(), 2u);
  EXPECT_EQ(snap.find_path("node0.dir.gets")->as_uint(), 3u);
  EXPECT_EQ(snap.find_path("engine.now")->as_uint(), 99u);
}

TEST(StatsRegistry, SnapshotJsonRoundTripsWithStableKeyOrder) {
  StatsRegistry reg;
  std::uint64_t zebra = 10;
  std::uint64_t apple = 20;
  Accum lat;
  lat.add(5);
  lat.add(15);
  reg.add_counter("z.zebra", &zebra);
  reg.add_counter("a.apple", &apple);
  reg.add_accum("a.latency", &lat);
  const Json snap = reg.snapshot();
  const std::string dumped = snap.dump();
  // Registration order, not alphabetical order.
  EXPECT_LT(dumped.find("zebra"), dumped.find("apple"));
  // Round-trip: parse(dump) == original, and re-dump is byte-identical.
  EXPECT_EQ(Json::parse(dumped), snap);
  EXPECT_EQ(Json::parse(dumped).dump(), dumped);
  // Two snapshots of unchanged counters serialize identically.
  EXPECT_EQ(reg.snapshot().dump(), dumped);
}

TEST(StatsRegistry, AccumSerializesDistribution) {
  StatsRegistry reg;
  Accum acc;
  acc.add(10);
  acc.add(20);
  acc.add(30);
  reg.add_accum("net.latency", &acc);
  const Json j = reg.value("net.latency");
  EXPECT_EQ(j.at("count").as_uint(), 3u);
  EXPECT_EQ(j.at("sum").as_uint(), 60u);
  EXPECT_EQ(j.at("min").as_uint(), 10u);
  EXPECT_EQ(j.at("max").as_uint(), 30u);
  EXPECT_DOUBLE_EQ(j.at("mean").as_double(), 20.0);
  EXPECT_NEAR(j.at("stddev").as_double(), 8.16496580927726, 1e-9);
}

TEST(StatsRegistry, DuplicateNameThrows) {
  StatsRegistry reg;
  std::uint64_t v = 0;
  reg.add_counter("x.y", &v);
  EXPECT_THROW(reg.add_counter("x.y", &v), std::logic_error);
}

TEST(StatsRegistry, UnknownNameThrows) {
  StatsRegistry reg;
  EXPECT_THROW((void)reg.value("no.such"), std::out_of_range);
}

TEST(StatsRegistry, SnapshotMatchesRootWalkOnRandomNames) {
  // Random dotted names of depth 1-4: runs under a shared prefix, groups
  // that come back after other groups, and leaves mixed with subgroups in
  // one object. Group segments (g*) and leaf segments (x*) never collide,
  // so no name is both a value and an object. The reference resolves
  // every name from the root with operator[].
  std::mt19937 rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    StatsRegistry reg;
    std::deque<std::uint64_t> values;
    std::set<std::string> used;
    std::vector<std::string> names;
    std::vector<std::string> prev;  // group segments of the last name
    while (names.size() < 120) {
      // Keep 0..all of the previous groups, then add fresh ones.
      const std::size_t keep = rng() % (prev.size() + 1);
      std::vector<std::string> groups(prev.begin(), prev.begin() + keep);
      const std::size_t depth = rng() % 4;  // group segments: 0..3
      while (groups.size() < depth) {
        groups.push_back(std::string(1, 'g') + std::to_string(rng() % 3));
      }
      groups.resize(depth);
      std::string name;
      for (const std::string& g : groups) name.append(g).append(1, '.');
      name.append(1, 'x').append(std::to_string(rng() % 6));
      if (!used.insert(name).second) continue;
      values.push_back(names.size());
      reg.add_counter(name, &values.back());
      names.push_back(name);
      prev = groups;
    }
    Json want = Json::object();
    for (std::size_t i = 0; i < names.size(); ++i) {
      Json* node = &want;
      std::size_t start = 0;
      for (std::size_t dot = names[i].find('.'); dot != std::string::npos;
           dot = names[i].find('.', start)) {
        node = &(*node)[names[i].substr(start, dot - start)];
        start = dot + 1;
      }
      (*node)[names[i].substr(start)] = Json(std::uint64_t{i});
    }
    ASSERT_EQ(reg.snapshot().dump(), want.dump()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace amo::sim
