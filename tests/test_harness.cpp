// Benchmark-harness tests: CLI parsing, the measurement kernels' basic
// sanity, run_spec's ordering and determinism, and the table printer
// (the layer every reported number flows through).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "bench/harness.hpp"
#include "bench/registry.hpp"
#include "core/config_io.hpp"

namespace amo::bench {
namespace {

CliOptions parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return parse_cli(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()));
}

TEST(Cli, DefaultsAreEmpty) {
  const CliOptions opt = parse({});
  EXPECT_TRUE(opt.cpus.empty());
  EXPECT_EQ(opt.episodes, 0);
  EXPECT_EQ(opt.iters, 0);
  EXPECT_FALSE(opt.quick);
}

TEST(Cli, ParsesCpuList) {
  const CliOptions opt = parse({"--cpus=4,16,256"});
  EXPECT_EQ(opt.cpus, (std::vector<std::uint32_t>{4, 16, 256}));
}

TEST(Cli, ParsesSingleCpu) {
  const CliOptions opt = parse({"--cpus=32"});
  EXPECT_EQ(opt.cpus, (std::vector<std::uint32_t>{32}));
}

TEST(Cli, ParsesEpisodesItersQuick) {
  const CliOptions opt = parse({"--episodes=3", "--iters=9", "--quick"});
  EXPECT_EQ(opt.episodes, 3);
  EXPECT_EQ(opt.iters, 9);
  EXPECT_TRUE(opt.quick);
}

TEST(Cli, RejectsUnknownOption) {
  EXPECT_THROW(parse({"--bogus"}), std::runtime_error);
}

// Regression: malformed numeric values used to be silently parsed as 0
// (atoi/strtoul) and ignored; they must be hard errors.
TEST(Cli, RejectsMalformedCpuLists) {
  EXPECT_THROW(parse({"--cpus="}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=abc"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=4,x,8"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=4,,8"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=4,"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=,4"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=16x"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=-4"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=99999999999999999999"}), std::runtime_error);
}

TEST(Cli, RejectsMalformedEpisodesAndIters) {
  EXPECT_THROW(parse({"--episodes="}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=abc"}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=-3"}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=3.5"}), std::runtime_error);
  EXPECT_THROW(parse({"--iters="}), std::runtime_error);
  EXPECT_THROW(parse({"--iters=1e3"}), std::runtime_error);
  EXPECT_THROW(parse({"--iters=seven"}), std::runtime_error);
}

TEST(Cli, ParsesThreadsAndSeed) {
  const CliOptions defaults = parse({});
  EXPECT_EQ(defaults.threads, 1u);
  EXPECT_EQ(defaults.seed, 0u);
  const CliOptions opt = parse({"--threads=8", "--seed=12345"});
  EXPECT_EQ(opt.threads, 8u);
  EXPECT_EQ(opt.seed, 12345u);
}

TEST(Cli, RejectsMalformedThreadsAndSeed) {
  EXPECT_THROW(parse({"--threads="}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=abc"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=4x"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=-2"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=1000000"}), std::runtime_error);
  EXPECT_THROW(parse({"--seed="}), std::runtime_error);
  EXPECT_THROW(parse({"--seed=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--seed=xyz"}), std::runtime_error);
  EXPECT_THROW(parse({"--seed=1.5"}), std::runtime_error);
}

TEST(Cli, ErrorMessagesNameTheFlag) {
  try {
    parse({"--episodes=abc"});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--episodes"), std::string::npos);
  }
}

TEST(Cli, ParsesJsonPath) {
  const CliOptions opt = parse({"--json=/tmp/out.json"});
  EXPECT_EQ(opt.json_path, "/tmp/out.json");
  EXPECT_THROW(parse({"--json="}), std::runtime_error);
}

TEST(Cli, ParsesSetOverrides) {
  const CliOptions opt = parse({"--set=dir.three_hop=true", "--set",
                                "amu.cache_words=8"});
  ASSERT_EQ(opt.sets.size(), 2u);
  EXPECT_EQ(opt.sets[0].first, "dir.three_hop");
  EXPECT_EQ(opt.sets[0].second, "true");
  EXPECT_EQ(opt.sets[1].first, "amu.cache_words");
  EXPECT_EQ(opt.sets[1].second, "8");
  EXPECT_THROW(parse({"--set=novalue"}), std::runtime_error);
  EXPECT_THROW(parse({"--set==5"}), std::runtime_error);
  EXPECT_THROW(parse({"--set=key="}), std::runtime_error);
  EXPECT_THROW(parse({"--set"}), std::runtime_error);
}

TEST(Cli, ParsesConfigPath) {
  const CliOptions opt = parse({"--config=/tmp/cfg.json"});
  EXPECT_EQ(opt.config_path, "/tmp/cfg.json");
  EXPECT_THROW(parse({"--config="}), std::runtime_error);
}

// Regression: base_config() used to apply only --seed; --config and
// --set were accepted by some mains and silently dropped by others.
TEST(BaseConfig, AppliesConfigFileSetsAndSeedInOrder) {
  const std::string path = ::testing::TempDir() + "base_config_test.json";
  {
    std::ofstream out(path);
    out << R"({"seed": 7, "dir": {"occupancy_cycles": 21}})";
  }
  CliOptions opt;
  opt.config_path = path;
  opt.sets.emplace_back("amu.cache_words", "16");
  opt.sets.emplace_back("seed", "8");  // overrides the file...
  opt.seed = 99;                       // ...and --seed overrides --set
  const core::SystemConfig cfg = base_config(opt);
  EXPECT_EQ(cfg.dir.occupancy_cycles, 21u);
  EXPECT_EQ(cfg.amu.cache_words, 16u);
  EXPECT_EQ(cfg.seed, 99u);
  std::remove(path.c_str());
}

TEST(BaseConfig, RejectsUnknownKeysAndInvalidResults) {
  CliOptions bad_key;
  bad_key.sets.emplace_back("dir.occupnacy", "3");
  EXPECT_THROW((void)base_config(bad_key), core::ConfigError);
  CliOptions bad_value;
  bad_value.sets.emplace_back("amu.cache_words", "0");
  EXPECT_THROW((void)base_config(bad_value), core::ConfigError);
  CliOptions missing_file;
  missing_file.config_path = "/no/such/config.json";
  EXPECT_THROW((void)base_config(missing_file), std::runtime_error);
}

// --sim-threads is bounded by each cell's node count, not by the default
// 4-CPU base config's 2 nodes: K=4 fits 16-CPU cells (8 nodes), while a
// 4-CPU cell still fails validation naming the field (amo_bench exits 2).
TEST(BaseConfig, ChecksSimThreadsPerCellNotAgainstTheDefault) {
  CliOptions opt;
  opt.sim_threads = 4;
  const core::SystemConfig base = base_config(opt);
  EXPECT_EQ(base.sim_threads, 4u);

  opt.cpus = {4};
  opt.iters = 16;
  const Workload* w = WorkloadRegistry::instance().find("microbench_service");
  ASSERT_NE(w, nullptr);
  try {
    (void)run_spec(w->build(opt), base, 1);
    FAIL() << "K=4 must not validate on a 2-node cell";
  } catch (const core::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("sim_threads"), std::string::npos)
        << e.what();
  }
}

TEST(PaperCpuCounts, MatchesPaperAxes) {
  EXPECT_EQ(paper_cpu_counts(4),
            (std::vector<std::uint32_t>{4, 8, 16, 32, 64, 128, 256}));
  EXPECT_EQ(paper_cpu_counts(16),
            (std::vector<std::uint32_t>{16, 32, 64, 128, 256}));
}

TEST(Runner, BarrierResultIsConsistent) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  CellParams params;
  params.episodes = 4;
  const CellResult r = run_barrier(cfg, params);
  EXPECT_GT(r.primary, 0.0);  // cycles per barrier
  EXPECT_DOUBLE_EQ(r.secondary, r.primary / 8.0);  // per processor
  EXPECT_GT(r.traffic.packets, 0u);
}

TEST(Runner, LockResultIsConsistent) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  CellParams params;
  params.iters = 3;
  const CellResult r = run_lock(cfg, params);
  EXPECT_GT(r.primary, 0.0);  // total cycles
  EXPECT_DOUBLE_EQ(r.secondary, r.primary / (8.0 * 3.0));  // per acquire
}

// Under PDES each domain keeps its own clock, and domain 0's can stop
// before another domain's last finisher. A lock cell without warmup
// reports the machine's end time: the latest domain clock, which bounds
// every cpu's last acquisition (registered as engine.now).
TEST(Runner, LockTotalCoversEveryCpuUnderPdes) {
  core::SystemConfig cfg;
  cfg.num_cpus = 16;
  cfg.sim_threads = 2;
  CellParams params;
  params.kernel = Kernel::kLock;
  params.mech = sync::Mechanism::kAtomic;
  params.algo = LockAlgo::kMcs;
  params.warmup_iters = 0;
  params.iters = 5;
  const CellResult r = run_cell(cfg, params, /*record=*/true);
  const sim::Json* end = r.record.at("registry").find_path("engine.now");
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(r.primary, static_cast<double>(end->as_uint()));
  EXPECT_EQ(r.record.at("total_cycles").as_double(), r.primary);
}

// Records are built only on request: a plain run carries none.
TEST(Reporter, InactiveWithoutJsonPath) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  CellParams params;
  params.episodes = 2;
  EXPECT_TRUE(run_barrier(cfg, params).record.is_null());
  params.kernel = Kernel::kLock;
  EXPECT_TRUE(run_cell(cfg, params).record.is_null());
}

TEST(Reporter, RunBarrierFeedsRecordsWithRegistryDump) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  CellParams params;
  params.mech = sync::Mechanism::kAmo;
  params.episodes = 2;
  const CellResult r = run_barrier(cfg, params, /*record=*/true);

  const sim::Json& rec = r.record;
  EXPECT_EQ(rec.at("workload").as_string(), "barrier");
  EXPECT_EQ(rec.at("cpus").as_uint(), 8u);
  EXPECT_EQ(rec.at("mechanism").as_string(), "AMO");
  EXPECT_GT(rec.at("cycles_per_barrier").as_double(), 0.0);
  EXPECT_GT(rec.at("traffic").at("packets").as_uint(), 0u);
  // The registry dump reaches down to per-node AMU counters.
  const sim::Json* amo_ops = rec.at("registry").find_path("node0.amu.ops");
  ASSERT_NE(amo_ops, nullptr);
  EXPECT_GT(amo_ops->as_uint(), 0u);
  EXPECT_NE(rec.at("registry").find_path("net.packets"), nullptr);
  EXPECT_NE(rec.at("registry").find_path("cpu0.cache.l2.hits"), nullptr);

  // The document the driver writes must parse and carry the record.
  SweepSpec spec;
  spec.bench_name = "unit_barrier";
  const std::vector<CellResult> results{r};
  const sim::Json doc =
      sim::Json::parse(json_document(spec, results).dump(2));
  EXPECT_EQ(doc.at("bench").as_string(), "unit_barrier");
  // The v2 bump is pinned here: histograms (new dotted registry groups)
  // are the only addition; every v1 record field is unchanged.
  EXPECT_EQ(doc.at("schema_version").as_uint(), 2u);
  EXPECT_EQ(doc.at("records").size(), 1u);
}

TEST(Reporter, RunLockFeedsRecords) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  CellParams params;
  params.iters = 2;
  const sim::Json rec = run_lock(cfg, params, /*record=*/true).record;
  EXPECT_EQ(rec.at("workload").as_string(), "lock");
  EXPECT_EQ(rec.at("lock").as_string(), "ticket");
  EXPECT_GT(rec.at("total_cycles").as_double(), 0.0);
}

TEST(Runner, DeterministicAcrossCalls) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  CellParams params;
  params.episodes = 4;
  EXPECT_DOUBLE_EQ(run_barrier(cfg, params).primary,
                   run_barrier(cfg, params).primary);
}

// A barrier sweep over `cpus` x `mechs`, cells in that order.
SweepSpec barrier_sweep(const std::vector<std::uint32_t>& cpus,
                        const std::vector<sync::Mechanism>& mechs,
                        int episodes) {
  SweepSpec spec;
  for (std::uint32_t p : cpus) {
    for (sync::Mechanism m : mechs) {
      Cell c;
      c.set.push_back({"num_cpus", sim::Json(p)});
      c.params.mech = m;
      c.params.episodes = episodes;
      spec.cells.push_back(std::move(c));
    }
  }
  return spec;
}

TEST(Sweep, RunsEveryTaskOnceAndClears) {
  const SweepSpec spec =
      barrier_sweep({4, 8}, {sync::Mechanism::kLlSc, sync::Mechanism::kAmo,
                             sync::Mechanism::kAtomic, sync::Mechanism::kMao,
                             sync::Mechanism::kActMsg},
                    1);
  const std::vector<CellResult> results =
      run_spec(spec, core::SystemConfig{}, 4);
  ASSERT_EQ(results.size(), 10u);
  for (const CellResult& r : results) EXPECT_GT(r.primary, 0.0);
  // An empty spec is a no-op.
  EXPECT_TRUE(run_spec(SweepSpec{}, core::SystemConfig{}, 4).empty());
}

TEST(Sweep, FlushesRecordsInTaskOrderAcrossWorkers) {
  // Cell i runs on i + 4 cpus; its record must land at index i.
  SweepSpec spec;
  constexpr int kTasks = 24;
  for (int i = 0; i < kTasks; ++i) {
    Cell c;
    c.set.push_back({"num_cpus", sim::Json(i + 4)});
    c.params.episodes = 1;
    spec.cells.push_back(std::move(c));
  }
  const std::vector<CellResult> results =
      run_spec(spec, core::SystemConfig{}, 4, /*records=*/true);
  const sim::Json records = json_document(spec, results).at("records");
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].at("cpus").as_uint(),
              static_cast<std::uint64_t>(i + 4));
  }
}

// The headline determinism property: a parallel sweep produces the
// byte-identical record stream of a serial one, because each run owns its
// Machine and results come back in cell order.
TEST(Sweep, ParallelBarrierSweepMatchesSerialByteForByte) {
  const SweepSpec spec = barrier_sweep(
      {4, 8}, {sync::Mechanism::kLlSc, sync::Mechanism::kAmo}, 2);
  auto dump_sweep = [&](unsigned threads) {
    const std::vector<CellResult> results =
        run_spec(spec, core::SystemConfig{}, threads, /*records=*/true);
    return json_document(spec, results).at("records").dump(2);
  };
  const std::string serial = dump_sweep(1);
  EXPECT_EQ(serial, dump_sweep(4));
  // And re-running the identical serial sweep reproduces it exactly.
  EXPECT_EQ(serial, dump_sweep(1));
}

// ---------------------------------------------------------------- tables

// Four cells on a 2 x 2 grid of (num_cpus, mech), with a fifth cell
// sharing the (4, LL/SC) slot and no cell at (8, AMO).
struct PivotFixture {
  SweepSpec spec;
  std::vector<core::SystemConfig> cfgs;
  std::vector<CellResult> results;

  PivotFixture() {
    auto add = [&](std::uint32_t cpus, sync::Mechanism m, double primary) {
      Cell c;
      c.set.push_back({"num_cpus", sim::Json(cpus)});
      c.params.mech = m;
      spec.cells.push_back(std::move(c));
      CellResult r;
      r.primary = primary;
      results.push_back(r);
    };
    add(4, sync::Mechanism::kLlSc, 300);
    add(4, sync::Mechanism::kAmo, 100);
    add(8, sync::Mechanism::kLlSc, 800);
    add(4, sync::Mechanism::kLlSc, 200);  // shares a slot: min wins
    cfgs = materialize(spec, core::SystemConfig{});
  }
};

TEST(Tables, PivotPrintsMinSpeedupNormalizedAndEmptySlots) {
  const PivotFixture f;
  const TableSpec raw{.title = "raw", .rows = {"num_cpus"}, .cols = {"mech"}};
  EXPECT_EQ(format_table(raw, f.spec, f.cfgs, f.results),
            "\n== raw ==\n"
            "    mech     LL/SC       AMO\n"
            "num_cpus\n"
            "4              200       100\n"
            "8              800         -\n");

  const TableSpec speedup{.title = "speedup",
                          .rows = {"num_cpus"},
                          .cols = {"mech"},
                          .precision = 2,
                          .relative_to = {{"mech", "LL/SC"}}};
  EXPECT_EQ(format_table(speedup, f.spec, f.cfgs, f.results),
            "\n== speedup ==\n"
            "    mech     LL/SC       AMO\n"
            "num_cpus\n"
            "4             1.00      2.00\n"
            "8             1.00         -\n");

  const TableSpec normalized{.title = "normalized",
                             .rows = {"num_cpus"},
                             .cols = {"mech"},
                             .precision = 1,
                             .relative_to = {{"mech", "LL/SC"}},
                             .relative = Relative::kNormalized};
  EXPECT_EQ(format_table(normalized, f.spec, f.cfgs, f.results),
            "\n== normalized ==\n"
            "    mech     LL/SC       AMO\n"
            "num_cpus\n"
            "4              1.0       0.5\n"
            "8              1.0         -\n");
}

TEST(Tables, UnknownKeysAreErrors) {
  const PivotFixture f;
  const TableSpec typo{.title = "typo", .rows = {"num_cpu"}};
  EXPECT_THROW((void)pivot(typo, f.spec, f.cfgs), std::logic_error);
  const TableSpec base_not_a_column{.title = "t",
                                    .cols = {"mech"},
                                    .relative_to = {{"num_cpus", "4"}}};
  EXPECT_THROW(
      (void)format_table(base_not_a_column, f.spec, f.cfgs, f.results),
      std::logic_error);
}

// Every built-in workload's cells, at --quick and at default size, all
// land in at least one of its tables, so no measured cell goes
// unprinted; and no workload runs the same (config, params) cell twice.
TEST(Tables, EveryQuickCellLandsInATable) {
  const std::vector<Workload>& all = WorkloadRegistry::instance().all();
  EXPECT_EQ(all.size(), 20u);
  for (const bool quick : {true, false}) {
    CliOptions opt;
    opt.quick = quick;
    for (const Workload& w : all) {
      const SweepSpec spec = w.build(opt);
      const std::vector<core::SystemConfig> cfgs =
          materialize(spec, base_config(opt));
      ASSERT_FALSE(w.tables.empty()) << w.name;
      std::vector<bool> placed(spec.cells.size(), false);
      for (const TableSpec& t : w.tables) {
        const Pivot p = pivot(t, spec, cfgs);
        ASSERT_EQ(p.slot.size(), spec.cells.size()) << w.name;
        for (std::size_t i = 0; i < p.slot.size(); ++i) {
          placed[i] = placed[i] || (p.slot[i].first < p.rows.size() &&
                                    p.slot[i].second < p.cols.size());
        }
        // Relative tables must name real column keys.
        EXPECT_NO_THROW((void)format_table(
            t, spec, cfgs, std::vector<CellResult>(spec.cells.size())))
            << w.name << ": " << t.title;
      }
      const sim::Json cells = spec_to_json(spec).at("cells");
      std::set<std::string> seen;
      for (std::size_t i = 0; i < placed.size(); ++i) {
        EXPECT_TRUE(placed[i]) << w.name << " cell " << i;
        const std::string key = core::to_json(cfgs[i]).dump() +
                                cells[i].at("params").dump();
        EXPECT_TRUE(seen.insert(key).second)
            << w.name << (quick ? " --quick" : "") << " runs cell " << i
            << " twice";
      }
    }
  }
}

TEST(Registry, LooksUpByNameOnly) {
  const WorkloadRegistry& reg = WorkloadRegistry::instance();
  ASSERT_NE(reg.find("table2"), nullptr);
  EXPECT_EQ(reg.find("table2_barriers"), nullptr);
  // The JSON document keeps the historical bench name.
  EXPECT_EQ(reg.find("table2")->build(CliOptions{}).bench_name,
            "table2_barriers");
}

TEST(Registry, CpusWinsOverQuick) {
  // --quick picks a workload's short CPU list only when --cpus names none.
  const Workload* w = WorkloadRegistry::instance().find("microbench_hier");
  ASSERT_NE(w, nullptr);
  const CliOptions opt = parse({"--quick", "--cpus=64"});
  const std::vector<core::SystemConfig> cfgs =
      materialize(w->build(opt), base_config(opt));
  ASSERT_FALSE(cfgs.empty());
  for (const core::SystemConfig& c : cfgs) EXPECT_EQ(c.num_cpus, 64u);

  const CliOptions quick = parse({"--quick"});
  std::set<std::uint32_t> counts;
  for (const core::SystemConfig& c :
       materialize(w->build(quick), base_config(quick))) {
    counts.insert(c.num_cpus);
  }
  EXPECT_EQ(counts, (std::set<std::uint32_t>{64, 256}));
}

}  // namespace
}  // namespace amo::bench
