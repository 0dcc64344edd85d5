#include "bench/harness.hpp"

#include <algorithm>
#include <sstream>

#include "core/config_io.hpp"
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

namespace amo::bench {

namespace {

TrafficSnapshot snap(const net::Network& n) {
  return TrafficSnapshot{n.stats().packets, n.stats().bytes};
}

sim::Json traffic_json(const TrafficSnapshot& t) {
  sim::Json j = sim::Json::object();
  j["packets"] = t.packets;
  j["bytes"] = t.bytes;
  return j;
}

// The machine knobs ablations sweep, so --json records are
// self-describing even when a bench varies more than the CPU count.
sim::Json config_json(const core::SystemConfig& cfg) {
  sim::Json j = sim::Json::object();
  j["num_cpus"] = cfg.num_cpus;
  j["cpus_per_node"] = cfg.cpus_per_node;
  j["hop_cycles"] = cfg.net.hop_cycles;
  j["hardware_multicast"] = cfg.net.hardware_multicast;
  j["amu_cache_words"] = cfg.amu.cache_words;
  j["amu_eager_put_all"] = cfg.amu.eager_put_all;
  j["seed"] = cfg.seed;
  // Only when decomposed: serial records stay byte-identical to pre-PDES.
  if (cfg.sim_threads > 1) j["sim_threads"] = cfg.sim_threads;
  return j;
}

void record_barrier(const core::SystemConfig& cfg, const BarrierParams& params,
                    const BarrierResult& r, const core::Machine& m) {
  JsonReporter* rep = JsonReporter::current();
  if (rep == nullptr || !rep->active()) return;
  sim::Json rec = sim::Json::object();
  rec["workload"] = "barrier";
  rec["cpus"] = cfg.num_cpus;
  rec["mechanism"] = sync::to_string(params.mech);
  rec["barrier"] = params.kind == BarrierKind::kCentral ? "central" : "tree";
  if (params.kind == BarrierKind::kTree) rec["fanout"] = params.fanout;
  rec["episodes"] = params.episodes;
  rec["cycles_per_barrier"] = r.cycles_per_barrier;
  rec["cycles_per_proc"] = r.cycles_per_proc;
  rec["traffic"] = traffic_json(r.traffic);
  rec["config"] = config_json(cfg);
  rec["registry"] = m.stats_json();
  rep->add(std::move(rec));
}

void record_lock(const core::SystemConfig& cfg, const LockParams& params,
                 const LockResult& r, const core::Machine& m) {
  JsonReporter* rep = JsonReporter::current();
  if (rep == nullptr || !rep->active()) return;
  sim::Json rec = sim::Json::object();
  rec["workload"] = "lock";
  rec["cpus"] = cfg.num_cpus;
  rec["mechanism"] = sync::to_string(params.mech);
  rec["lock"] = params.array ? "array" : "ticket";
  rec["iters"] = params.iters;
  rec["cs_cycles"] = params.cs_cycles;
  rec["total_cycles"] = r.total_cycles;
  rec["cycles_per_acquire"] = r.cycles_per_acquire;
  rec["traffic"] = traffic_json(r.traffic);
  rec["config"] = config_json(cfg);
  rec["registry"] = m.stats_json();
  rep->add(std::move(rec));
}

}  // namespace

BarrierResult run_barrier(const core::SystemConfig& cfg,
                          const BarrierParams& params) {
  core::Machine m(cfg);
  std::unique_ptr<sync::Barrier> barrier =
      params.kind == BarrierKind::kCentral
          ? sync::make_central_barrier(m, params.mech, cfg.num_cpus)
          : sync::make_tree_barrier(m, params.mech, cfg.num_cpus,
                                    params.fanout);

  // Thread 0 brackets the measured region: right after its warmup exit and
  // right after its last measured exit. All threads are within one barrier
  // of each other at those points.
  sim::Cycle t_start = 0;
  sim::Cycle t_end = 0;
  TrafficSnapshot traffic_start{};
  TrafficSnapshot traffic_end{};

  // Under PDES (sim_threads > 1) a mid-run Network::stats() call would
  // read other domains' live shards; brackets keep only thread 0's local
  // clock and the traffic window falls back to the whole run.
  const bool parallel = cfg.sim_threads > 1;
  const int total = params.warmup_episodes + params.episodes;
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < total; ++ep) {
        if (params.max_skew > 0) {
          co_await t.compute(t.rng().below(params.max_skew));
        }
        co_await barrier->wait(t);
        if (c == 0 && ep == params.warmup_episodes - 1) {
          t_start = t.now();
          if (!parallel) traffic_start = snap(m.network());
        }
        if (c == 0 && ep == total - 1) {
          t_end = t.now();
          if (!parallel) traffic_end = snap(m.network());
        }
      }
    });
  }
  m.run();
  if (parallel) traffic_end = snap(m.network());  // whole-run traffic

  BarrierResult r;
  r.cycles_per_barrier =
      static_cast<double>(t_end - t_start) / params.episodes;
  r.cycles_per_proc = r.cycles_per_barrier / cfg.num_cpus;
  r.traffic.packets = traffic_end.packets - traffic_start.packets;
  r.traffic.bytes = traffic_end.bytes - traffic_start.bytes;
  record_barrier(cfg, params, r, m);
  return r;
}

LockResult run_lock(const core::SystemConfig& cfg, const LockParams& params) {
  core::Machine m(cfg);
  std::unique_ptr<sync::Lock> lock =
      params.array ? sync::make_array_lock(m, params.mech, cfg.num_cpus)
                   : sync::make_ticket_lock(m, params.mech);
  // A barrier separates warmup from the measured region so the timing
  // brackets are clean. It uses processor-side atomics regardless of the
  // lock mechanism under test; its traffic is excluded via snapshots.
  auto fence = sync::make_central_barrier(m, sync::Mechanism::kAtomic,
                                          cfg.num_cpus);

  sim::Cycle t_start = 0;
  sim::Cycle t_end = 0;
  TrafficSnapshot traffic_start{};
  TrafficSnapshot traffic_end{};
  std::uint32_t finished = 0;
  // PDES-safe bookkeeping: the shared `finished` counter and mid-run
  // traffic snapshots are serial-only; K > 1 keeps a per-cpu finish
  // cycle (each element written by exactly one domain thread) and takes
  // the whole run's traffic.
  const bool parallel = cfg.sim_threads > 1;
  std::vector<sim::Cycle> finish_at(parallel ? cfg.num_cpus : 0, 0);

  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < params.warmup_iters; ++i) {
        co_await lock->acquire(t);
        co_await t.compute(params.cs_cycles);
        co_await lock->release(t);
        co_await t.compute(t.rng().below(params.max_skew + 1));
      }
      co_await fence->wait(t);
      if (c == 0) {
        t_start = t.now();
        if (!parallel) traffic_start = snap(m.network());
      }
      for (int i = 0; i < params.iters; ++i) {
        co_await lock->acquire(t);
        co_await t.compute(params.cs_cycles);
        co_await lock->release(t);
        if (params.max_skew > 0) {
          co_await t.compute(t.rng().below(params.max_skew));
        }
      }
      if (parallel) {
        finish_at[c] = t.now();
      } else if (++finished == cfg.num_cpus) {
        // Last finisher closes the measured region.
        t_end = t.now();
        traffic_end = snap(m.network());
      }
    });
  }
  m.run();
  if (parallel) {
    t_end = *std::max_element(finish_at.begin(), finish_at.end());
    traffic_end = snap(m.network());
  }

  LockResult r;
  r.total_cycles = static_cast<double>(t_end - t_start);
  r.cycles_per_acquire =
      r.total_cycles / (static_cast<double>(cfg.num_cpus) * params.iters);
  r.traffic.packets = traffic_end.packets - traffic_start.packets;
  r.traffic.bytes = traffic_end.bytes - traffic_start.bytes;
  record_lock(cfg, params, r, m);
  return r;
}

core::SystemConfig base_config(const CliOptions& opt) {
  core::SystemConfig cfg;
  if (!opt.config_path.empty()) {
    std::ifstream in(opt.config_path);
    if (!in) {
      throw std::runtime_error("--config: cannot open '" + opt.config_path +
                               "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    core::apply_json(cfg, sim::Json::parse(text.str()));
  }
  for (const auto& [key, value] : opt.sets) {
    core::set_field(cfg, key, std::string_view(value));
  }
  if (opt.seed != 0) cfg.seed = opt.seed;
  if (opt.sim_threads != 0) cfg.sim_threads = opt.sim_threads;
  validate_base(cfg);
  return cfg;
}

void validate_base(const core::SystemConfig& cfg) {
  core::SystemConfig checked = cfg;
  checked.sim_threads = std::min(cfg.sim_threads, cfg.num_nodes());
  core::validate(checked);
}

std::vector<std::uint32_t> paper_cpu_counts(std::uint32_t min_cpus) {
  std::vector<std::uint32_t> all{4, 8, 16, 32, 64, 128, 256};
  std::vector<std::uint32_t> out;
  for (std::uint32_t c : all) {
    if (c >= min_cpus) out.push_back(c);
  }
  return out;
}

namespace {

/// Parses the leading decimal digits of `s`; sets `*end` past them.
/// Throws when `s` does not start with a digit or the value overflows.
std::uint64_t parse_digits(const char* s, const char** end, const char* flag) {
  if (*s < '0' || *s > '9') {
    throw std::runtime_error(std::string(flag) + ": expected a number, got '" +
                             s + "'");
  }
  errno = 0;
  char* stop = nullptr;
  const unsigned long long v = std::strtoull(s, &stop, 10);
  if (errno == ERANGE) {
    throw std::runtime_error(std::string(flag) + ": value out of range");
  }
  *end = stop;
  return v;
}

/// Whole-string positive integer with an inclusive upper bound.
std::uint64_t parse_positive(const char* s, const char* flag,
                             std::uint64_t max) {
  const char* end = nullptr;
  const std::uint64_t v = parse_digits(s, &end, flag);
  if (*end != '\0') {
    throw std::runtime_error(std::string(flag) + ": trailing garbage in '" +
                             s + "'");
  }
  if (v == 0 || v > max) {
    throw std::runtime_error(std::string(flag) + ": value must be in [1, " +
                             std::to_string(max) + "]");
  }
  return v;
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  constexpr std::uint64_t kMaxCpus = 1u << 20;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--cpus=", 7) == 0) {
      opt.cpus.clear();
      const char* p = a + 7;
      while (true) {
        const char* end = nullptr;
        const std::uint64_t v = parse_digits(p, &end, "--cpus");
        if (v == 0 || v > kMaxCpus) {
          throw std::runtime_error("--cpus: counts must be in [1, " +
                                   std::to_string(kMaxCpus) + "]");
        }
        opt.cpus.push_back(static_cast<std::uint32_t>(v));
        if (*end == '\0') break;
        if (*end != ',') {
          throw std::runtime_error(
              std::string("--cpus: malformed list '") + (a + 7) + "'");
        }
        p = end + 1;
      }
    } else if (std::strncmp(a, "--episodes=", 11) == 0) {
      opt.episodes = static_cast<int>(parse_positive(
          a + 11, "--episodes", std::numeric_limits<int>::max()));
    } else if (std::strncmp(a, "--iters=", 8) == 0) {
      opt.iters = static_cast<int>(
          parse_positive(a + 8, "--iters", std::numeric_limits<int>::max()));
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      // Cap well above any sane machine; the point is rejecting garbage.
      opt.threads =
          static_cast<unsigned>(parse_positive(a + 10, "--threads", 4096));
    } else if (std::strncmp(a, "--sim-threads=", 14) == 0) {
      opt.sim_threads = static_cast<unsigned>(
          parse_positive(a + 14, "--sim-threads", 4096));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      opt.seed = parse_positive(a + 7, "--seed",
                                std::numeric_limits<std::uint64_t>::max());
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      if (a[7] == '\0') {
        throw std::runtime_error("--json: requires a file path");
      }
      opt.json_path = a + 7;
    } else if (std::strncmp(a, "--config=", 9) == 0) {
      if (a[9] == '\0') {
        throw std::runtime_error("--config: requires a file path");
      }
      opt.config_path = a + 9;
    } else if (std::strncmp(a, "--set=", 6) == 0 ||
               std::strcmp(a, "--set") == 0) {
      const char* kv = a[5] == '=' ? a + 6 : (i + 1 < argc ? argv[++i] : "");
      const char* eq = std::strchr(kv, '=');
      if (eq == nullptr || eq == kv || eq[1] == '\0') {
        throw std::runtime_error(
            std::string("--set: expected key=value, got '") + kv + "'");
      }
      opt.sets.emplace_back(std::string(kv, eq), std::string(eq + 1));
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "options: --cpus=a,b,c  --episodes=N  --iters=N  --threads=N"
          "  --sim-threads=K  --seed=N  --quick  --json=PATH"
          "  --config=FILE  --set KEY=VALUE\n");
      std::exit(0);
    } else {
      throw std::runtime_error(std::string("unknown option: ") + a);
    }
  }
  return opt;
}

CliOptions parse_cli_or_exit(int argc, char** argv) {
  try {
    return parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n(try --help)\n",
                 argc > 0 ? argv[0] : "bench", e.what());
    std::exit(2);
  }
}

namespace {
std::atomic<JsonReporter*> g_reporter{nullptr};
thread_local sim::Json* t_capture = nullptr;
}  // namespace

JsonReporter::JsonReporter(const CliOptions& opt, std::string bench_name)
    : path_(opt.json_path), name_(std::move(bench_name)) {
  JsonReporter* expected = nullptr;
  if (!g_reporter.compare_exchange_strong(expected, this)) {
    throw std::logic_error("JsonReporter: another reporter is already active");
  }
}

JsonReporter::~JsonReporter() {
  g_reporter.store(nullptr);
  try {
    write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "JsonReporter: %s\n", e.what());
  }
}

JsonReporter* JsonReporter::current() { return g_reporter.load(); }

void JsonReporter::begin_capture(sim::Json* buffer) { t_capture = buffer; }

void JsonReporter::end_capture() { t_capture = nullptr; }

void JsonReporter::add(sim::Json record) {
  if (!active()) return;
  if (t_capture != nullptr) {
    t_capture->push_back(std::move(record));
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void JsonReporter::write() {
  if (!active() || written_) return;
  written_ = true;
  sim::Json doc = sim::Json::object();
  doc["bench"] = name_;
  // v2: LogHistogram entries (count/sum/min/max/mean/p50/p90/p99/p999
  // objects) may appear in registry dumps; all v1 fields are unchanged.
  doc["schema_version"] = 2;
  doc["records"] = records_;
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path_ + "' for writing");
  }
  out << doc.dump(2) << '\n';
  if (!out.good()) {
    throw std::runtime_error("short write to '" + path_ + "'");
  }
}

void SweepRunner::run() {
  const std::size_t n = tasks_.size();
  std::vector<sim::Json> captured(n, sim::Json::array());

  auto run_one = [&](std::size_t i) {
    JsonReporter::begin_capture(&captured[i]);
    tasks_[i]();
    JsonReporter::end_capture();
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          run_one(i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Flush per-task buffers in queue order: the reporter sees the same
  // record sequence a serial run produces.
  JsonReporter* rep = JsonReporter::current();
  if (rep != nullptr) {
    for (const sim::Json& arr : captured) {
      for (std::size_t i = 0; i < arr.size(); ++i) rep->add(arr[i]);
    }
  }
  tasks_.clear();
}

void print_header(const std::string& title, const std::string& col0,
                  const std::vector<std::string>& cols) {
  std::printf("\n== %s ==\n%-6s", title.c_str(), col0.c_str());
  for (const auto& c : cols) std::printf(" %12s", c.c_str());
  std::printf("\n");
}

void print_row(std::uint32_t cpus, const std::vector<double>& values,
               int precision) {
  std::printf("%-6u", cpus);
  for (double v : values) std::printf(" %12.*f", precision, v);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace amo::bench
