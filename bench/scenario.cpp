#include "bench/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/config_io.hpp"

namespace amo::bench {

namespace {

template <typename E>
struct EnumEntry {
  E value;
  const char* name;
};

constexpr EnumEntry<Kernel> kKernelNames[] = {
    {Kernel::kBarrier, "barrier"},
    {Kernel::kLock, "lock"},
    {Kernel::kFig1Episode, "fig1_episode"},
    {Kernel::kPairwiseFlags, "pairwise_flags"},
    {Kernel::kService, "service"},
};
constexpr EnumEntry<BarrierKind> kKindNames[] = {
    {BarrierKind::kCentral, "central"},
    {BarrierKind::kTree, "tree"},
    {BarrierKind::kNaive, "naive"},
    {BarrierKind::kDissemination, "dissemination"},
    {BarrierKind::kMcsTree, "mcs_tree"},
    {BarrierKind::kFlatTree, "flat_tree"},
    {BarrierKind::kCluster, "cluster"},
    {BarrierKind::kClusterAmu, "cluster_amu"},
};
constexpr EnumEntry<LockAlgo> kAlgoNames[] = {
    {LockAlgo::kTas, "tas"},
    {LockAlgo::kTicket, "ticket"},
    {LockAlgo::kArray, "array"},
    {LockAlgo::kMcs, "mcs"},
    {LockAlgo::kCna, "cna"},
    {LockAlgo::kHmcs, "hmcs"},
};
constexpr EnumEntry<sync::TicketBackoff> kBackoffNames[] = {
    {sync::TicketBackoff::kNone, "none"},
    {sync::TicketBackoff::kProportional, "proportional"},
};

template <typename E, std::size_t N>
const char* enum_name(const EnumEntry<E> (&table)[N], E v) {
  for (const auto& e : table) {
    if (e.value == v) return e.name;
  }
  return "?";
}

template <typename E, std::size_t N>
E enum_value(const EnumEntry<E> (&table)[N], const std::string& field,
             const sim::Json& j) {
  if (j.is_string()) {
    for (const auto& e : table) {
      if (j.as_string() == e.name) return e.value;
    }
  }
  std::string names;
  for (const auto& e : table) {
    names += names.empty() ? e.name : std::string(", ") + e.name;
  }
  throw std::runtime_error(field + ": expected one of [" + names +
                           "], got " + j.dump());
}

int int_value(const std::string& field, const sim::Json& j) {
  if (!j.is_number()) {
    throw std::runtime_error(field + ": expected a number, got " + j.dump());
  }
  try {
    return static_cast<int>(j.as_uint());
  } catch (const std::exception&) {
    throw std::runtime_error(field + ": expected a non-negative integer");
  }
}

std::uint64_t uint_value(const std::string& field, const sim::Json& j) {
  if (!j.is_number()) {
    throw std::runtime_error(field + ": expected a number, got " + j.dump());
  }
  try {
    return j.as_uint();
  } catch (const std::exception&) {
    throw std::runtime_error(field + ": expected a non-negative integer");
  }
}

// Every field, defaults included: the table keys resolve against this.
sim::Json params_to_json(const CellParams& p) {
  sim::Json j = sim::Json::object();
  j["kernel"] = enum_name(kKernelNames, p.kernel);
  j["mech"] = sync::to_string(p.mech);
  j["kind"] = enum_name(kKindNames, p.kind);
  j["fanout"] = p.fanout;
  j["warmup_episodes"] = p.warmup_episodes;
  j["episodes"] = p.episodes;
  j["max_skew"] = p.max_skew;
  j["active"] = p.active;
  j["algo"] = enum_name(kAlgoNames, p.algo);
  j["warmup_iters"] = p.warmup_iters;
  j["iters"] = p.iters;
  j["cs_cycles"] = p.cs_cycles;
  j["backoff"] = enum_name(kBackoffNames, p.backoff);
  j["locks"] = p.locks;
  j["rounds"] = p.rounds;
  j["requests"] = p.requests;
  return j;
}

// What a spec file spells out: kernel, mech, and every non-default field.
sim::Json params_to_spec_json(const CellParams& p) {
  static const sim::Json defaults = params_to_json(CellParams{});
  const sim::Json all = params_to_json(p);
  sim::Json j = sim::Json::object();
  for (const auto& [key, v] : all.items()) {
    if (key == "kernel" || key == "mech" || !(v == defaults.at(key))) {
      j[key] = v;
    }
  }
  return j;
}

CellParams params_from_json(const sim::Json& j) {
  if (!j.is_object()) {
    throw std::runtime_error("params: expected an object");
  }
  CellParams p;
  for (const auto& [key, v] : j.items()) {
    const std::string f = "params." + key;
    if (key == "kernel") {
      p.kernel = enum_value(kKernelNames, f, v);
    } else if (key == "mech") {
      const auto m = v.is_string()
                         ? sync::mechanism_from_string(v.as_string())
                         : std::nullopt;
      if (!m) {
        throw std::runtime_error(
            f + ": expected one of [LL/SC, Atomic, ActMsg, MAO, AMO], got " +
            v.dump());
      }
      p.mech = *m;
    } else if (key == "kind") {
      p.kind = enum_value(kKindNames, f, v);
    } else if (key == "fanout") {
      p.fanout = static_cast<std::uint32_t>(uint_value(f, v));
    } else if (key == "warmup_episodes") {
      p.warmup_episodes = int_value(f, v);
    } else if (key == "episodes") {
      p.episodes = int_value(f, v);
    } else if (key == "max_skew") {
      p.max_skew = uint_value(f, v);
    } else if (key == "active") {
      p.active = static_cast<std::uint32_t>(uint_value(f, v));
    } else if (key == "algo") {
      p.algo = enum_value(kAlgoNames, f, v);
    } else if (key == "warmup_iters") {
      p.warmup_iters = int_value(f, v);
    } else if (key == "iters") {
      p.iters = int_value(f, v);
    } else if (key == "cs_cycles") {
      p.cs_cycles = uint_value(f, v);
    } else if (key == "backoff") {
      p.backoff = enum_value(kBackoffNames, f, v);
    } else if (key == "locks") {
      p.locks = static_cast<std::uint32_t>(uint_value(f, v));
      if (p.locks == 0) throw std::runtime_error(f + ": expected >= 1");
    } else if (key == "rounds") {
      p.rounds = int_value(f, v);
    } else if (key == "requests") {
      p.requests = uint_value(f, v);
    } else {
      throw std::runtime_error(
          f + ": unknown parameter; candidates: kernel, mech, kind, fanout, "
              "warmup_episodes, episodes, max_skew, active, algo, "
              "warmup_iters, iters, cs_cycles, backoff, locks, rounds, "
              "requests");
    }
  }
  return p;
}

}  // namespace

const char* to_string(Kernel k) { return enum_name(kKernelNames, k); }
const char* to_string(BarrierKind k) { return enum_name(kKindNames, k); }
const char* to_string(LockAlgo a) { return enum_name(kAlgoNames, a); }
const char* to_string(sync::TicketBackoff b) {
  return enum_name(kBackoffNames, b);
}

sim::Json spec_to_json(const SweepSpec& spec) {
  sim::Json j = sim::Json::object();
  if (!spec.workload.empty()) j["workload"] = spec.workload;
  j["bench"] = spec.bench_name;
  if (!spec.base_config.is_null()) j["config"] = spec.base_config;
  sim::Json cells = sim::Json::array();
  for (const Cell& c : spec.cells) {
    sim::Json jc = sim::Json::object();
    if (!c.set.empty()) {
      sim::Json s = sim::Json::object();
      for (const ConfigDelta& d : c.set) s[d.key] = d.value;
      jc["set"] = std::move(s);
    }
    jc["params"] = params_to_spec_json(c.params);
    cells.push_back(std::move(jc));
  }
  j["cells"] = std::move(cells);
  return j;
}

SweepSpec spec_from_json(const sim::Json& j) {
  if (!j.is_object()) {
    throw std::runtime_error("scenario: expected a top-level object");
  }
  SweepSpec spec;
  bool have_cells = false;
  for (const auto& [key, v] : j.items()) {
    if (key == "workload") {
      spec.workload = v.as_string();
    } else if (key == "bench") {
      spec.bench_name = v.as_string();
    } else if (key == "config") {
      spec.base_config = v;
    } else if (key == "cells") {
      have_cells = true;
      if (!v.is_array()) {
        throw std::runtime_error("cells: expected an array");
      }
      for (std::size_t i = 0; i < v.size(); ++i) {
        const std::string at = "cells[" + std::to_string(i) + "]";
        const sim::Json& jc = v[i];
        if (!jc.is_object()) {
          throw std::runtime_error(at + ": expected an object");
        }
        Cell cell;
        try {
          for (const auto& [ck, cv] : jc.items()) {
            if (ck == "set") {
              if (!cv.is_object()) {
                throw std::runtime_error("set: expected an object");
              }
              for (const auto& [dk, dv] : cv.items()) {
                cell.set.push_back(ConfigDelta{dk, dv});
              }
            } else if (ck == "params") {
              cell.params = params_from_json(cv);
            } else {
              throw std::runtime_error(
                  ck + ": unknown cell key; candidates: set, params");
            }
          }
        } catch (const std::exception& e) {
          throw std::runtime_error(at + "." + e.what());
        }
        spec.cells.push_back(std::move(cell));
      }
    } else {
      throw std::runtime_error(
          key + ": unknown scenario key; candidates: workload, bench, "
                "config, cells");
    }
  }
  if (spec.bench_name.empty()) {
    spec.bench_name = spec.workload.empty() ? "scenario" : spec.workload;
  }
  if (!have_cells) {
    throw std::runtime_error("scenario: missing 'cells' array");
  }
  return spec;
}

std::vector<core::SystemConfig> materialize(const SweepSpec& spec,
                                            const core::SystemConfig& base) {
  std::vector<core::SystemConfig> cfgs(spec.cells.size(), base);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    try {
      for (const ConfigDelta& d : spec.cells[i].set) {
        core::set_field(cfgs[i], d.key, d.value);
      }
      core::validate(cfgs[i]);
    } catch (const std::exception& e) {
      throw core::ConfigError("cells[" + std::to_string(i) + "]: " +
                              e.what());
    }
  }
  return cfgs;
}

std::vector<CellResult> run_spec(const SweepSpec& spec,
                                 const core::SystemConfig& base,
                                 unsigned threads, bool records) {
  // Config errors surface deterministically before any simulation runs.
  const std::vector<core::SystemConfig> cfgs = materialize(spec, base);
  const std::size_t n = cfgs.size();
  std::vector<CellResult> results(n);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const auto start = std::chrono::steady_clock::now();
      results[i] = run_cell(cfgs[i], spec.cells[i].params, records);
      results[i].wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < std::min<std::size_t>(threads, n); ++w) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();
  return results;
}

sim::Json json_document(const SweepSpec& spec,
                        std::span<const CellResult> results) {
  sim::Json doc = sim::Json::object();
  doc["bench"] = spec.bench_name;
  // v2: LogHistogram entries (count/sum/min/max/mean/p50/p90/p99/p999
  // objects) may appear in registry dumps; all v1 fields are unchanged.
  doc["schema_version"] = 2;
  sim::Json records = sim::Json::array();
  for (const CellResult& r : results) {
    if (r.record.is_null()) continue;
    sim::Json rec = r.record;
    if (rec.find("events") != nullptr) {
      rec["wall_ms"] = r.wall_ms;
      rec["events_per_sec"] =
          r.wall_ms > 0 ? static_cast<double>(r.events) * 1000.0 / r.wall_ms
                        : 0.0;
    }
    records.push_back(std::move(rec));
  }
  doc["records"] = std::move(records);
  return doc;
}

void print_generic(const SweepSpec& spec, std::span<const CellResult> r) {
  std::printf("\n== scenario: %s (%zu cells) ==\n%-5s %-14s %-8s %14s %14s "
              "%10s %12s\n",
              spec.bench_name.c_str(), spec.cells.size(), "cell", "kernel",
              "mech", "primary", "secondary", "packets", "bytes");
  for (std::size_t i = 0; i < r.size(); ++i) {
    const CellParams& p = spec.cells[i].params;
    std::printf("%-5zu %-14s %-8s %14.2f %14.2f %10llu %12llu\n", i,
                to_string(p.kernel), sync::to_string(p.mech), r[i].primary,
                r[i].secondary,
                static_cast<unsigned long long>(r[i].traffic.packets),
                static_cast<unsigned long long>(r[i].traffic.bytes));
  }
}

namespace {

// A cell's value for one table key, as printed ("LL/SC", "64", "true").
std::string key_value(const sim::Json& params, const sim::Json& config,
                      const std::string& key) {
  const sim::Json* v = params.find(key);
  if (v == nullptr) v = config.find_path(key);
  if (v == nullptr || v->is_object()) {
    throw std::logic_error("table key '" + key +
                           "' is neither a cell parameter nor a config field");
  }
  return v->is_string() ? v->as_string() : v->dump();
}

std::size_t index_of(std::vector<std::vector<std::string>>& keys,
                     std::vector<std::string> key) {
  const auto it = std::find(keys.begin(), keys.end(), key);
  if (it != keys.end()) return static_cast<std::size_t>(it - keys.begin());
  keys.push_back(std::move(key));
  return keys.size() - 1;
}

double metric_value(Metric m, const CellResult& r) {
  switch (m) {
    case Metric::kPrimary: return r.primary;
    case Metric::kSecondary: return r.secondary;
    case Metric::kAux: return static_cast<double>(r.aux);
    case Metric::kPackets: return static_cast<double>(r.traffic.packets);
    case Metric::kBytes: return static_cast<double>(r.traffic.bytes);
    case Metric::kEvents: return static_cast<double>(r.events);
    case Metric::kWallMs: return r.wall_ms;
  }
  return 0;
}

void pad(std::string& out, const std::string& s, std::size_t width,
         bool right) {
  const std::string fill(width > s.size() ? width - s.size() : 0, ' ');
  out += right ? fill + s : s + fill;
}

}  // namespace

Pivot pivot(const TableSpec& table, const SweepSpec& spec,
            std::span<const core::SystemConfig> cfgs) {
  Pivot p;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const sim::Json params = params_to_json(spec.cells[i].params);
    const sim::Json config = core::to_json(cfgs[i]);
    auto tuple = [&](const std::vector<std::string>& keys) {
      std::vector<std::string> values;
      for (const std::string& k : keys) {
        values.push_back(key_value(params, config, k));
      }
      return values;
    };
    const std::size_t row = index_of(p.rows, tuple(table.rows));
    p.slot.emplace_back(row, index_of(p.cols, tuple(table.cols)));
  }
  return p;
}

std::string format_table(const TableSpec& table, const SweepSpec& spec,
                         std::span<const core::SystemConfig> cfgs,
                         std::span<const CellResult> results) {
  const Pivot p = pivot(table, spec, cfgs);
  const std::size_t nr = p.rows.size();
  const std::size_t nc = p.cols.size();
  std::vector<std::optional<double>> slots(nr * nc);
  for (std::size_t i = 0; i < p.slot.size(); ++i) {
    const double v = metric_value(table.metric, results[i]);
    std::optional<double>& s = slots[p.slot[i].first * nc + p.slot[i].second];
    s = s ? std::min(*s, v) : v;
  }

  // Cell text, column by column: ratios read the base column's slot.
  std::vector<std::vector<std::string>> text(nr,
                                             std::vector<std::string>(nc, "-"));
  for (std::size_t c = 0; c < nc; ++c) {
    std::optional<std::size_t> base;
    if (!table.relative_to.empty()) {
      std::vector<std::string> key = p.cols[c];
      for (const auto& [field, value] : table.relative_to) {
        const auto at = std::find(table.cols.begin(), table.cols.end(), field);
        if (at == table.cols.end()) {
          throw std::logic_error("relative_to key '" + field +
                                 "' is not a column key of '" + table.title +
                                 "'");
        }
        key[static_cast<std::size_t>(at - table.cols.begin())] = value;
      }
      const auto it = std::find(p.cols.begin(), p.cols.end(), key);
      if (it != p.cols.end()) {
        base = static_cast<std::size_t>(it - p.cols.begin());
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      std::optional<double> v = slots[r * nc + c];
      if (!table.relative_to.empty()) {
        const std::optional<double> b =
            base ? slots[r * nc + *base] : std::nullopt;
        const bool speedup = table.relative == Relative::kSpeedup;
        if (v && b && (speedup ? *v : *b) != 0) {
          v = speedup ? *b / *v : *v / *b;
        } else {
          v.reset();
        }
      }
      if (v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", table.precision, *v);
        text[r][c] = buf;
      }
    }
  }

  // Layout: one label column per row key, then one right-aligned column
  // per column-key tuple under one header line per column key.
  std::vector<std::size_t> label_w(table.rows.size());
  std::size_t label_total = 0;
  for (std::size_t k = 0; k < table.rows.size(); ++k) {
    label_w[k] = table.rows[k].size();
    for (const auto& row : p.rows) {
      label_w[k] = std::max(label_w[k], row[k].size());
    }
    label_total += label_w[k] + (k > 0 ? 2 : 0);
  }
  for (const std::string& k : table.cols) {
    label_total = std::max(label_total, k.size());
  }
  std::vector<std::size_t> col_w(nc, 8);
  for (std::size_t c = 0; c < nc; ++c) {
    for (const std::string& h : p.cols[c]) {
      col_w[c] = std::max(col_w[c], h.size());
    }
    for (std::size_t r = 0; r < nr; ++r) {
      col_w[c] = std::max(col_w[c], text[r][c].size());
    }
  }

  std::string out = "\n== " + table.title + " ==\n";
  for (std::size_t j = 0; j < table.cols.size(); ++j) {
    pad(out, table.cols[j], label_total, true);
    for (std::size_t c = 0; c < nc; ++c) {
      out += "  ";
      pad(out, p.cols[c][j], col_w[c], true);
    }
    out += '\n';
  }
  auto labels = [&](const std::vector<std::string>& values) {
    std::string line;
    for (std::size_t k = 0; k < values.size(); ++k) {
      if (k > 0) line += "  ";
      pad(line, values[k], label_w[k], false);
    }
    return line;
  };
  if (!table.rows.empty()) {
    out += labels(table.rows);
    while (out.back() == ' ') out.pop_back();
    out += '\n';
  }
  for (std::size_t r = 0; r < nr; ++r) {
    pad(out, labels(p.rows[r]), label_total, false);
    for (std::size_t c = 0; c < nc; ++c) {
      out += "  ";
      pad(out, text[r][c], col_w[c], true);
    }
    out += '\n';
  }
  return out;
}

}  // namespace amo::bench
