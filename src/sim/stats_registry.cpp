#include "sim/stats_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace amo::sim {

namespace {

Json accum_json(const Accum& a) {
  Json j = Json::object();
  j["count"] = a.count();
  j["sum"] = a.sum();
  j["min"] = a.min();
  j["max"] = a.max();
  j["mean"] = a.mean();
  j["stddev"] = a.stddev();
  return j;
}

Json hist_json(const LogHistogram& h) {
  Json j = Json::object();
  j["count"] = h.count();
  j["sum"] = h.sum();
  j["min"] = h.min();
  j["max"] = h.max();
  j["mean"] = h.mean();
  j["p50"] = h.quantile(0.50);
  j["p90"] = h.quantile(0.90);
  j["p99"] = h.quantile(0.99);
  j["p999"] = h.quantile(0.999);
  return j;
}

}  // namespace

void StatsRegistry::add(const std::string& name, Source source) {
  if (names_.contains(std::string_view{name})) {
    throw std::logic_error("StatsRegistry: duplicate name '" + name + "'");
  }
  entries_.push_back(Entry{name, std::move(source)});
  names_.insert(std::string_view{entries_.back().name});
}

void StatsRegistry::add_counter(const std::string& name,
                                const std::uint64_t* counter) {
  add(name, Source(std::in_place_type<const std::uint64_t*>, counter));
}

void StatsRegistry::add_accum(const std::string& name, const Accum* accum) {
  add(name, Source(std::in_place_type<const Accum*>, accum));
}

void StatsRegistry::add_hist(const std::string& name,
                             const LogHistogram* hist) {
  add(name, Source(std::in_place_type<const LogHistogram*>, hist));
}

Json StatsRegistry::read(const Entry& e) {
  struct Reader {
    Json operator()(const std::uint64_t* p) const { return Json(*p); }
    Json operator()(const Accum* p) const { return accum_json(*p); }
    Json operator()(const LogHistogram* p) const { return hist_json(*p); }
    Json operator()(InlineFnT<std::uint64_t&>& fn) const {
      std::uint64_t out = 0;
      fn(out);
      return Json(out);
    }
    Json operator()(InlineFnT<Accum&>& fn) const {
      Accum out;
      fn(out);
      return accum_json(out);
    }
    Json operator()(InlineFnT<LogHistogram&>& fn) const {
      LogHistogram out;
      fn(out);
      return hist_json(out);
    }
  };
  return std::visit(Reader{}, e.source);
}

Json StatsRegistry::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return read(e);
  }
  throw std::out_of_range("StatsRegistry: no entry named '" + name + "'");
}

Json StatsRegistry::snapshot() const {
  // Names are resolved against the previous entry's path: `path` holds
  // the group segments of the previous name and the object each one
  // names, so a run of entries under one group looks up only the
  // segments after their shared prefix. Those lookups go through
  // `groups`, which maps a group's dotted prefix ("node3", "node3.dir")
  // to the position of its key in the parent object: a machine has
  // thousands of top-level groups, and scanning the root's keys for each
  // would cost their square. Positions rather than pointers, because an
  // insert into an object moves its children in memory; for the same
  // reason the path is cut to an object's own depth before each lookup
  // that may insert into it. A leaf scans only its group's few keys.
  Json root = Json::object();
  std::vector<std::pair<std::string_view, Json*>> path;
  std::unordered_map<std::string_view, std::size_t> groups;
  groups.reserve(entries_.size() / 4);  // no rehash as groups arrive
  for (const Entry& e : entries_) {
    const std::string_view name = e.name;
    std::size_t depth = 0;
    std::size_t start = 0;
    for (std::size_t dot = name.find('.'); dot != std::string_view::npos;
         dot = name.find('.', start)) {
      const std::string_view seg = name.substr(start, dot - start);
      if (depth >= path.size() || path[depth].first != seg) {
        path.resize(depth);
        Json& parent = depth == 0 ? root : *path.back().second;
        Json::Object& kids = parent.items();
        const auto [it, fresh] =
            groups.try_emplace(name.substr(0, dot), kids.size());
        if (fresh) kids.emplace_back(seg, Json::object());
        path.emplace_back(seg, &kids[it->second].second);
      }
      ++depth;
      start = dot + 1;
    }
    path.resize(depth);
    Json& parent = depth == 0 ? root : *path.back().second;
    Json::Object& kids = parent.items();
    const std::string_view leaf = name.substr(start);
    const auto it =
        std::ranges::find(kids, leaf, &Json::Object::value_type::first);
    if (it == kids.end()) {
      kids.emplace_back(leaf, read(e));
    } else {
      it->second = read(e);
    }
  }
  return root;
}

}  // namespace amo::sim
