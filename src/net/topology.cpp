#include "net/topology.hpp"

#include <bit>
#include <cassert>

namespace amo::net {

namespace {

std::uint32_t div_ceil(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

}  // namespace

std::uint32_t fat_tree_height(std::uint32_t num_nodes, std::uint32_t radix) {
  std::uint32_t height = 0;
  for (std::uint32_t e = num_nodes; e > 1; e = div_ceil(e, radix)) ++height;
  return height;
}

Topology::Topology(std::uint32_t num_nodes, std::uint32_t radix)
    : num_nodes_(num_nodes), radix_(radix) {
  assert(num_nodes >= 1);
  assert(radix >= 2);
  if (std::has_single_bit(radix)) {
    radix_shift_ = static_cast<std::uint32_t>(std::countr_zero(radix));
  }
  // A one-node system gets no routers (and no links); a system that fits
  // under one leaf router gets exactly one level.
  entities_per_level_.push_back(num_nodes);
  for (std::uint32_t k = fat_tree_height(num_nodes, radix); k > 0; --k) {
    entities_per_level_.push_back(div_ceil(entities_per_level_.back(), radix));
  }
  // Links exist between level k entities and their level k+1 parents,
  // for k in [0, levels-1]. Lay out flat indices: for each level, first all
  // "up" links (one per child entity), then all "down" links.
  std::uint32_t base = 0;
  for (std::uint32_t k = 0; k + 1 < entities_per_level_.size(); ++k) {
    up_link_base_.push_back(base);
    base += entities_per_level_[k];
    down_link_base_.push_back(base);
    base += entities_per_level_[k];
  }
  num_links_ = base;
  // Uniform default latency; the Network overwrites this with its
  // hop_cycles knob (and callers may supply a non-uniform table).
  link_latency_.assign(levels(), sim::Cycle{1});
  // radix^level per level, saturated at num_nodes so membership math never
  // overflows (a root entity always covers every node).
  std::uint64_t span = 1;
  for (std::size_t l = 0; l < entities_per_level_.size(); ++l) {
    subtree_span_.push_back(
        static_cast<std::uint32_t>(span < num_nodes_ ? span : num_nodes_));
    span *= radix_;
  }
}

void Topology::set_link_latencies(const std::vector<sim::Cycle>& latencies) {
  assert(latencies.size() == levels());
  for ([[maybe_unused]] sim::Cycle c : latencies) assert(c > 0);
  link_latency_ = latencies;
}

RouteWalker::RouteWalker(const Topology& topo, sim::NodeId src,
                         sim::NodeId dst)
    : radix_(topo.radix()), shift_(topo.radix_shift()), up_entity_(src) {
  assert(src != dst);
  assert(src < topo.num_nodes() && dst < topo.num_nodes());
  // One pass up the tree: find the common ancestor level and record dst's
  // ancestor at every level below it (chain_[0] = dst itself).
  std::uint32_t ea = src;
  std::uint32_t eb = dst;
  if (shift_ != 0) {
    while (ea != eb) {
      assert(common_ < kMaxLevels);
      chain_[common_] = eb;
      ea >>= shift_;
      eb >>= shift_;
      ++common_;
    }
  } else {
    while (ea != eb) {
      assert(common_ < kMaxLevels);
      chain_[common_] = eb;
      ea /= radix_;
      eb /= radix_;
      ++common_;
    }
  }
  down_ = common_;
}

std::uint32_t Topology::common_level(sim::NodeId a, sim::NodeId b) const {
  assert(a != b);
  std::uint32_t level = 0;
  std::uint32_t ea = a;
  std::uint32_t eb = b;
  while (ea != eb) {
    ea /= radix_;
    eb /= radix_;
    ++level;
  }
  return level;
}

std::uint32_t Topology::hop_count(sim::NodeId a, sim::NodeId b) const {
  if (a == b) return 0;
  return 2 * common_level(a, b);
}

std::vector<LinkRef> Topology::route(sim::NodeId src, sim::NodeId dst) const {
  assert(src != dst);
  assert(src < num_nodes_ && dst < num_nodes_);
  const std::uint32_t m = common_level(src, dst);
  std::vector<LinkRef> path;
  path.reserve(2 * m);
  std::uint32_t e = src;
  for (std::uint32_t k = 0; k < m; ++k) {
    path.push_back(LinkRef{k, e, /*up=*/true});
    e /= radix_;
  }
  // Descend: compute dst's ancestor chain, then emit top-down.
  std::vector<std::uint32_t> chain(m);
  e = dst;
  for (std::uint32_t k = 0; k < m; ++k) {
    chain[k] = e;
    e /= radix_;
  }
  for (std::uint32_t k = m; k-- > 0;) {
    path.push_back(LinkRef{k, chain[k], /*up=*/false});
  }
  return path;
}

}  // namespace amo::net
