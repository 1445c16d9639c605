#include "patlabor/rsmt/rsmt.hpp"

#include <bit>
#include <cassert>
#include <limits>
#include <utility>
#include <vector>

#include "patlabor/geom/hanan.hpp"
#include "patlabor/rsmt/mst.hpp"
#include "patlabor/tree/refine.hpp"

namespace patlabor::rsmt {

using geom::HananGrid;
using geom::Length;
using geom::Net;
using geom::NodeId;
using geom::Point;
using tree::RoutingTree;

namespace {

constexpr Length kInf = std::numeric_limits<Length>::max() / 4;

// Backtracking record for one DP state (v, mask).
struct Choice {
  enum class Kind : std::uint8_t { kLeaf, kMerge, kGrow } kind = Kind::kLeaf;
  std::uint32_t sub = 0;  // merge: one side of the partition
  NodeId from = -1;       // grow: predecessor node
};

// Cheapest known way to reach a node in the grow step, and where from.
struct Reach {
  Length cost = kInf;
  NodeId origin = -1;
  bool operator<(const Reach& o) const {
    return cost != o.cost ? cost < o.cost : origin < o.origin;
  }
};

}  // namespace

RoutingTree exact_rsmt(const Net& net) {
  const std::size_t n = net.degree();
  assert(n >= 2 && n <= kExactMaxDegree);
  const HananGrid grid(net.pins);
  const int nv = grid.num_nodes();
  const std::size_t nsinks = n - 1;
  const std::uint32_t full = (1u << nsinks) - 1;

  // dp[v][mask]: cheapest forest-free cost of a tree rooted anywhere that
  // connects node v with the sink set `mask`.
  std::vector<std::vector<Length>> dp(
      static_cast<std::size_t>(nv), std::vector<Length>(full + 1, kInf));
  std::vector<std::vector<Choice>> how(
      static_cast<std::size_t>(nv), std::vector<Choice>(full + 1));

  // Grow-step scratch: per node, the best (cost, origin) found so far,
  // relaxed across one grid gap at a time.
  std::vector<Reach> reach(static_cast<std::size_t>(nv));
  const int nx = grid.nx();
  const int ny = grid.ny();
  const auto x_gaps = grid.x_gaps();
  const auto y_gaps = grid.y_gaps();
  const auto relax = [&reach](NodeId v, NodeId from, Length gap) {
    const Reach& f = reach[static_cast<std::size_t>(from)];
    Reach& r = reach[static_cast<std::size_t>(v)];
    const Reach c{f.cost + gap, f.origin};
    if (c < r) r = c;
  };

  std::vector<NodeId> sink_node(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    sink_node[i] = grid.node_at(net.pins[i + 1]);

  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    // Merge step (or base case for singletons).
    for (int v = 0; v < nv; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if ((mask & (mask - 1)) == 0) {
        const std::size_t i = static_cast<std::size_t>(std::countr_zero(mask));
        dp[uv][mask] = grid.dist(static_cast<NodeId>(v), sink_node[i]);
        how[uv][mask] = Choice{Choice::Kind::kLeaf, 0, sink_node[i]};
        continue;
      }
      // Enumerate proper sub-partitions; fix the lowest bit in `sub` to
      // halve the enumeration.
      const std::uint32_t low = mask & (~mask + 1);
      for (std::uint32_t sub = (mask - 1) & mask; sub > 0;
           sub = (sub - 1) & mask) {
        if (!(sub & low)) continue;
        const std::uint32_t rest = mask ^ sub;
        if (rest == 0) continue;
        const Length cost = dp[uv][sub] == kInf || dp[uv][rest] == kInf
                                ? kInf
                                : dp[uv][sub] + dp[uv][rest];
        if (cost < dp[uv][mask]) {
          dp[uv][mask] = cost;
          how[uv][mask] = Choice{Choice::Kind::kMerge, sub, -1};
        }
      }
    }
    // Grow step: one L1-closure round (the grid metric satisfies the
    // triangle inequality, so a single round reaches the closure).  Every
    // v takes the lexicographic minimum of (merged cost of u + dist(u, v),
    // u) over all nodes u, and grows from u when that is strictly cheaper
    // than its own merge value: the lowest-index origin wins a tie, as in
    // a pairwise scan of u in index order.  The L1 distance splits into
    // its x and y parts, so a forward and a backward sweep along every row
    // and then along every column find all the minima in O(nv).
    for (int v = 0; v < nv; ++v)
      reach[static_cast<std::size_t>(v)] =
          Reach{dp[static_cast<std::size_t>(v)][mask], v};
    for (int yi = 0; yi < ny; ++yi) {
      for (int xi = 1; xi < nx; ++xi)
        relax(grid.node(xi, yi), grid.node(xi - 1, yi), x_gaps[xi - 1]);
      for (int xi = nx - 1; xi-- > 0;)
        relax(grid.node(xi, yi), grid.node(xi + 1, yi), x_gaps[xi]);
    }
    for (int xi = 0; xi < nx; ++xi) {
      for (int yi = 1; yi < ny; ++yi)
        relax(grid.node(xi, yi), grid.node(xi, yi - 1), y_gaps[yi - 1]);
      for (int yi = ny - 1; yi-- > 0;)
        relax(grid.node(xi, yi), grid.node(xi, yi + 1), y_gaps[yi]);
    }
    for (int v = 0; v < nv; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (reach[uv].cost < dp[uv][mask]) {
        dp[uv][mask] = reach[uv].cost;
        how[uv][mask] = Choice{Choice::Kind::kGrow, 0, reach[uv].origin};
      }
    }
  }

  // Reconstruct the edge list.
  std::vector<std::pair<Point, Point>> edges;
  const NodeId root = grid.node_at(net.pins[0]);
  std::vector<std::pair<NodeId, std::uint32_t>> stack{{root, full}};
  while (!stack.empty()) {
    const auto [v, mask] = stack.back();
    stack.pop_back();
    const Choice c = how[static_cast<std::size_t>(v)][mask];
    switch (c.kind) {
      case Choice::Kind::kLeaf:
        if (c.from != v) edges.emplace_back(grid.point(v), grid.point(c.from));
        break;
      case Choice::Kind::kMerge:
        stack.emplace_back(v, c.sub);
        stack.emplace_back(v, mask ^ c.sub);
        break;
      case Choice::Kind::kGrow:
        edges.emplace_back(grid.point(v), grid.point(c.from));
        stack.emplace_back(c.from, mask);
        break;
    }
  }

  RoutingTree t = RoutingTree::from_edges(net, edges);
  t.normalize();
  return t;
}

RoutingTree rsmt_heuristic(const Net& net) {
  RoutingTree t = rectilinear_mst(net);
  tree::refine(t, tree::RefineMode::kWirelength);
  return t;
}

RoutingTree rsmt(const Net& net) {
  if (net.degree() <= kExactMaxDegree && net.degree() >= 2)
    return exact_rsmt(net);
  return rsmt_heuristic(net);
}

}  // namespace patlabor::rsmt
