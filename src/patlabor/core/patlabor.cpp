#include "patlabor/core/patlabor.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/par/worker_context.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/refine.hpp"

namespace patlabor::core {

using geom::Length;
using geom::Net;
using geom::Point;
using pareto::Objective;
using tree::RoutingTree;

namespace {

/// Pareto-filters a tree population by objective, in place.  Selection
/// buffers come from the executing thread's WorkerContext, so steady-state
/// filtering reuses capacity instead of allocating per round.
void filter_population(std::vector<RoutingTree>& trees) {
  const std::size_t before = trees.size();
  auto& scratch = par::WorkerContext::current().get<pareto::FilterScratch>();
  auto set = pareto::SolutionSet::select(tree::objectives(trees), scratch);
  trees = pareto::take_payload(set, std::move(trees));
  PL_COUNT("search.trees_filtered", before - trees.size());
}

}  // namespace

RoutingTree regenerate_subtopology(const RoutingTree& t,
                                   const std::vector<std::size_t>& pins,
                                   const RoutingTree& subtopology,
                                   ReattachMode mode) {
  // A = {source} ∪ selected pins.
  std::vector<bool> in_a(t.num_nodes(), false);
  in_a[0] = true;
  for (std::size_t p : pins) in_a[p] = true;

  // cnt(v) = number of A nodes in subtree(v); the edge (v, parent) lies on
  // the minimal subtree spanning A iff cnt(v) >= 1 (the root side always
  // holds the source).
  const auto ch = t.children();
  std::vector<int> cnt(t.num_nodes(), 0);
  std::vector<std::size_t> order;
  order.reserve(t.num_nodes());
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (std::int32_t c : ch[u]) stack.push_back(static_cast<std::size_t>(c));
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t u = *it;
    if (in_a[u]) ++cnt[u];
    for (std::int32_t c : ch[u]) cnt[u] += cnt[static_cast<std::size_t>(c)];
  }

  // Edge pool: kept tree edges plus the regenerated sub-topology.
  std::vector<std::pair<Point, Point>> edges;
  for (std::size_t v = 1; v < t.num_nodes(); ++v)
    if (cnt[v] == 0)
      edges.emplace_back(t.node(v),
                         t.node(static_cast<std::size_t>(t.parent(v))));
  for (std::size_t w = 1; w < subtopology.num_nodes(); ++w)
    edges.emplace_back(
        subtopology.node(w),
        subtopology.node(static_cast<std::size_t>(subtopology.parent(w))));

  // Net view for the final tree: the original net's pins.
  Net net;
  net.pins.assign(t.nodes().begin(),
                  t.nodes().begin() + static_cast<std::ptrdiff_t>(t.num_pins()));

  // Connected components of the edge pool over interned points; the
  // component containing the source is the core, every other component
  // holding a pin is greedily re-attached at its nearest core point.
  std::map<Point, std::size_t> id;
  std::vector<Point> pts;
  auto intern = [&](const Point& p) {
    auto [it2, inserted] = id.emplace(p, pts.size());
    if (inserted) pts.push_back(p);
    return it2->second;
  };
  for (const Point& p : net.pins) intern(p);
  std::vector<std::size_t> parent_uf;
  auto find = [&](std::size_t x) {
    while (parent_uf[x] != x) x = parent_uf[x] = parent_uf[parent_uf[x]];
    return x;
  };
  for (const auto& [a, b] : edges) {
    intern(a);
    intern(b);
  }
  parent_uf.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) parent_uf[i] = i;
  for (const auto& [a, b] : edges) {
    const std::size_t ra = find(id[a]);
    const std::size_t rb = find(id[b]);
    if (ra != rb) parent_uf[ra] = rb;
  }

  // Pin-bearing components other than the core.
  std::vector<bool> has_pin(pts.size(), false);
  for (const Point& p : net.pins) has_pin[find(id[p])] = true;
  const std::size_t core_root = find(id[net.pins[0]]);

  std::vector<bool> in_core(pts.size(), false);
  for (std::size_t i = 0; i < pts.size(); ++i)
    in_core[i] = find(i) == core_root;

  // Path lengths of core points from the source over the current edge
  // pool (O(V^2) Dijkstra), used by the delay-aware anchor choice.
  auto core_path_lengths = [&]() {
    constexpr Length kUnreached = std::numeric_limits<Length>::max() / 4;
    std::vector<Length> dist(pts.size(), kUnreached);
    std::vector<std::vector<std::size_t>> adj(pts.size());
    for (const auto& [a, b] : edges) {
      adj[id[a]].push_back(id[b]);
      adj[id[b]].push_back(id[a]);
    }
    std::vector<bool> done(pts.size(), false);
    dist[id[net.pins[0]]] = 0;
    for (std::size_t round = 0; round < pts.size(); ++round) {
      std::size_t u = pts.size();
      Length best = kUnreached;
      for (std::size_t v = 0; v < pts.size(); ++v)
        if (!done[v] && dist[v] < best) {
          best = dist[v];
          u = v;
        }
      if (u == pts.size()) break;
      done[u] = true;
      for (std::size_t v : adj[u])
        dist[v] = std::min(dist[v], dist[u] + geom::l1(pts[u], pts[v]));
    }
    return dist;
  };

  while (true) {
    // Best (orphan point, core anchor) pair among pin-bearing orphans:
    // nearest pair, or — delay-aware — minimal anchor-path-plus-edge.
    std::vector<Length> pl;
    if (mode == ReattachMode::kDelayAware) pl = core_path_lengths();
    Length best = std::numeric_limits<Length>::max();
    std::size_t bo = 0, bc = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (in_core[i] || !has_pin[find(i)]) continue;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (!in_core[j]) continue;
        const Length d =
            geom::l1(pts[i], pts[j]) +
            (mode == ReattachMode::kDelayAware ? pl[j] : 0);
        if (d < best) {
          best = d;
          bo = i;
          bc = j;
        }
      }
    }
    if (best == std::numeric_limits<Length>::max()) break;
    edges.emplace_back(pts[bo], pts[bc]);
    const std::size_t orphan_root = find(bo);
    parent_uf[orphan_root] = find(bc);
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (find(i) == find(bc)) in_core[i] = true;
  }

  RoutingTree result = RoutingTree::from_edges(net, edges);
  result.normalize();
  return result;
}

PatLaborResult patlabor(const Net& net, const PatLaborOptions& options) {
  PL_SPAN("core.patlabor");
  PatLaborResult result;
  const std::size_t n = net.degree();
  const std::size_t lambda =
      std::min<std::size_t>(options.lambda, lut::kMaxLutDegree);

  if (n <= lambda || n <= 3) {
    PL_COUNT("search.small_exact", 1);
    auto [frontier, trees] = exact_small_frontier(net, options.table);
    result.frontier = std::move(frontier);
    result.trees = std::move(trees);
    return result;
  }

  // ---- Local search (Section V-B) ----
  std::vector<RoutingTree> population;
  {
    PL_SPAN("search.seed");
    RoutingTree t0 = rsmt::rsmt(net);  // FLUTE's role
    // SALT-style post-processing of the seed gives the population its
    // starting Pareto diversity; the arborescence seed anchors the
    // min-delay corner of the curve (the local search then trades its
    // wirelength down).
    for (RoutingTree& v : tree::refined_variants(t0))
      population.push_back(std::move(v));
    population.push_back(std::move(t0));
    RoutingTree arb = rsma::rsma(net);
    tree::refine(arb, tree::RefineMode::kWirelength, 4);
    population.push_back(std::move(arb));
    filter_population(population);
  }
  std::unordered_set<std::uint64_t> expanded;
  // Coverage rotation: prefer pins not yet regenerated, so one pass of the
  // local search touches every pin (the Remark-1 "each pin once" regime),
  // then continue freely on the worst-delay trees.
  std::vector<bool> untouched(n, true);
  untouched[0] = false;
  std::size_t untouched_left = n - 1;

  const int iterations =
      options.iteration_factor * static_cast<int>(n / lambda);
  PL_SPAN("search.local_search");
  for (int it = 0; it < iterations; ++it) {
    PL_COUNT("search.rounds", 1);
    // Select the worst-delay tree not expanded yet.
    std::size_t pick = population.size();
    Length worst = -1;
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (expanded.count(population[i].structural_hash()) > 0) continue;
      const Length d = population[i].delay();
      if (d > worst) {
        worst = d;
        pick = i;
      }
    }
    if (pick == population.size()) break;  // every tree already expanded
    const RoutingTree target = population[pick];
    expanded.insert(target.structural_hash());
    ++result.iterations;

    const auto pins = options.policy.select_pins(
        target, lambda - 1,
        untouched_left >= lambda - 1 ? &untouched : nullptr);
    if (pins.empty()) break;
    for (std::size_t p : pins) {
      if (untouched[p]) {
        untouched[p] = false;
        --untouched_left;
      }
    }
    Net subnet;
    subnet.pins.push_back(net.source());
    for (std::size_t p : pins) subnet.pins.push_back(target.node(p));

    auto [sub_frontier, sub_trees] = [&] {
      PL_SPAN("search.subnet_solve");
      // A lambda-pin subnet above the table's depth (or with no table)
      // falls through to numeric Pareto-DW.
      if (options.table == nullptr || !options.table->covers(subnet.degree()))
        PL_COUNT("search.subnet_dw_fallback", 1);
      return exact_small_frontier(subnet, options.table);
    }();
    (void)sub_frontier;
    {
      PL_SPAN("search.reattach");
      // Candidate regenerations (one per sub-topology x reattach mode) are
      // independent: evaluate them across the pool, then fold the valid
      // ones into the population in index order.  The ordered reduction
      // keeps the population — and hence the frontier — bit-identical for
      // every pool size.
      constexpr ReattachMode kModes[] = {ReattachMode::kNearest,
                                         ReattachMode::kDelayAware};
      const std::size_t num_jobs = sub_trees.size() * std::size(kModes);
      auto candidates = par::parallel_transform(
          num_jobs,
          [&](std::size_t j) {
            const RoutingTree& sub = sub_trees[j / std::size(kModes)];
            const ReattachMode mode = kModes[j % std::size(kModes)];
            RoutingTree candidate =
                regenerate_subtopology(target, pins, sub, mode);
            if (!candidate.validate().empty()) {
              PL_COUNT("search.moves_rejected", 1);
              return std::optional<RoutingTree>();
            }
            if (options.refine)
              tree::refine(candidate, tree::RefineMode::kEither, 4);
            PL_COUNT("search.moves_accepted", 1);
            return std::optional<RoutingTree>(std::move(candidate));
          },
          options.pool);
      for (std::optional<RoutingTree>& c : candidates)
        if (c.has_value()) population.push_back(std::move(*c));
    }
    filter_population(population);
  }

  filter_population(population);
  std::sort(population.begin(), population.end(),
            [](const RoutingTree& a, const RoutingTree& b) {
              return a.objective() < b.objective();
            });
  // The population is nondominated and sorted by objective, so its
  // objectives are already a staircase.
  result.frontier =
      pareto::SolutionSet::adopt_staircase(tree::objectives(population));
  result.trees = std::move(population);
  return result;
}

SmallFrontier exact_small_frontier(const Net& net,
                                   const lut::LookupTable* table) {
  if (table != nullptr && table->covers(net.degree())) {
    auto q = table->query(net);
    return {std::move(q.frontier), std::move(q.trees)};
  }
  // A table that is present but too shallow for this degree is invisible to
  // query(); count the skip so the stats distinguish it from "no table".
  if (table != nullptr) PL_COUNT("lut.skipped_uncovered", 1);
  // Numeric DW runs in the local-search inner loop whenever the subnet
  // degree exceeds the table (lambda-pin subnets are degree lambda, tables
  // usually stop one short), so solver storage is reused per worker thread
  // — this is where the per-batch allocation count mostly came from.
  auto& scratch = par::WorkerContext::current().get<dw::DwScratch>();
  auto r = dw::pareto_dw(net, {}, &scratch);
  return {std::move(r.frontier), std::move(r.trees)};
}

}  // namespace patlabor::core
