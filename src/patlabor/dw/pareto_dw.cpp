#include "patlabor/dw/pareto_dw.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "patlabor/geom/box.hpp"
#include "patlabor/geom/hanan.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/util/arena.hpp"

namespace patlabor::dw {

using geom::BBox;
using geom::HananGrid;
using geom::Length;
using geom::Net;
using geom::NodeId;
using geom::Point;
using pareto::Objective;
using tree::RoutingTree;

namespace {

// Provenance of a DP entry, for tree reconstruction.
//
// Each state (v, mask) keeps two Pareto sets as {offset, count} spans into
// shared append-only arenas (see util/arena.hpp):
//   base:  Pareto set of the merge phase (and leaf base case); entries
//          reference `final` spans of strictly smaller masks.
//   final: Pareto set of base ∪ grow candidates; grow entries reference the
//          `base` span of their origin node at the same mask (one grow
//          round reaches the closure because L1 obeys the triangle
//          inequality), copy entries reference `base` of the same state.
//
// Candidates stream into a reused pareto::OnlineStaircase; its survivors
// are committed to the arena in staircase order, so a state costs zero
// heap allocations at steady state.  Both arenas live for the whole solve:
// reconstruction traverses spans of every mask.
struct MergeRef {
  std::uint32_t sub = 0;   // one side of the partition; 0 => leaf
  std::int32_t ia = -1;    // index into final(v, sub)
  std::int32_t ib = -1;    // index into final(v, mask^sub)
};

struct GrowRef {
  NodeId from = -1;        // grow origin; -1 => copy of own base entry
  std::int32_t idx = -1;   // index into base(from or v, mask)
};

struct BaseEntry {
  Objective obj;
  MergeRef ref;
};

struct FinalEntry {
  Objective obj;
  GrowRef ref;
};

struct State {
  util::ArenaSpan base;
  util::ArenaSpan final_;
};

}  // namespace

/// The reusable half of the solver: everything whose capacity survives a
/// solve.  Cleared (cheaply — clear() keeps capacity) by the Solver ctor,
/// so a stale scratch can never leak results into the next solve.
struct DwScratch::Impl {
  std::vector<NodeId> active;      // nodes surviving corner pruning
  std::vector<NodeId> sink_node;   // grid node of each sink
  std::vector<State> states;
  util::Arena<BaseEntry> base_arena;
  util::Arena<FinalEntry> final_arena;
  // Per solve, over the A active positions: dist[a * A + b] is the L1
  // distance, nearest[a * (A - 1) ...] lists the other positions of a
  // nearest-first.
  std::vector<Length> dist;
  std::vector<std::uint32_t> nearest;
  std::vector<Objective> corner;  // per position, at the current mask
  pareto::OnlineStaircase<MergeRef> merge_set;
  pareto::OnlineStaircase<GrowRef> grow_set;
};

DwScratch::DwScratch() : impl_(std::make_unique<Impl>()) {}
DwScratch::~DwScratch() = default;
DwScratch::DwScratch(DwScratch&&) noexcept = default;
DwScratch& DwScratch::operator=(DwScratch&&) noexcept = default;

namespace {

class Solver {
 public:
  Solver(const Net& net, const ParetoDwOptions& options, DwScratch::Impl& s)
      : net_(net), options_(options), grid_(net.pins), s_(s) {
    s_.active.clear();
    s_.base_arena.clear();
    s_.final_arena.clear();
  }

  ParetoDwResult run();

 private:
  State& state(NodeId v, std::uint32_t mask) {
    return s_.states[static_cast<std::size_t>(v) * (full_ + 1) + mask];
  }
  const State& state(NodeId v, std::uint32_t mask) const {
    return s_.states[static_cast<std::size_t>(v) * (full_ + 1) + mask];
  }

  void solve_mask(std::uint32_t mask);
  void reconstruct_base(NodeId v, std::uint32_t mask, std::int32_t idx,
                        std::vector<std::pair<Point, Point>>& edges) const;
  void reconstruct_final(NodeId v, std::uint32_t mask, std::int32_t idx,
                         std::vector<std::pair<Point, Point>>& edges) const;

  const Net& net_;
  ParetoDwOptions options_;
  HananGrid grid_;
  std::uint32_t full_ = 0;
  DwScratch::Impl& s_;  // reusable storage (arenas, states, scratch rows)
  std::uint64_t created_ = 0;
  std::uint64_t merge_cands_ = 0;   // merge-phase points offered to the kernel
  std::uint64_t grow_cands_ = 0;    // grow-phase points offered to the kernel
  std::uint64_t grow_skipped_ = 0;  // grow lists rejected by their corner
  std::uint64_t grow_exits_ = 0;    // grow rows cut short by the bound
  std::uint64_t kept_ = 0;          // entries surviving the Pareto filters
};

void Solver::solve_mask(std::uint32_t mask) {
  const std::size_t nsinks = net_.degree() - 1;
  const std::size_t na = s_.active.size();

  // Bounding box of the sinks in `mask` (Lemma 3 restriction).
  BBox bb;
  for (std::size_t i = 0; i < nsinks; ++i)
    if (mask & (1u << i)) bb.expand(net_.pins[i + 1]);

  // ---- Merge phase (or leaf base case) ----
  // Candidates are offered in enumeration order under a running key, so
  // equal objectives resolve to the first-enumerated (sub, a, b).
  auto& merged = s_.merge_set;
  for (NodeId v : s_.active) {
    const Point pv = grid_.point(v);
    if (options_.bbox_restriction && !bb.contains(pv)) continue;
    State& st = state(v, mask);
    if ((mask & (mask - 1)) == 0) {
      const std::size_t i = static_cast<std::size_t>(std::countr_zero(mask));
      const Length len = grid_.dist(v, s_.sink_node[i]);
      const std::uint32_t m = s_.base_arena.mark();
      s_.base_arena.push_back(BaseEntry{Objective{len, len}, MergeRef{}});
      st.base = s_.base_arena.since(m);
      ++created_;
      continue;
    }
    merged.clear();
    std::uint64_t key = 0;
    const std::uint32_t low = mask & (~mask + 1);
    for (std::uint32_t sub = (mask - 1) & mask; sub > 0;
         sub = (sub - 1) & mask) {
      if (!(sub & low)) continue;  // canonical side contains the lowest bit
      const std::uint32_t rest = mask ^ sub;
      const auto fa = s_.final_arena.view(state(v, sub).final_);
      const auto fb = s_.final_arena.view(state(v, rest).final_);
      for (std::size_t a = 0; a < fa.size(); ++a) {
        for (std::size_t b = 0; b < fb.size(); ++b) {
          merged.insert(Objective{fa[a].obj.w + fb[b].obj.w,
                                  std::max(fa[a].obj.d, fb[b].obj.d)},
                        key++,
                        MergeRef{sub, static_cast<std::int32_t>(a),
                                 static_cast<std::int32_t>(b)});
        }
      }
    }
    const std::uint32_t m = s_.base_arena.mark();
    for (const auto& e : merged.entries())
      s_.base_arena.push_back(BaseEntry{e.obj, e.payload});
    st.base = s_.base_arena.since(m);
    created_ += st.base.size();
    merge_cands_ += key;
    kept_ += st.base.size();
  }

  // ---- Grow phase: one L1-closure round from every base set ----
  // Ties between equal candidates go to the first in the order "own base,
  // then each other active node in active order".  The keys encode that
  // order (own point i -> i; point i shifted from active position pu ->
  // ((pu + 1) << 32) | i), so visiting origins nearest-first moves no
  // tie-break.  Near origins make the staircase tight early: a farther
  // origin's whole list is then usually dominated at its corner (least w,
  // least d of its base set) and skipped without a single insert.  The
  // corners of one mask sit in one contiguous row; w < 0 marks an empty
  // base.  (wmin, dmin) is the least corner of the row: once it, shifted
  // by the current distance, is dominated, so is every later corner
  // (distances only grow), and the row ends there (§12.4).
  Length wmin = std::numeric_limits<Length>::max();
  Length dmin = std::numeric_limits<Length>::max();
  for (std::size_t pu = 0; pu < na; ++pu) {
    const auto ub = s_.base_arena.view(state(s_.active[pu], mask).base);
    if (ub.empty()) {
      s_.corner[pu] = Objective{-1, -1};
      continue;
    }
    const Objective c{ub.front().obj.w, ub.back().obj.d};
    s_.corner[pu] = c;
    wmin = std::min(wmin, c.w);
    dmin = std::min(dmin, c.d);
  }
  auto& grown = s_.grow_set;
  for (std::size_t pv = 0; pv < na; ++pv) {
    State& st = state(s_.active[pv], mask);
    grown.clear();
    const auto own = s_.base_arena.view(st.base);
    for (std::size_t i = 0; i < own.size(); ++i)
      grown.insert(own[i].obj, i,
                   GrowRef{-1, static_cast<std::int32_t>(i)});
    grow_cands_ += own.size();
    const std::uint32_t* order = s_.nearest.data() + pv * (na - 1);
    for (std::size_t k = 0; k + 1 < na; ++k) {
      const std::uint32_t pu = order[k];
      const Objective& c = s_.corner[pu];
      if (c.w < 0) continue;
      const Length len = s_.dist[pv * na + pu];
      // Every shifted point is no better than the shifted corner in both
      // coordinates, so a dominated corner rejects the whole list.  The
      // bound is tested only then: it lies below this corner, so it can
      // be dominated only where the corner is too.
      if (grown.dominated(Objective{c.w + len, c.d + len})) {
        ++grow_skipped_;
        if (grown.dominated(Objective{wmin + len, dmin + len})) {
          ++grow_exits_;
          break;
        }
        continue;
      }
      const NodeId u = s_.active[pu];
      const auto ub = s_.base_arena.view(state(u, mask).base);
      const std::uint64_t hi = static_cast<std::uint64_t>(pu + 1) << 32;
      for (std::size_t i = 0; i < ub.size(); ++i) {
        const Objective& o = ub[i].obj;
        grown.insert(Objective{o.w + len, o.d + len}, hi | i,
                     GrowRef{u, static_cast<std::int32_t>(i)});
      }
      grow_cands_ += ub.size();
    }
    const std::uint32_t m = s_.final_arena.mark();
    for (const auto& e : grown.entries())
      s_.final_arena.push_back(FinalEntry{e.obj, e.payload});
    st.final_ = s_.final_arena.since(m);
    created_ += st.final_.size();
    kept_ += st.final_.size();
  }
}

void Solver::reconstruct_base(
    NodeId v, std::uint32_t mask, std::int32_t idx,
    std::vector<std::pair<Point, Point>>& edges) const {
  const BaseEntry& e =
      s_.base_arena.at(state(v, mask).base, static_cast<std::uint32_t>(idx));
  if (e.ref.sub == 0) {
    const std::size_t i = static_cast<std::size_t>(std::countr_zero(mask));
    const NodeId s = s_.sink_node[i];
    if (s != v) edges.emplace_back(grid_.point(v), grid_.point(s));
    return;
  }
  reconstruct_final(v, e.ref.sub, e.ref.ia, edges);
  reconstruct_final(v, mask ^ e.ref.sub, e.ref.ib, edges);
}

void Solver::reconstruct_final(
    NodeId v, std::uint32_t mask, std::int32_t idx,
    std::vector<std::pair<Point, Point>>& edges) const {
  const FinalEntry& e =
      s_.final_arena.at(state(v, mask).final_, static_cast<std::uint32_t>(idx));
  if (e.ref.from < 0) {
    reconstruct_base(v, mask, e.ref.idx, edges);
    return;
  }
  edges.emplace_back(grid_.point(v), grid_.point(e.ref.from));
  reconstruct_base(e.ref.from, mask, e.ref.idx, edges);
}

ParetoDwResult Solver::run() {
  PL_SPAN("dw.run");
  const std::size_t n = net_.degree();
  assert(n >= 2 && n <= 17 && "Pareto-DW is for small-degree nets");
  const std::size_t nsinks = n - 1;
  full_ = (1u << nsinks) - 1;

  // Node universe after Lemma 2 pruning.
  std::vector<bool> prunable(static_cast<std::size_t>(grid_.num_nodes()),
                             false);
  if (options_.corner_pruning) prunable = grid_.corner_prunable(net_.pins);
  for (NodeId v = 0; v < grid_.num_nodes(); ++v)
    if (!prunable[static_cast<std::size_t>(v)]) s_.active.push_back(v);

  // Active x active distances, and each position's others nearest-first
  // (ties by active position), for the grow phase.
  const std::size_t na = s_.active.size();
  s_.dist.resize(na * na);
  for (std::size_t a = 0; a < na; ++a)
    for (std::size_t b = 0; b < na; ++b)
      s_.dist[a * na + b] = grid_.dist(s_.active[a], s_.active[b]);
  s_.corner.resize(na);
  s_.nearest.resize(na * (na - 1));
  for (std::size_t a = 0; a < na; ++a) {
    std::uint32_t* row = s_.nearest.data() + a * (na - 1);
    std::size_t k = 0;
    for (std::size_t b = 0; b < na; ++b)
      if (b != a) row[k++] = static_cast<std::uint32_t>(b);
    const Length* da = s_.dist.data() + a * na;
    std::sort(row, row + (na - 1), [da](std::uint32_t x, std::uint32_t y) {
      return da[x] != da[y] ? da[x] < da[y] : x < y;
    });
  }

  s_.sink_node.resize(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    s_.sink_node[i] = grid_.node_at(net_.pins[i + 1]);

  s_.states.assign(static_cast<std::size_t>(grid_.num_nodes()) * (full_ + 1),
                 State{});

  for (std::uint32_t mask = 1; mask <= full_; ++mask) solve_mask(mask);

  const NodeId root = grid_.node_at(net_.pins[0]);
  const State& answer = state(root, full_);
  const auto answer_final = s_.final_arena.view(answer.final_);

  ParetoDwResult result;
  result.solutions_created = created_;
  // final_ sets are Pareto-filtered in objective order, so the collected
  // frontier already satisfies the staircase invariant.
  pareto::ObjVec frontier;
  frontier.reserve(answer_final.size());
  for (const FinalEntry& e : answer_final) frontier.push_back(e.obj);
  result.frontier = pareto::SolutionSet::adopt_staircase(std::move(frontier));
  if (options_.want_trees) {
    result.trees.reserve(answer_final.size());
    for (std::size_t i = 0; i < answer_final.size(); ++i) {
      std::vector<std::pair<Point, Point>> edges;
      reconstruct_final(root, full_, static_cast<std::int32_t>(i), edges);
      RoutingTree t = RoutingTree::from_edges(net_, edges);
      t.normalize();
      result.trees.push_back(std::move(t));
    }
  }
  // Hot-loop tallies are accumulated locally and flushed once per solve.
  PL_COUNT("dw.runs", 1);
  PL_COUNT("dw.states_expanded", created_);
  PL_COUNT("dw.merge_candidates", merge_cands_);
  PL_COUNT("dw.grow_candidates", grow_cands_);
  PL_COUNT("dw.grow_lists_skipped", grow_skipped_);
  PL_COUNT("dw.grow_early_exits", grow_exits_);
  PL_COUNT("pareto.points_filtered", merge_cands_ + grow_cands_ - kept_);
  PL_HIST("dw.frontier_size", result.frontier.size());
  return result;
}

}  // namespace

ParetoDwResult pareto_dw(const Net& net, const ParetoDwOptions& options,
                         DwScratch* scratch) {
  if (net.degree() == 1) {
    ParetoDwResult r;
    r.frontier = pareto::SolutionSet::adopt_staircase({Objective{0, 0}});
    if (options.want_trees) {
      RoutingTree t = RoutingTree::star(net);
      r.trees.push_back(std::move(t));
    }
    return r;
  }
  if (scratch != nullptr) {
    Solver solver(net, options, scratch->impl());
    return solver.run();
  }
  DwScratch local;
  Solver solver(net, options, local.impl());
  return solver.run();
}

pareto::SolutionSet pareto_frontier(const Net& net) {
  ParetoDwOptions opts;
  opts.want_trees = false;
  return pareto_dw(net, opts).frontier;
}

}  // namespace patlabor::dw
