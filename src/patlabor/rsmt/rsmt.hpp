// Rectilinear Steiner minimum tree construction — the FLUTE substitute.
//
// The paper uses FLUTE [4] for (a) the initial tree T0 of the local search
// and (b) the wirelength normalizer w(FLUTE) in Fig. 7.  We fill that role
// with an exact Hanan-grid Dreyfus-Wagner for small nets (<= kExactMaxDegree
// pins, where it is provably optimal — at least as good as FLUTE) and an
// MST + Steinerization/edge-substitution heuristic above that.
//
// The exact DP keeps one scalar cost per (grid node, sink subset).  Its
// grow step, dp[v] = min over u of dp[u] + dist(u, v), runs as 1-D sweeps
// instead of a scan over node pairs: the L1 distance is the x gap sum plus
// the y gap sum, so a forward and a backward pass along every row (over
// HananGrid::x_gaps) and then along every column (over y_gaps) carry each
// node's best (cost, origin) pair one gap at a time.  That is O(nv) per
// subset rather than O(nv^2).  The pairs compare lexicographically, so a
// cost tie goes to the lowest-index origin, and v grows only when strictly
// cheaper than its merge value: the choices, hence the trees, are those of
// the pairwise scan in index order.
#pragma once

#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::rsmt {

/// Largest degree routed exactly (3^n DP is comfortable through 10 pins).
inline constexpr std::size_t kExactMaxDegree = 10;

/// Exact RSMT by scalar Dreyfus-Wagner on the Hanan grid.
/// Requires net.degree() <= kExactMaxDegree.
tree::RoutingTree exact_rsmt(const geom::Net& net);

/// Heuristic RSMT: rectilinear MST followed by Steinerization and
/// wirelength-biased edge substitution.  Any degree.
tree::RoutingTree rsmt_heuristic(const geom::Net& net);

/// Dispatcher: exact for small nets, heuristic otherwise.  This is the
/// library's "FLUTE" entry point.
tree::RoutingTree rsmt(const geom::Net& net);

}  // namespace patlabor::rsmt
