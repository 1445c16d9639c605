// Post-processing passes shared by all tree constructions.
//
// The paper reuses SALT-style post-processing after every heuristic step
// ("We use post-processing techniques as in SALT to refine these issues"):
//   * Steinerization — merge sibling L-shapes through component-wise
//     medians; always wirelength-non-increasing and delay-neutral;
//   * edge substitution — re-parent a node (or attach it inside an existing
//     edge's bounding box) when that Pareto-improves the tree;
//   * normalization — drop dangling Steiner nodes, splice pass-throughs.
#pragma once

#include <cstdint>
#include <vector>

#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::tree {

/// Objective bias for edge substitution.
enum class RefineMode {
  kWirelength,  ///< accept moves that cut w without hurting d
  kDelay,       ///< accept moves that cut d without hurting w
  kEither,      ///< accept any weak Pareto improvement
};

/// Preorder numbering for O(1) subtree tests: after build(), node u lies
/// in subtree(v) iff tin[v] <= tin[u] < tout[v], which is
/// RoutingTree::in_subtree(u, v) without the walk up the parents.
struct PreorderIntervals {
  std::vector<std::size_t> order;   ///< nodes in preorder, root first
  std::vector<std::uint32_t> tin;   ///< position of each node in `order`
  std::vector<std::uint32_t> tout;  ///< one past the end of its subtree

  /// Numbers the tree given by its children lists (RoutingTree::children).
  void build(const std::vector<std::vector<std::int32_t>>& children);

  bool in_subtree(std::size_t u, std::size_t v) const {
    return tin[v] <= tin[u] && tin[u] < tout[v];
  }
};

/// One full Steinerization sweep (repeated to fixpoint internally):
/// for every node with >= 2 children, merges the best sibling pair through
/// the median Steiner point.  Returns the wirelength saved.
Length steinerize(RoutingTree& t);

/// One edge-substitution pass.  Returns true when a move was applied.
bool edge_substitution_pass(RoutingTree& t, RefineMode mode);

/// Full refinement pipeline: normalize, Steinerize, then edge substitution
/// until fixpoint (bounded by `max_passes`), normalize again.
void refine(RoutingTree& t, RefineMode mode, int max_passes = 8);

/// Produces Pareto-diverse refined variants of a tree (wirelength-biased
/// and delay-biased), used to enrich candidate sets in the local search.
std::vector<RoutingTree> refined_variants(const RoutingTree& t);

}  // namespace patlabor::tree
