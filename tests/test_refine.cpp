#include <gtest/gtest.h>

#include "patlabor/rsmt/mst.hpp"
#include "patlabor/tree/refine.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;
using geom::Point;
using tree::RefineMode;
using tree::RoutingTree;

TEST(Steinerize, MergesSharedLPrefix) {
  // Source at origin, two sinks sharing a long common trunk: the star costs
  // 2*(10+1) = 22; a Steiner point at (10,0)... median(0,0 /10,1 /10,-1) is
  // (10,0): wirelength drops to 10 + 1 + 1 = 12.
  Net net;
  net.pins = {{0, 0}, {10, 1}, {10, -1}};
  RoutingTree t = RoutingTree::star(net);
  const auto saved = tree::steinerize(t);
  EXPECT_EQ(saved, 10);
  EXPECT_EQ(t.wirelength(), 12);
  EXPECT_EQ(t.delay(), 11);  // unchanged: medians lie on monotone paths
  EXPECT_TRUE(t.validate().empty());
}

TEST(Steinerize, NoGainLeavesTreeAlone) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {-10, 0}};
  RoutingTree t = RoutingTree::star(net);
  EXPECT_EQ(tree::steinerize(t), 0);
  EXPECT_EQ(t.wirelength(), 20);
}

TEST(Steinerize, NeverIncreasesWirelengthOrDelay) {
  util::Rng rng(21);
  for (int it = 0; it < 30; ++it) {
    const Net net = testing::random_net(rng, 8);
    RoutingTree t = rsmt::rectilinear_mst(net);
    const auto before = t.objective();
    tree::steinerize(t);
    const auto after = t.objective();
    EXPECT_LE(after.w, before.w);
    EXPECT_EQ(after.d, before.d);  // Steinerization is delay-neutral
    EXPECT_TRUE(t.validate().empty());
  }
}

TEST(EdgeSubstitution, DelayModeShortensDetour) {
  // Chain 0 -> 1 -> 2 where pin 2 is close to the source: re-parenting 2
  // directly to 0 cuts the delay.
  Net net;
  net.pins = {{0, 0}, {100, 0}, {10, 5}};
  RoutingTree t = RoutingTree::star(net);
  t.set_parent(2, 1);  // detour via the far pin
  EXPECT_EQ(t.delay(), 195);
  EXPECT_TRUE(tree::edge_substitution_pass(t, RefineMode::kDelay));
  EXPECT_LE(t.delay(), 100);
  EXPECT_LE(t.wirelength(), 195);
  EXPECT_TRUE(t.validate().empty());
}

TEST(EdgeSubstitution, RespectsModeConstraints) {
  util::Rng rng(22);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 9);
    RoutingTree t = rsmt::rectilinear_mst(net);
    for (const RefineMode mode :
         {RefineMode::kWirelength, RefineMode::kDelay, RefineMode::kEither}) {
      RoutingTree u = t;
      const auto before = u.objective();
      while (tree::edge_substitution_pass(u, mode)) {
      }
      const auto after = u.objective();
      EXPECT_TRUE(u.validate().empty());
      // Every accepted move is a weak Pareto improvement.
      EXPECT_LE(after.w, before.w);
      EXPECT_LE(after.d, before.d);
      if (mode == RefineMode::kWirelength) {
        EXPECT_LE(after.w, before.w);
      }
      if (mode == RefineMode::kDelay) {
        EXPECT_LE(after.d, before.d);
      }
    }
  }
}

TEST(Refine, PipelinePreservesValidityAndImproves) {
  util::Rng rng(23);
  for (int it = 0; it < 15; ++it) {
    const Net net = testing::random_net(rng, 12);
    RoutingTree t = rsmt::rectilinear_mst(net);
    const auto before = t.objective();
    tree::refine(t, RefineMode::kEither);
    EXPECT_TRUE(t.validate().empty()) << t.validate();
    const auto after = t.objective();
    EXPECT_LE(after.w, before.w);
    EXPECT_LE(after.d, before.d);
  }
}

TEST(Refine, VariantsAreValidAndDiverse) {
  util::Rng rng(24);
  const Net net = testing::random_net(rng, 15);
  RoutingTree t = rsmt::rectilinear_mst(net);
  const auto variants = tree::refined_variants(t);
  ASSERT_EQ(variants.size(), 3u);
  for (const auto& v : variants) EXPECT_TRUE(v.validate().empty());
}

TEST(Refine, TwoPinNetIsAFixpoint) {
  Net net;
  net.pins = {{0, 0}, {7, 3}};
  RoutingTree t = RoutingTree::star(net);
  tree::refine(t, RefineMode::kEither);
  EXPECT_EQ(t.objective(), (pareto::Objective{10, 10}));
}

// The preorder-interval subtree test answers exactly what the parent walk
// of RoutingTree::in_subtree answers, for every ordered node pair of random
// trees (random shapes, Steiner nodes, non-monotone node numbering).
TEST(PreorderIntervals, MatchesInSubtreeOnRandomTrees) {
  util::Rng rng(2030);
  for (int it = 0; it < 200; ++it) {
    const Net net = testing::random_net(rng, 2 + rng.index(14), 100, true);
    RoutingTree t = RoutingTree::star(net);
    const std::size_t steiner = rng.index(6);
    for (std::size_t k = 0; k < steiner; ++k)
      t.add_steiner(Point{0, 0}, 0);
    // Attach the nodes in a random order, each below one attached earlier.
    std::vector<std::size_t> perm(t.num_nodes() - 1);
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i + 1;
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[rng.index(i)]);
    for (std::size_t k = 0; k < perm.size(); ++k) {
      const std::size_t p = rng.index(k + 1);
      const std::size_t parent = p == 0 ? 0 : perm[p - 1];
      t.set_parent(perm[k], static_cast<std::int32_t>(parent));
    }
    ASSERT_TRUE(t.validate().empty()) << t.validate();
    tree::PreorderIntervals pre;
    pre.build(t.children());
    ASSERT_EQ(pre.order.size(), t.num_nodes());
    EXPECT_EQ(pre.order.front(), 0u);
    for (std::size_t u = 0; u < t.num_nodes(); ++u)
      for (std::size_t v = 0; v < t.num_nodes(); ++v)
        ASSERT_EQ(pre.in_subtree(u, v), t.in_subtree(u, v))
            << "u=" << u << " v=" << v << " tree " << it;
  }
}

// Digest of tree::refine in all three modes, from the rectilinear MST and
// from the star, over seeded degree 10-24 nets (uniform and tie-heavy).
// Recorded with parent-walking subtree tests; any faster subtree test must
// pick the same moves, so the same trees.
TEST(Refine, GoldenDigestOfRefinedTrees) {
  testing::Digest digest;
  util::Rng rng(2028);
  for (std::size_t degree = 10; degree <= 24; ++degree) {
    for (const Net& net : {netgen::uniform_net(rng, degree),
                           testing::random_net(rng, degree, 40, true)}) {
      for (const RoutingTree& start :
           {rsmt::rectilinear_mst(net), RoutingTree::star(net)}) {
        for (const RefineMode mode : {RefineMode::kWirelength,
                                      RefineMode::kDelay,
                                      RefineMode::kEither}) {
          RoutingTree t = start;
          tree::refine(t, mode);
          digest.mix(t);
        }
      }
    }
  }
  EXPECT_EQ(digest.h, 0x3ec3c93992bc1204ull)
      << std::hex << "digest 0x" << digest.h;
}

}  // namespace
}  // namespace patlabor
