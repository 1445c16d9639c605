#include <gtest/gtest.h>

#include "patlabor/core/pareto_ks.hpp"
#include "patlabor/core/patlabor.hpp"
#include "patlabor/core/trainer.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using core::PatLaborOptions;
using geom::Net;
using pareto::Objective;

// ---- Policy ----

TEST(Policy, SelectsRequestedCountWithoutDuplicates) {
  util::Rng rng(101);
  const Net net = testing::random_net(rng, 20);
  const auto t = rsmt::rsmt_heuristic(net);
  core::Policy policy;
  const auto pins = policy.select_pins(t, 8);
  ASSERT_EQ(pins.size(), 8u);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_GE(pins[i], 1u);  // never the source
    EXPECT_LT(pins[i], net.degree());
    for (std::size_t j = i + 1; j < pins.size(); ++j)
      EXPECT_NE(pins[i], pins[j]);
  }
}

TEST(Policy, FirstPickIsAHighDelayPin) {
  // With the default weights the first selected pin maximizes
  // a1*||r-p|| + a2*dist_T(r,p): it must be the (a-priori) worst pin.
  util::Rng rng(102);
  const Net net = testing::random_net(rng, 15);
  const auto t = rsmt::rsmt_heuristic(net);
  core::Policy policy;
  const auto pins = policy.select_pins(t, 3);
  ASSERT_FALSE(pins.empty());
  const auto& a = policy.params_for(net.degree());
  const auto pl = t.path_lengths();
  double best = -1;
  std::size_t expect = 0;
  for (std::size_t v = 1; v < net.degree(); ++v) {
    const double s =
        a.far_source * static_cast<double>(geom::l1(net.source(), t.node(v))) +
        a.far_tree * static_cast<double>(pl[v]);
    if (s > best) {
      best = s;
      expect = v;
    }
  }
  EXPECT_EQ(pins[0], expect);
}

TEST(Policy, CurriculumBucketsResolveByDegree) {
  core::Policy policy;
  core::PolicyParams p10;
  p10.far_source = 7.0;
  core::PolicyParams p50;
  p50.far_source = 9.0;
  policy.set_params(10, p10);
  policy.set_params(50, p50);
  EXPECT_DOUBLE_EQ(policy.params_for(5).far_source, 1.0);    // defaults
  EXPECT_DOUBLE_EQ(policy.params_for(10).far_source, 7.0);
  EXPECT_DOUBLE_EQ(policy.params_for(49).far_source, 7.0);
  EXPECT_DOUBLE_EQ(policy.params_for(120).far_source, 9.0);
}

// ---- Tree surgery ----

TEST(RegenerateSubtopology, PreservesAllPins) {
  util::Rng rng(103);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 14);
    const auto t = rsmt::rsmt_heuristic(net);
    core::Policy policy;
    const auto pins = policy.select_pins(t, 5);
    Net subnet;
    subnet.pins.push_back(net.source());
    for (std::size_t p : pins) subnet.pins.push_back(t.node(p));
    const auto sub = dw::pareto_dw(subnet);
    ASSERT_FALSE(sub.trees.empty());
    for (const auto& s : sub.trees) {
      const auto rebuilt = core::regenerate_subtopology(t, pins, s);
      EXPECT_TRUE(rebuilt.validate().empty()) << rebuilt.validate();
      EXPECT_EQ(rebuilt.num_pins(), net.degree());
      // Every original pin must still be present at its coordinates.
      for (std::size_t v = 0; v < net.degree(); ++v)
        EXPECT_EQ(rebuilt.node(v), net.pins[v]);
    }
  }
}

TEST(RegenerateSubtopology, DelayAwareValidatesAndPreservesPins) {
  util::Rng rng(113);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 14);
    const auto t = rsmt::rsmt_heuristic(net);
    core::Policy policy;
    const auto pins = policy.select_pins(t, 5);
    Net subnet;
    subnet.pins.push_back(net.source());
    for (std::size_t p : pins) subnet.pins.push_back(t.node(p));
    const auto sub = dw::pareto_dw(subnet);
    ASSERT_FALSE(sub.trees.empty());
    for (const auto& s : sub.trees) {
      const auto rebuilt = core::regenerate_subtopology(
          t, pins, s, core::ReattachMode::kDelayAware);
      EXPECT_TRUE(rebuilt.validate().empty()) << rebuilt.validate();
      EXPECT_EQ(rebuilt.num_pins(), net.degree());
      for (std::size_t v = 0; v < net.degree(); ++v)
        EXPECT_EQ(rebuilt.node(v), net.pins[v]);
    }
  }
}

TEST(RegenerateSubtopology, DelayAwareAnchorsOrphanNearTheSource) {
  // Source s, far pin a, and pin b hanging off a mid-path Steiner node u.
  // Regenerating {a}'s sub-topology deletes s->u->a, orphaning {u, b}.
  // The nearest core point to the orphan is a (L1 45 via u), but a sits at
  // the end of a 100-long source path; the delay-aware mode pays 65 to
  // anchor at the source instead and wins on delay.
  Net net;
  net.pins = {{0, 0}, {100, 0}, {60, 10}};  // s, a, b
  const geom::Point u{60, 5};
  const std::vector<std::pair<geom::Point, geom::Point>> tree_edges{
      {net.pins[0], u}, {u, net.pins[1]}, {u, net.pins[2]}};
  const auto t = tree::RoutingTree::from_edges(net, tree_edges);
  ASSERT_TRUE(t.validate().empty()) << t.validate();

  Net subnet;
  subnet.pins = {net.pins[0], net.pins[1]};
  const std::vector<std::pair<geom::Point, geom::Point>> sub_edges{
      {subnet.pins[0], subnet.pins[1]}};
  const auto sub = tree::RoutingTree::from_edges(subnet, sub_edges);
  const std::vector<std::size_t> pins{1};  // regenerate around pin a

  const auto near = core::regenerate_subtopology(t, pins, sub,
                                                 core::ReattachMode::kNearest);
  const auto aware = core::regenerate_subtopology(
      t, pins, sub, core::ReattachMode::kDelayAware);
  ASSERT_TRUE(near.validate().empty()) << near.validate();
  ASSERT_TRUE(aware.validate().empty()) << aware.validate();

  // kNearest attaches the orphan at a: delay to b = 100 + 45 + 5 = 150.
  // kDelayAware attaches it at s: delay to b = 65 + 5 = 70; max delay is
  // then pin a's 100.
  EXPECT_EQ(near.delay(), 150);
  EXPECT_EQ(aware.delay(), 100);
  EXPECT_LT(aware.delay(), near.delay());
  // The anchor trade-off buys delay with wirelength.
  EXPECT_GT(aware.wirelength(), near.wirelength());
}

// ---- PatLabor ----

TEST(PatLabor, SmallNetsAreExact) {
  util::Rng rng(104);
  for (int it = 0; it < 25; ++it) {
    const std::size_t degree = 4 + rng.index(5);  // 4..8
    const Net net = testing::random_net(rng, degree);
    const auto r = core::patlabor(net);
    EXPECT_EQ(r.frontier, dw::pareto_frontier(net));
    ASSERT_EQ(r.trees.size(), r.frontier.size());
    for (std::size_t i = 0; i < r.trees.size(); ++i)
      EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
  }
}

TEST(PatLabor, SmallNetsUseLutWhenProvided) {
  const lut::LookupTable table = lut::LookupTable::generate(5);
  PatLaborOptions opt;
  opt.table = &table;
  util::Rng rng(105);
  for (int it = 0; it < 15; ++it) {
    const Net net = testing::random_net(rng, 5);
    EXPECT_EQ(core::patlabor(net, opt).frontier, dw::pareto_frontier(net));
  }
}

class PatLaborLargeNets : public ::testing::TestWithParam<int> {};

TEST_P(PatLaborLargeNets, LocalSearchInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(1100 + GetParam()));
  const std::size_t degree = 12 + rng.index(25);  // 12..36
  const Net net = testing::random_net(rng, degree, 5000, true);
  PatLaborOptions opt;
  opt.lambda = 6;  // keep the DW sub-solver cheap in tests
  const auto r = core::patlabor(net, opt);

  ASSERT_FALSE(r.frontier.empty());
  EXPECT_TRUE(pareto::is_pareto_curve(r.frontier));
  EXPECT_GT(r.iterations, 0);
  ASSERT_EQ(r.trees.size(), r.frontier.size());
  const auto t0 = rsmt::rsmt(net);
  for (std::size_t i = 0; i < r.trees.size(); ++i) {
    EXPECT_TRUE(r.trees[i].validate().empty()) << r.trees[i].validate();
    EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
    // Never worse than the seed in both objectives simultaneously.
    EXPECT_TRUE(r.frontier[i].w <= t0.wirelength() ||
                r.frontier[i].d <= t0.delay());
    // Physical lower bounds.
    EXPECT_GE(r.frontier[i].d, rsma::star_delay(net));
  }
  // The population retains a tree no worse in wirelength than the seed.
  EXPECT_LE(r.frontier.front().w, t0.wirelength());
  // Local search should find at least one delay improvement over the RSMT.
  EXPECT_LE(r.frontier.back().d, t0.delay());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatLaborLargeNets, ::testing::Range(0, 10));

TEST(PatLabor, DegenerateAndTinyNets) {
  Net net1;
  net1.pins = {{5, 5}, {5, 5}};  // duplicate pin
  const auto r1 = core::patlabor(net1);
  ASSERT_EQ(r1.frontier.size(), 1u);
  EXPECT_EQ(r1.frontier[0], (Objective{0, 0}));

  Net net2;
  net2.pins = {{0, 0}, {3, 4}};
  EXPECT_EQ(core::patlabor(net2).frontier[0], (Objective{7, 7}));
}

// ---- Pareto-KS ----

TEST(ParetoKs, LeafSizedNetsAreExact) {
  util::Rng rng(106);
  for (int it = 0; it < 10; ++it) {
    const Net net = testing::random_net(rng, 5);
    core::ParetoKsOptions opt;
    opt.leaf_size = 8;
    EXPECT_EQ(core::pareto_ks(net, opt).frontier, dw::pareto_frontier(net));
  }
}

class ParetoKsLarge : public ::testing::TestWithParam<int> {};

TEST_P(ParetoKsLarge, ProducesValidParetoSets) {
  util::Rng rng(static_cast<std::uint64_t>(1200 + GetParam()));
  const std::size_t degree = 12 + rng.index(20);
  const Net net = testing::random_net(rng, degree, 5000, true);
  core::ParetoKsOptions opt;
  opt.leaf_size = 5;
  const auto r = core::pareto_ks(net, opt);
  ASSERT_FALSE(r.frontier.empty());
  EXPECT_TRUE(pareto::is_pareto_curve(r.frontier));
  for (std::size_t i = 0; i < r.trees.size(); ++i) {
    EXPECT_TRUE(r.trees[i].validate().empty()) << r.trees[i].validate();
    EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
    EXPECT_GE(r.frontier[i].d, rsma::star_delay(net));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoKsLarge, ::testing::Range(0, 8));

// ---- Trainer ----

TEST(Trainer, ProducesNonNegativeParamsAndReports) {
  core::TrainerOptions opt;
  opt.lambda = 5;
  opt.start_degree = 8;
  opt.end_degree = 12;
  opt.degree_step = 4;
  opt.instances_per_degree = 2;
  opt.rollouts_per_instance = 3;
  opt.seed = 7;
  const auto report = core::train_policy(opt);
  ASSERT_EQ(report.per_degree.size(), 2u);
  for (const auto& d : report.per_degree) {
    EXPECT_GE(d.params.far_source, 0.0);
    EXPECT_GE(d.params.far_tree, 0.0);
    EXPECT_GE(d.params.near_selected, 0.0);
    EXPECT_GE(d.params.hpwl, 0.0);
  }
  // The trained policy must remain usable inside PatLabor.
  util::Rng rng(107);
  const Net net = testing::random_net(rng, 14, 3000, true);
  PatLaborOptions popt;
  popt.lambda = 5;
  popt.policy = report.policy;
  const auto r = core::patlabor(net, popt);
  EXPECT_FALSE(r.frontier.empty());
}

// Digest of core::patlabor at the default lambda = 9 with no table, so
// every local-search subnet is solved by numeric Pareto-DW, over seeded
// degree 10-16 nets (clustered, uniform and tie-heavy).  Covers the three
// kernels behind the local search at once: exact RSMT (T0), Pareto-DW and
// refine.
TEST(PatLabor, GoldenDigestWithoutTableAtLambda9) {
  testing::Digest digest;
  util::Rng rng(2029);
  PatLaborOptions opt;
  ASSERT_EQ(opt.lambda, 9u);
  for (std::size_t degree = 10; degree <= 16; ++degree) {
    for (const Net& net : {netgen::clustered_net(rng, degree),
                           netgen::uniform_net(rng, degree),
                           testing::random_net(rng, degree, 30, true)}) {
      const auto r = core::patlabor(net, opt);
      digest.mix(static_cast<std::uint64_t>(r.iterations));
      digest.mix(r.frontier.size());
      for (const Objective& p : r.frontier) {
        digest.mix(static_cast<std::uint64_t>(p.w));
        digest.mix(static_cast<std::uint64_t>(p.d));
      }
      for (const auto& t : r.trees) digest.mix(t);
    }
  }
  EXPECT_EQ(digest.h, 0xda065d49e263d4c6ull)
      << std::hex << "digest 0x" << digest.h;
}

}  // namespace
}  // namespace patlabor
