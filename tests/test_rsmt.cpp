#include <gtest/gtest.h>

#include "patlabor/rsmt/mst.hpp"
#include "patlabor/geom/box.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;

TEST(Mst, TwoPins) {
  Net net;
  net.pins = {{0, 0}, {3, 4}};
  const auto t = rsmt::rectilinear_mst(net);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 7);
}

TEST(Mst, ChainIsCheaperThanStar) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  const auto t = rsmt::rectilinear_mst(net);
  EXPECT_EQ(t.wirelength(), 30);  // chain, not the 60-cost star
}

TEST(ExactRsmt, CrossNeedsSteinerPoint) {
  // Four pins at the arms of a cross: the optimal Steiner tree joins them
  // through the center, wirelength 40 (MST costs 60).
  Net net;
  net.pins = {{0, 10}, {20, 10}, {10, 0}, {10, 20}};
  const auto t = rsmt::exact_rsmt(net);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 40);
  EXPECT_EQ(rsmt::mst_length(net), 60);
}

TEST(ExactRsmt, LShapeThreePins) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {10, 10}};
  EXPECT_EQ(rsmt::exact_rsmt(net).wirelength(), 20);
}

TEST(ExactRsmt, ThreePinsMedianSteiner) {
  // RSMT of 3 pins = HPWL of their bounding box (via the median point).
  util::Rng rng(31);
  for (int it = 0; it < 25; ++it) {
    const Net net = testing::random_net(rng, 3);
    const auto t = rsmt::exact_rsmt(net);
    EXPECT_TRUE(t.validate().empty());
    EXPECT_EQ(t.wirelength(), geom::hpwl(net.pins));
  }
}

// RSMT lower/upper sandwich: w(RSMT) <= w(MST) and (Hwang's bound)
// w(MST) <= 1.5 * w(RSMT).
class RsmtVsMst : public ::testing::TestWithParam<int> {};

TEST_P(RsmtVsMst, SandwichBounds) {
  util::Rng rng(static_cast<std::uint64_t>(300 + GetParam()));
  const auto degree = 3 + rng.index(6);  // 3..8
  const Net net = testing::random_net(rng, degree);
  const auto exact = rsmt::exact_rsmt(net);
  const auto mst_w = rsmt::mst_length(net);
  EXPECT_TRUE(exact.validate().empty());
  EXPECT_LE(exact.wirelength(), mst_w);
  EXPECT_LE(2 * mst_w, 3 * exact.wirelength());  // MST <= 1.5 RSMT
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsmtVsMst, ::testing::Range(0, 30));

TEST(RsmtHeuristic, NeverWorseThanMstAndValid) {
  util::Rng rng(32);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 20);
    const auto h = rsmt::rsmt_heuristic(net);
    EXPECT_TRUE(h.validate().empty());
    EXPECT_LE(h.wirelength(), rsmt::mst_length(net));
  }
}

TEST(RsmtHeuristic, CloseToExactOnSmallNets) {
  util::Rng rng(33);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 7);
    const auto h = rsmt::rsmt_heuristic(net);
    const auto e = rsmt::exact_rsmt(net);
    EXPECT_GE(h.wirelength(), e.wirelength());
    // The refinement heuristic should stay within Hwang's MST bound.
    EXPECT_LE(2 * h.wirelength(), 3 * e.wirelength());
  }
}

TEST(Rsmt, DispatcherUsesExactForSmall) {
  Net net;
  net.pins = {{0, 10}, {20, 10}, {10, 0}, {10, 20}};
  EXPECT_EQ(rsmt::rsmt(net).wirelength(), 40);
}

TEST(Rsmt, HandlesDuplicateAndCollinearPins) {
  Net net;
  net.pins = {{0, 0}, {5, 0}, {5, 0}, {9, 0}};
  const auto t = rsmt::rsmt(net);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.wirelength(), 9);
}

// Digest of exact_rsmt's trees over seeded clustered nets of degree 2-10
// and tie-heavy nets on a 7x7 lattice (shared rows and columns, duplicate
// pins), where many origins reach a node at equal cost.  Recorded with the
// pairwise O(nv^2) grow step; any grow step must reproduce it bit for bit,
// so a tie resolved toward a different origin (another how[] choice, hence
// another tree) fails here.
TEST(ExactRsmt, GoldenDigestOfTrees) {
  testing::Digest digest;
  util::Rng rng(2027);
  for (std::size_t degree = 2; degree <= rsmt::kExactMaxDegree; ++degree) {
    for (int rep = 0; rep < 3; ++rep) {
      digest.mix(rsmt::exact_rsmt(netgen::clustered_net(rng, degree)));
      digest.mix(rsmt::exact_rsmt(testing::random_net(rng, degree, 6, true)));
    }
  }
  EXPECT_EQ(digest.h, 0x3cad525cdfe26b70ull)
      << std::hex << "digest 0x" << digest.h;
}

}  // namespace
}  // namespace patlabor
