#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "patlabor/pareto/curve.hpp"
#include "patlabor/pareto/pareto_set.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/util/rng.hpp"

namespace patlabor {
namespace {

using pareto::Objective;
using pareto::ObjVec;

TEST(Dominance, Definition) {
  EXPECT_TRUE(pareto::dominates({1, 2}, {2, 2}));
  EXPECT_TRUE(pareto::dominates({1, 2}, {1, 3}));
  EXPECT_FALSE(pareto::dominates({1, 2}, {1, 2}));  // equal: not dominating
  EXPECT_FALSE(pareto::dominates({1, 3}, {2, 2}));  // incomparable
  EXPECT_TRUE(pareto::weakly_dominates({1, 2}, {1, 2}));
}

TEST(ParetoFilter, RemovesDominatedAndDuplicates) {
  const ObjVec f = pareto::pareto_filter(
      {{5, 1}, {3, 3}, {4, 2}, {3, 3}, {6, 6}, {1, 9}, {4, 9}});
  const ObjVec expect{{1, 9}, {3, 3}, {4, 2}, {5, 1}};
  EXPECT_EQ(f, expect);
}

TEST(ParetoFilter, EmptyAndSingleton) {
  EXPECT_TRUE(pareto::pareto_filter({}).empty());
  EXPECT_EQ(pareto::pareto_filter({{7, 7}}), (ObjVec{{7, 7}}));
}

// Property sweep: filter output is an antichain, a subset of the input, and
// every input point is weakly dominated by some output point; filtering is
// idempotent.
class ParetoFilterProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoFilterProperty, Invariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  ObjVec pts;
  const int n = 1 + static_cast<int>(rng.index(60));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform_int(0, 30), rng.uniform_int(0, 30)});
  const ObjVec f = pareto::pareto_filter(pts);

  EXPECT_TRUE(pareto::is_pareto_curve(f));
  for (const Objective& p : f)
    EXPECT_NE(std::find(pts.begin(), pts.end(), p), pts.end());
  for (const Objective& p : pts) EXPECT_TRUE(pareto::covers(f, p));
  EXPECT_EQ(pareto::pareto_filter(f), f);
  // Sorted ascending in w, strictly descending in d.
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_LT(f[i - 1].w, f[i].w);
    EXPECT_GT(f[i - 1].d, f[i].d);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFilterProperty,
                         ::testing::Range(0, 25));

TEST(ParetoIndices, KeepsPayloadAlignment) {
  const ObjVec pts{{5, 1}, {3, 3}, {3, 3}, {9, 9}};
  const auto idx = pareto::pareto_indices(pts);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);  // first duplicate of (3,3) kept
  EXPECT_EQ(idx[1], 0u);
}

TEST(Shift, AddsToBothObjectives) {
  const ObjVec s{{1, 2}, {3, 1}};
  const ObjVec out = pareto::shifted(s, 10);
  EXPECT_EQ(out, (ObjVec{{11, 12}, {13, 11}}));
}

TEST(ParetoSum, MatchesDefinition) {
  // ⊕: wirelengths add, delays take max, then filter.
  const ObjVec a{{1, 5}, {4, 1}};
  const ObjVec b{{2, 3}, {3, 2}};
  const ObjVec s = pareto::pareto_sum(a, b);
  // Candidates: (3,5) (4,5) (6,3) (7,2)
  EXPECT_EQ(s, (ObjVec{{3, 5}, {6, 3}, {7, 2}}));
}

TEST(ParetoSum, IdentityWithZeroElement) {
  const ObjVec a{{3, 7}, {8, 2}};
  const ObjVec zero{{0, 0}};
  EXPECT_EQ(pareto::pareto_sum(a, zero), pareto::pareto_filter(a));
}

TEST(CountCovered, TableIVAccounting) {
  const ObjVec frontier{{1, 9}, {3, 3}, {5, 1}};
  const ObjVec found{{3, 3}, {5, 2}};  // (5,2) covers (5,1)? no: d worse
  EXPECT_EQ(pareto::count_covered(frontier, found), 1u);
  const ObjVec better{{1, 9}, {2, 3}, {5, 1}};  // (2,3) covers (3,3)
  EXPECT_EQ(pareto::count_covered(frontier, better), 3u);
}

TEST(Hypervolume, RectangleAreas) {
  const ObjVec f{{1, 3}, {2, 1}};
  // ref (4,4): point (1,3) adds (4-1)*(4-3)=3; point (2,1) adds (4-2)*(3-1)=4.
  EXPECT_DOUBLE_EQ(pareto::hypervolume(f, {4, 4}), 7.0);
  EXPECT_DOUBLE_EQ(pareto::hypervolume({}, {4, 4}), 0.0);
  // Points beyond the reference contribute nothing.
  EXPECT_DOUBLE_EQ(pareto::hypervolume(ObjVec{{5, 5}}, {4, 4}), 0.0);
}

TEST(Hypervolume, MonotoneUnderImprovement) {
  util::Rng rng(5);
  for (int it = 0; it < 50; ++it) {
    ObjVec pts;
    for (int i = 0; i < 10; ++i)
      pts.push_back({rng.uniform_int(1, 50), rng.uniform_int(1, 50)});
    const Objective ref{60, 60};
    const double hv = pareto::hypervolume(pts, ref);
    // Adding a point can only grow the hypervolume.
    ObjVec more = pts;
    more.push_back({rng.uniform_int(1, 50), rng.uniform_int(1, 50)});
    EXPECT_GE(pareto::hypervolume(more, ref) + 1e-9, hv);
  }
}

TEST(ParetoUnion, MergesSets) {
  const std::vector<ObjVec> sets{{{1, 5}, {4, 2}}, {{2, 3}, {9, 9}}};
  EXPECT_EQ(pareto::pareto_union(sets), (ObjVec{{1, 5}, {2, 3}, {4, 2}}));
}

TEST(Curve, NormalizeAndStaircase) {
  const ObjVec f{{10, 40}, {20, 20}};
  const auto c = pareto::normalize(f, 10.0, 20.0);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0].w, 1.0);
  EXPECT_DOUBLE_EQ(c[0].d, 2.0);
  EXPECT_DOUBLE_EQ(pareto::staircase_eval(c, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(pareto::staircase_eval(c, 2.0), 1.0);
  EXPECT_TRUE(std::isinf(pareto::staircase_eval(c, 0.5)));
}

TEST(Curve, AverageCurves) {
  const std::vector<std::vector<pareto::CurvePoint>> curves{
      {{1.0, 4.0}, {2.0, 2.0}},
      {{1.0, 2.0}, {2.0, 1.0}},
  };
  const std::vector<double> grid{1.0, 2.0};
  const auto avg = pareto::average_curves(curves, grid);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0].d, 3.0);
  EXPECT_DOUBLE_EQ(avg[1].d, 1.5);
}

TEST(Curve, Linspace) {
  const auto g = pareto::linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
  EXPECT_DOUBLE_EQ(g[4], 1.0);
}

// ---- SolutionSet: the in-place kernels vs the pure reference functions ----

/// O(S^2) reference filter, straight from the definition: keep a point iff
/// nothing dominates it and it is the first occurrence of its value; then
/// sort by objective.
ObjVec brute_force_filter(const ObjVec& pts) {
  ObjVec kept;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool drop = false;
    for (std::size_t j = 0; j < pts.size() && !drop; ++j) {
      if (pareto::dominates(pts[j], pts[i])) drop = true;
      if (j < i && pts[j] == pts[i]) drop = true;  // duplicate: keep first
    }
    if (!drop) kept.push_back(pts[i]);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

ObjVec random_points(util::Rng& rng, int max_n, pareto::Length hi) {
  ObjVec pts;
  const int n = static_cast<int>(rng.index(static_cast<std::size_t>(max_n)));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform_int(0, hi), rng.uniform_int(0, hi)});
  return pts;
}

class SolutionSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolutionSetProperty, FilterIndicesMatchesParetoIndices) {
  util::Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  const ObjVec pts = random_points(rng, 80, 25);  // small range: duplicates
  const auto ref = pareto::pareto_indices(pts);
  pareto::FilterScratch scratch;
  const auto got = pareto::filter_indices(
      pts.size(), [&](std::uint32_t i) -> const Objective& { return pts[i]; },
      scratch);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    EXPECT_EQ(static_cast<std::size_t>(got[k]), ref[k]) << "position " << k;
}

TEST_P(SolutionSetProperty, OfAndFilterMatchBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const ObjVec pts = random_points(rng, 60, 30);
  const ObjVec expect = brute_force_filter(pts);
  EXPECT_EQ(pareto::pareto_filter(pts), expect);

  const auto set = pareto::SolutionSet::of(pts);
  EXPECT_EQ(set, expect);
  EXPECT_TRUE(set.invariant_ok());

  // In-place filter with reused scratch reaches the same staircase, and is
  // idempotent.
  pareto::SolutionSet raw;
  pareto::FilterScratch scratch;
  for (const Objective& p : pts) raw.append_raw(p);
  raw.filter(scratch);
  EXPECT_EQ(raw, expect);
  raw.filter(scratch);
  EXPECT_EQ(raw, expect);
}

TEST_P(SolutionSetProperty, ShiftMatchesShifted) {
  util::Rng rng(static_cast<std::uint64_t>(1100 + GetParam()));
  const ObjVec pts = random_points(rng, 40, 50);
  const pareto::Length x = rng.uniform_int(0, 20);
  auto set = pareto::SolutionSet::of(pts);
  const ObjVec expect = pareto::shifted(set.objectives(), x);
  set.shift(x);
  EXPECT_EQ(set, expect);
  EXPECT_TRUE(set.invariant_ok());  // translation preserves the staircase
}

TEST_P(SolutionSetProperty, MergeMatchesParetoSumAndBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(1200 + GetParam()));
  const auto a = pareto::SolutionSet::of(random_points(rng, 25, 30));
  const auto b = pareto::SolutionSet::of(random_points(rng, 25, 30));
  pareto::SolutionSet out;
  pareto::FilterScratch scratch;
  pareto::SolutionSet::merge(a, b, out, scratch);
  EXPECT_EQ(out, pareto::pareto_sum(a, b));
  EXPECT_TRUE(out.invariant_ok());

  ObjVec cross;
  for (const Objective& pa : a)
    for (const Objective& pb : b)
      cross.push_back({pa.w + pb.w, std::max(pa.d, pb.d)});
  EXPECT_EQ(out, brute_force_filter(cross));
}

// The online kernel must keep exactly filter_indices' survivors, in its
// order, whatever order the candidates arrive in.  The candidate lists are
// built to hold exact duplicates and ties in one coordinate only.
TEST_P(SolutionSetProperty, OnlineStaircaseMatchesFilterIndices) {
  util::Rng rng(static_cast<std::uint64_t>(1300 + GetParam()));
  ObjVec pts = random_points(rng, 60, 20);
  const std::size_t base = pts.size();
  for (std::size_t k = 0; k < base / 3; ++k) {
    const Objective p = pts[rng.index(base)];
    pts.push_back(p);                                  // exact duplicate
    pts.push_back({p.w, rng.uniform_int(0, 20)});      // tie in w only
    pts.push_back({rng.uniform_int(0, 20), p.d});      // tie in d only
  }
  pareto::FilterScratch scratch;
  const auto ref = pareto::filter_indices(
      pts.size(), [&](std::uint32_t i) -> const Objective& { return pts[i]; },
      scratch);

  std::vector<std::uint32_t> arrival(pts.size());
  for (std::uint32_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  rng.shuffle(arrival);
  pareto::OnlineStaircase<std::uint32_t> online;
  for (std::uint32_t i : arrival) online.insert(pts[i], i, i);

  const auto got = online.entries();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(got[k].key, ref[k]) << "position " << k;
    EXPECT_EQ(got[k].payload, ref[k]) << "position " << k;
    EXPECT_EQ(got[k].obj, pts[ref[k]]) << "position " << k;
  }

  // dominated(c) <=> some candidate dominates c (a linear scan).
  for (int q = 0; q < 200; ++q) {
    const Objective c{rng.uniform_int(-1, 22), rng.uniform_int(-1, 22)};
    const bool expect = std::any_of(
        pts.begin(), pts.end(),
        [&](const Objective& p) { return pareto::dominates(p, c); });
    EXPECT_EQ(online.dominated(c), expect) << c.w << "," << c.d;
  }

  // clear() empties the set for reuse.
  online.clear();
  EXPECT_TRUE(online.entries().empty());
  EXPECT_FALSE(online.dominated(Objective{100, 100}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolutionSetProperty, ::testing::Range(0, 25));

TEST(SolutionSet, SelectRecordsPayloadIndices) {
  const ObjVec pts{{5, 1}, {3, 3}, {3, 3}, {9, 9}, {1, 7}};
  auto set = pareto::SolutionSet::select(pts);
  // Staircase: (1,7), (3,3), (5,1); (3,3) keeps the first duplicate.
  EXPECT_EQ(set, (ObjVec{{1, 7}, {3, 3}, {5, 1}}));
  ASSERT_TRUE(set.has_payload());
  ASSERT_EQ(set.payload().size(), 3u);
  EXPECT_EQ(set.payload()[0], 4u);
  EXPECT_EQ(set.payload()[1], 1u);
  EXPECT_EQ(set.payload()[2], 0u);
  for (std::size_t k = 0; k < set.size(); ++k)
    EXPECT_EQ(pts[set.payload()[k]], set[k]);

  std::vector<std::string> tags{"a", "b", "c", "d", "e"};
  const auto gathered = pareto::take_payload(set, std::move(tags));
  EXPECT_EQ(gathered, (std::vector<std::string>{"e", "b", "a"}));
  EXPECT_FALSE(set.has_payload());  // stripped: set and vector now parallel
}

TEST(SolutionSet, TakePayloadWithoutPayloadIsIdentity) {
  auto set = pareto::SolutionSet::of({{1, 2}, {3, 1}});
  std::vector<int> items{10, 20};
  EXPECT_EQ(pareto::take_payload(set, std::move(items)),
            (std::vector<int>{10, 20}));
}

TEST(SolutionSet, AdoptStaircaseAndInvariant) {
  const auto set = pareto::SolutionSet::adopt_staircase({{1, 9}, {4, 4}, {7, 2}});
  EXPECT_TRUE(set.invariant_ok());
  EXPECT_EQ(set.front(), (Objective{1, 9}));
  EXPECT_EQ(set.back(), (Objective{7, 2}));

  pareto::SolutionSet bad;
  bad.append_raw({1, 1});
  bad.append_raw({2, 2});  // d not descending: dominated point
  EXPECT_FALSE(bad.invariant_ok());
  bad.filter();
  EXPECT_TRUE(bad.invariant_ok());
  EXPECT_EQ(bad, (ObjVec{{1, 1}}));
}

}  // namespace
}  // namespace patlabor
