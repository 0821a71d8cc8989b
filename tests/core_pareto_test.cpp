#include "core/pareto.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace icsc::core {
namespace {

TEST(Pareto, DominatesBasic) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // equal does not dominate
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // trade-off
  // Mismatched arity throws in every build instead of reading past `b`.
  EXPECT_THROW(dominates({1, 1, 1}, {2, 2}), core::Error);
  EXPECT_THROW(dominates({1}, {2, 2}), core::Error);
  EXPECT_THROW(pareto_front({{0, {1.0, 1.0, 1.0}}, {1, {2.0, 2.0}}}),
               core::Error);
}

TEST(Pareto, FrontOfEmptySet) {
  EXPECT_TRUE(pareto_front({}).empty());
}

TEST(Pareto, FrontRemovesDominated) {
  std::vector<ParetoPoint> pts{
      {0, {1.0, 4.0}}, {1, {2.0, 2.0}}, {2, {4.0, 1.0}}, {3, {3.0, 3.0}}};
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].id, 0u);
  EXPECT_EQ(front[1].id, 1u);
  EXPECT_EQ(front[2].id, 2u);
}

TEST(Pareto, DuplicatesAllKept) {
  std::vector<ParetoPoint> pts{{0, {1.0, 1.0}}, {1, {1.0, 1.0}}};
  EXPECT_EQ(pareto_front(pts).size(), 2u);
}

TEST(Pareto, FrontIsMutuallyNonDominated) {
  Rng rng(55);
  std::vector<ParetoPoint> pts;
  for (std::size_t i = 0; i < 200; ++i) {
    pts.push_back({i, {rng.uniform(0, 10), rng.uniform(0, 10),
                       rng.uniform(0, 10)}});
  }
  const auto front = pareto_front(pts);
  EXPECT_FALSE(front.empty());
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (&a == &b) continue;
      EXPECT_FALSE(dominates(a.objectives, b.objectives));
    }
  }
  // Every removed point must be dominated by some frontier point.
  for (const auto& p : pts) {
    bool in_front = false;
    for (const auto& f : front) in_front |= (f.id == p.id);
    if (in_front) continue;
    bool dominated = false;
    for (const auto& f : front) {
      dominated |= dominates(f.objectives, p.objectives);
    }
    EXPECT_TRUE(dominated);
  }
}

TEST(Pareto, Hypervolume2dSinglePoint) {
  std::vector<ParetoPoint> front{{0, {1.0, 1.0}}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(front, 3.0, 3.0), 4.0);
}

TEST(Pareto, Hypervolume2dStaircase) {
  std::vector<ParetoPoint> front{{0, {1.0, 3.0}}, {1, {2.0, 2.0}},
                                 {2, {3.0, 1.0}}};
  // Reference (4, 4): area = 3x1 + 2x1 + 1x1 ... computed as staircase.
  EXPECT_DOUBLE_EQ(hypervolume_2d(front, 4.0, 4.0), 3.0 + 2.0 + 1.0);
}

TEST(Pareto, HypervolumeMonotoneInPoints) {
  std::vector<ParetoPoint> small{{0, {2.0, 2.0}}};
  std::vector<ParetoPoint> bigger{{0, {2.0, 2.0}}, {1, {1.0, 3.0}}};
  EXPECT_GE(hypervolume_2d(bigger, 5.0, 5.0), hypervolume_2d(small, 5.0, 5.0));
}

TEST(Pareto, HypervolumeIgnoresPointsOutsideReference) {
  std::vector<ParetoPoint> front{{0, {1.0, 1.0}}, {1, {10.0, 0.5}}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(front, 3.0, 3.0), 4.0);
}

TEST(Pareto, HypervolumeEmptyFrontIsZero) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({}, 3.0, 3.0), 0.0);
}

TEST(Pareto, HypervolumeRejectsWrongArity) {
  // Formerly an assert, which vanished under NDEBUG and left an
  // out-of-bounds objectives[] read; malformed fronts must throw in every
  // build mode, whether the point carries too few or too many objectives.
  std::vector<ParetoPoint> too_few{{0, {1.0}}};
  EXPECT_THROW(hypervolume_2d(too_few, 3.0, 3.0), Error);
  std::vector<ParetoPoint> empty_point{{0, {}}};
  EXPECT_THROW(hypervolume_2d(empty_point, 3.0, 3.0), Error);
  std::vector<ParetoPoint> too_many{{0, {1.0, 1.0, 1.0}}};
  EXPECT_THROW(hypervolume_2d(too_many, 3.0, 3.0), Error);
  // A single malformed point poisons an otherwise valid front.
  std::vector<ParetoPoint> mixed{{0, {1.0, 1.0}}, {1, {2.0}}};
  EXPECT_THROW(hypervolume_2d(mixed, 3.0, 3.0), Error);
}

}  // namespace
}  // namespace icsc::core
