// Tests for the CART tree and the tree ensembles.

#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ml/ensemble.hpp"
#include "ml/hist_gbr.hpp"
#include "ml/metrics.hpp"

namespace hp::ml {
namespace {

/// Piecewise-constant 1-D target: the natural habitat of a tree.
void make_steps(std::size_t n, Matrix& x, Vector& y, double noise_sd = 0.0,
                std::uint64_t seed = 4) {
  x = Matrix(n, 1);
  y.resize(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 10.0);
  // std::normal_distribution requires a positive deviation; the noiseless
  // case never draws from it.
  std::normal_distribution<double> noise(0.0, noise_sd > 0.0 ? noise_sd : 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = u(rng);
    x(i, 0) = v;
    y[i] = (v < 3.0 ? 1.0 : (v < 7.0 ? 5.0 : -2.0)) +
           (noise_sd > 0.0 ? noise(rng) : 0.0);
  }
}

/// Smooth nonlinear surface for the boosted models.
void make_smooth(std::size_t n, Matrix& x, Vector& y, std::uint64_t seed = 8) {
  x = Matrix(n, 2);
  y.resize(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = u(rng);
    x(i, 1) = u(rng);
    y[i] = x(i, 0) * x(i, 0) + std::sin(2.0 * x(i, 1));
  }
}

TEST(DecisionTree, FitsStepsExactly) {
  Matrix x;
  Vector y;
  make_steps(200, x, y);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_LT(rmse(y, tree.predict(x)), 1e-9);  // unlimited depth memorizes
}

TEST(DecisionTree, MaxDepthLimitsComplexity) {
  Matrix x;
  Vector y;
  make_steps(200, x, y);
  TreeParams params;
  params.max_depth = 1;
  DecisionTreeRegressor stump(params);
  stump.fit(x, y);
  EXPECT_LE(stump.depth(), 1U);
  EXPECT_LE(stump.node_count(), 3U);
  // A stump cannot capture three plateaus.
  EXPECT_GT(rmse(y, stump.predict(x)), 0.5);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  Matrix x;
  Vector y;
  make_steps(50, x, y, 0.3);
  TreeParams params;
  params.min_samples_leaf = 10;
  DecisionTreeRegressor tree(params);
  tree.fit(x, y);
  // With >= 10 samples per leaf, at most 5 leaves for 50 samples.
  EXPECT_LE(tree.node_count(), 9U);  // 5 leaves + 4 internal
}

TEST(DecisionTree, ConstantTargetSingleLeaf) {
  Matrix x{{1}, {2}, {3}};
  Vector y{7, 7, 7};
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1U);
  EXPECT_DOUBLE_EQ(tree.predict(Matrix{{9.0}})[0], 7.0);
}

TEST(DecisionTree, FeatureMismatchThrows) {
  DecisionTreeRegressor tree;
  tree.fit(Matrix{{1.0}, {2.0}}, {1.0, 2.0});
  EXPECT_THROW((void)tree.predict(Matrix{{1.0, 2.0}}), std::invalid_argument);
}

TEST(Bagging, AveragesReduceVariance) {
  Matrix x;
  Vector y;
  make_steps(150, x, y, 1.0);
  Matrix x_test;
  Vector y_test;
  make_steps(150, x_test, y_test, 0.0, 99);
  DecisionTreeRegressor single;
  single.fit(x, y);
  BaggingRegressor bagged;
  bagged.fit(x, y);
  EXPECT_EQ(bagged.estimator_count(), 10U);
  // Against the clean truth, averaging must beat one overfit tree.
  EXPECT_LT(rmse(y_test, bagged.predict(x_test)),
            rmse(y_test, single.predict(x_test)));
}

TEST(RandomForest, DefaultHundredTrees) {
  Matrix x;
  Vector y;
  make_steps(80, x, y, 0.5);
  RandomForestRegressor forest(20);  // smaller for test speed
  forest.fit(x, y);
  EXPECT_EQ(forest.estimator_count(), 20U);
  EXPECT_LT(rmse(y, forest.predict(x)), 1.0);
}

TEST(RandomForest, DeterministicPerSeed) {
  Matrix x;
  Vector y;
  make_steps(60, x, y, 0.4);
  RandomForestRegressor a(10, 1.0, 123);
  RandomForestRegressor b(10, 1.0, 123);
  a.fit(x, y);
  b.fit(x, y);
  const Vector pa = a.predict(x);
  const Vector pb = b.predict(x);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i], pb[i]);
  }
}

TEST(AdaBoost, BoostsBeyondWeakLearner) {
  Matrix x;
  Vector y;
  make_smooth(250, x, y);
  TreeParams weak_params;
  weak_params.max_depth = 3;
  DecisionTreeRegressor weak(weak_params);
  weak.fit(x, y);
  AdaBoostRegressor boosted(30);
  boosted.fit(x, y);
  EXPECT_GT(boosted.estimator_count(), 1U);
  EXPECT_LT(rmse(y, boosted.predict(x)), rmse(y, weak.predict(x)));
}

TEST(GradientBoosting, DrivesTrainingErrorDown) {
  Matrix x;
  Vector y;
  make_smooth(250, x, y);
  GradientBoostingRegressor few(5);
  GradientBoostingRegressor many(100);
  few.fit(x, y);
  many.fit(x, y);
  EXPECT_LT(rmse(y, many.predict(x)), rmse(y, few.predict(x)));
  EXPECT_LT(rmse(y, many.predict(x)), 0.2);
}

TEST(HistGradientBoosting, FitsSmoothSurface) {
  Matrix x;
  Vector y;
  make_smooth(400, x, y);
  HistGradientBoostingRegressor model;
  model.fit(x, y);
  EXPECT_EQ(model.tree_count(), 100U);
  EXPECT_LT(rmse(y, model.predict(x)), 0.3);
}

TEST(HistGradientBoosting, BinnedSplitsHandleFewDistinctValues) {
  // A feature with only three distinct values must still split cleanly.
  Matrix x(90, 1);
  Vector y(90);
  for (std::size_t i = 0; i < 90; ++i) {
    const double v = static_cast<double>(i % 3);
    x(i, 0) = v;
    y[i] = v * 10.0;
  }
  HistGradientBoostingRegressor model;
  model.fit(x, y);
  const Vector pred = model.predict(x);
  EXPECT_LT(rmse(y, pred), 1.0);
}

TEST(Ensembles, PredictBeforeFitThrows) {
  EXPECT_THROW((void)BaggingRegressor().predict(Matrix{{1.0}}),
               std::logic_error);
  EXPECT_THROW((void)RandomForestRegressor().predict(Matrix{{1.0}}),
               std::logic_error);
  EXPECT_THROW((void)AdaBoostRegressor().predict(Matrix{{1.0}}),
               std::logic_error);
  EXPECT_THROW((void)GradientBoostingRegressor().predict(Matrix{{1.0}}),
               std::logic_error);
  EXPECT_THROW((void)HistGradientBoostingRegressor().predict(Matrix{{1.0}}),
               std::logic_error);
}

// Property: ensemble predictions stay within the convex hull of targets
// (true for mean/median aggregation of tree leaves on training data).
class EnsembleBounds : public ::testing::TestWithParam<int> {};

TEST_P(EnsembleBounds, PredictionsWithinTargetRange) {
  Matrix x;
  Vector y;
  make_steps(120, x, y, 0.5, static_cast<std::uint64_t>(GetParam()));
  double lo = y[0], hi = y[0];
  for (double v : y) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  BaggingRegressor bagging(5, static_cast<std::uint64_t>(GetParam()));
  bagging.fit(x, y);
  RandomForestRegressor forest(5, 1.0, static_cast<std::uint64_t>(GetParam()));
  forest.fit(x, y);
  AdaBoostRegressor ada(10, 1.0, static_cast<std::uint64_t>(GetParam()));
  ada.fit(x, y);
  for (const auto* model :
       std::initializer_list<const Regressor*>{&bagging, &forest, &ada}) {
    for (const double p : model->predict(x)) {
      EXPECT_GE(p, lo - 1e-9);
      EXPECT_LE(p, hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnsembleBounds, ::testing::Range(1, 9));

}  // namespace
}  // namespace hp::ml
