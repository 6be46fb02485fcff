// Tests for the linear-family regressors.

#include "ml/linear.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ml/metrics.hpp"

namespace hp::ml {
namespace {

/// Noiseless plane y = 2 x0 - 3 x1 + 5.
void make_plane(std::size_t n, Matrix& x, Vector& y, double noise_sd = 0.0,
                std::uint64_t seed = 11) {
  x = Matrix(n, 2);
  y.resize(n);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> value(0.0, 2.0);
  // std::normal_distribution requires a positive deviation; the noiseless
  // case never draws from it.
  std::normal_distribution<double> noise(0.0, noise_sd > 0.0 ? noise_sd : 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = value(rng);
    x(i, 1) = value(rng);
    y[i] = 2.0 * x(i, 0) - 3.0 * x(i, 1) + 5.0 +
           (noise_sd > 0.0 ? noise(rng) : 0.0);
  }
}

TEST(LinearRegression, RecoversPlaneExactly) {
  Matrix x;
  Vector y;
  make_plane(50, x, y);
  LinearRegression model;
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.coefficients()[1], -3.0, 1e-6);
  EXPECT_NEAR(model.intercept(), 5.0, 1e-6);
  EXPECT_LT(rmse(y, model.predict(x)), 1e-6);
}

TEST(LinearRegression, PredictBeforeFitThrows) {
  LinearRegression model;
  EXPECT_THROW((void)model.predict(Matrix{{1.0, 2.0}}), std::logic_error);
}

TEST(LinearRegression, FitArgumentValidation) {
  LinearRegression model;
  EXPECT_THROW(model.fit(Matrix{}, {}), std::invalid_argument);
  EXPECT_THROW(model.fit(Matrix{{1.0}}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Ridge, ShrinksRelativeToOls) {
  Matrix x;
  Vector y;
  make_plane(30, x, y, 0.5);
  LinearRegression ols;
  ols.fit(x, y);
  Ridge heavy(1000.0);
  heavy.fit(x, y);
  EXPECT_LT(std::abs(heavy.coefficients()[0]),
            std::abs(ols.coefficients()[0]));
  EXPECT_LT(std::abs(heavy.coefficients()[1]),
            std::abs(ols.coefficients()[1]));
}

TEST(Lasso, SparsifiesIrrelevantFeature) {
  // y depends on x0 only; a strong L1 penalty must zero the x1 weight.
  std::mt19937_64 rng(3);
  std::normal_distribution<double> value(0.0, 1.0);
  Matrix x(80, 2);
  Vector y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x(i, 0) = value(rng);
    x(i, 1) = value(rng);
    y[i] = 4.0 * x(i, 0);
  }
  Lasso model(0.5);
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[1], 0.0, 0.05);
  EXPECT_GT(model.coefficients()[0], 2.0);
}

TEST(Lasso, DefaultAlphaUnderfitsRelativeToOls) {
  // The paper's Fig 6 places Lasso (alpha=1) clearly worse than LR;
  // verify that ordering on correlated features.
  Matrix x;
  Vector y;
  make_plane(60, x, y, 0.2);
  LinearRegression ols;
  ols.fit(x, y);
  Lasso lasso;  // alpha = 1.0 default
  lasso.fit(x, y);
  EXPECT_GT(rmse(y, lasso.predict(x)), rmse(y, ols.predict(x)));
}

TEST(ElasticNet, BetweenLassoAndRidge) {
  Matrix x;
  Vector y;
  make_plane(60, x, y, 0.2);
  ElasticNet net(1.0, 0.5);
  net.fit(x, y);
  // Fits but with shrinkage: coefficients below the true magnitudes.
  EXPECT_LT(std::abs(net.coefficients()[0]), 2.0 + 1e-9);
  EXPECT_LT(std::abs(net.coefficients()[1]), 3.0 + 1e-9);
  EXPECT_GT(std::abs(net.coefficients()[0]), 0.1);
}

TEST(SGDRegressor, ConvergesOnScaledData) {
  Matrix x;
  Vector y;
  make_plane(200, x, y, 0.05);
  SGDRegressor model;
  model.fit(x, y);
  EXPECT_LT(rmse(y, model.predict(x)), 1.0);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.5);
}

TEST(HuberRegressor, RobustToOutliers) {
  Matrix x;
  Vector y;
  make_plane(60, x, y, 0.05);
  // Corrupt a few targets badly.
  y[3] += 200.0;
  y[17] -= 300.0;
  y[42] += 500.0;
  HuberRegressor huber;
  huber.fit(x, y);
  LinearRegression ols;
  ols.fit(x, y);
  // Huber stays near the true slope; OLS is dragged away.
  EXPECT_NEAR(huber.coefficients()[0], 2.0, 0.3);
  EXPECT_GT(std::abs(ols.intercept() - 5.0),
            std::abs(huber.intercept() - 5.0));
}

TEST(RANSACRegressor, IgnoresOutliers) {
  Matrix x;
  Vector y;
  make_plane(80, x, y, 0.01);
  for (std::size_t i = 0; i < 12; ++i) y[i * 6] += 100.0;
  RANSACRegressor ransac;
  ransac.fit(x, y);
  EXPECT_NEAR(ransac.coefficients()[0], 2.0, 0.2);
  EXPECT_NEAR(ransac.coefficients()[1], -3.0, 0.2);
  EXPECT_LT(ransac.inlier_count(), 80U);
  EXPECT_GE(ransac.inlier_count(), 50U);
}

TEST(TheilSenRegressor, MedianRobustness) {
  Matrix x;
  Vector y;
  make_plane(60, x, y, 0.05);
  for (std::size_t i = 0; i < 8; ++i) y[i * 7] -= 150.0;
  TheilSenRegressor model;
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.4);
  EXPECT_NEAR(model.coefficients()[1], -3.0, 0.4);
}

TEST(ARDRegression, PrunesIrrelevantFeatures) {
  // 6 features, only the first two matter.
  std::mt19937_64 rng(9);
  std::normal_distribution<double> value(0.0, 1.0);
  Matrix x(150, 6);
  Vector y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = value(rng);
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + 0.01 * value(rng);
  }
  ARDRegression ard;
  ard.fit(x, y);
  EXPECT_NEAR(ard.coefficients()[0], 3.0, 0.1);
  EXPECT_NEAR(ard.coefficients()[1], -2.0, 0.1);
  for (std::size_t j = 2; j < 6; ++j) {
    EXPECT_NEAR(ard.coefficients()[j], 0.0, 0.05) << "feature " << j;
  }
}

// Property: every linear model clones to an equivalent untrained model.
class LinearClone : public ::testing::TestWithParam<int> {};

TEST_P(LinearClone, CloneIsIndependentlyTrainable) {
  Matrix x;
  Vector y;
  make_plane(40, x, y, 0.1);
  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<Ridge>());
  models.push_back(std::make_unique<Lasso>());
  models.push_back(std::make_unique<ElasticNet>());
  models.push_back(std::make_unique<SGDRegressor>());
  models.push_back(std::make_unique<HuberRegressor>());
  models.push_back(std::make_unique<RANSACRegressor>());
  models.push_back(std::make_unique<TheilSenRegressor>());
  models.push_back(std::make_unique<ARDRegression>());
  auto& model = *models[static_cast<std::size_t>(GetParam())];
  auto clone = model.clone();
  model.fit(x, y);
  clone->fit(x, y);
  const Vector a = model.predict(x);
  const Vector b = clone->predict(x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Models, LinearClone, ::testing::Range(0, 9));

}  // namespace
}  // namespace hp::ml
