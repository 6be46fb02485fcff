// Tests for the kernel models (GPR and SVR) and the regressor registry.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ml/gpr.hpp"
#include "ml/metrics.hpp"
#include "ml/registry.hpp"
#include "ml/svr.hpp"

namespace hp::ml {
namespace {

void make_sine(std::size_t n, Matrix& x, Vector& y, std::uint64_t seed = 21) {
  x = Matrix(n, 1);
  y.resize(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = u(rng);
    y[i] = std::sin(x(i, 0));
  }
}

TEST(GaussianProcess, InterpolatesTrainingPoints) {
  Matrix x;
  Vector y;
  make_sine(40, x, y);
  GaussianProcessRegressor gpr;
  gpr.fit(x, y);
  // With near-zero noise the GP interpolates its training data.
  EXPECT_LT(rmse(y, gpr.predict(x)), 1e-4);
}

TEST(GaussianProcess, GeneralizesNearTrainingData) {
  Matrix x;
  Vector y;
  make_sine(80, x, y);
  GaussianProcessRegressor gpr;
  gpr.fit(x, y);
  Matrix x_test{{0.5}, {-1.2}, {2.0}};
  const Vector pred = gpr.predict(x_test);
  EXPECT_NEAR(pred[0], std::sin(0.5), 0.05);
  EXPECT_NEAR(pred[1], std::sin(-1.2), 0.05);
  EXPECT_NEAR(pred[2], std::sin(2.0), 0.05);
}

TEST(GaussianProcess, CollapsesToPriorMeanFarAway) {
  // The paper's Fig 8 failure mode: with unit length scale, queries far
  // from all training data revert to the zero prior mean.
  Matrix x;
  Vector y;
  make_sine(40, x, y);
  for (auto& v : y) v += 10.0;  // shift targets away from zero
  GaussianProcessRegressor gpr;
  gpr.fit(x, y);
  const Vector far = gpr.predict(Matrix{{100.0}});
  EXPECT_NEAR(far[0], 0.0, 1e-6);  // NOT ~10: reverts to prior
}

TEST(GaussianProcess, PosteriorStdSmallAtTrainingLargeFar) {
  Matrix x;
  Vector y;
  make_sine(30, x, y);
  GaussianProcessRegressor gpr;
  gpr.fit(x, y);
  const Vector std_at_train = gpr.predict_std(Matrix{{x(0, 0)}});
  const Vector std_far = gpr.predict_std(Matrix{{50.0}});
  EXPECT_LT(std_at_train[0], 0.01);
  EXPECT_GT(std_far[0], 0.9);
}

TEST(SvrLinear, FitsLineWithinEpsilon) {
  Matrix x(60, 1);
  Vector y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0 - 3.0;
    y[i] = 1.5 * x(i, 0) + 0.3;
  }
  SVR::Params params;
  params.kernel = SvrKernel::kLinear;
  params.c = 10.0;
  SVR model(params);
  model.fit(x, y);
  // Epsilon-insensitive: errors should be near the 0.1 tube.
  EXPECT_LT(rmse(y, model.predict(x)), 0.15);
}

TEST(SvrRbf, FitsSine) {
  Matrix x;
  Vector y;
  make_sine(120, x, y);
  SVR::Params params;
  params.kernel = SvrKernel::kRbf;
  params.c = 10.0;
  SVR model(params);
  model.fit(x, y);
  EXPECT_LT(rmse(y, model.predict(x)), 0.2);
  EXPECT_GT(model.support_vector_count(), 0U);
}

TEST(Svr, DualVariablesRespectBox) {
  // Indirect check: with tiny C the fit saturates and underfits.
  Matrix x;
  Vector y;
  make_sine(60, x, y);
  for (double& v : y) v *= 20.0;  // big targets vs small C
  SVR::Params params;
  params.c = 0.01;
  SVR weak(params);
  weak.fit(x, y);
  params.c = 50.0;
  SVR strong(params);
  strong.fit(x, y);
  EXPECT_LT(rmse(y, strong.predict(x)), rmse(y, weak.predict(x)));
}

TEST(Registry, EighteenModelsWithPaperLabels) {
  const auto catalog = make_regressor_catalog();
  ASSERT_EQ(catalog.size(), 18U);
  EXPECT_EQ(catalog[0].label, "R1:AdaBoostR");
  EXPECT_EQ(catalog[6].label, "R7:GPR");
  EXPECT_EQ(catalog[12].label, "R13:RFR");
  EXPECT_EQ(catalog[17].label, "R18:TheilSenR");
  for (const auto& entry : catalog) {
    EXPECT_NE(entry.model, nullptr) << entry.label;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_regressor("Perceptron"), std::invalid_argument);
  EXPECT_THROW((void)make_regressor("MLP"), std::invalid_argument);
}

// Property sweep: every catalogue model fits a noiseless linear signal
// and beats the predict-the-mean baseline on training data.
class AllRegressorsSanity : public ::testing::TestWithParam<std::string> {};

TEST_P(AllRegressorsSanity, BeatsMeanBaselineOnLinearSignal) {
  auto model = make_regressor(GetParam());
  std::mt19937_64 rng(77);
  std::normal_distribution<double> u(0.0, 1.0);
  Matrix x(120, 3);
  Vector y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = u(rng);
    y[i] = 2.0 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2);
  }
  model->fit(x, y);
  const double model_rmse = rmse(y, model->predict(x));
  Vector mean_pred(y.size(), mean(y));
  const double baseline = rmse(y, mean_pred);
  EXPECT_LT(model_rmse, baseline) << GetParam();
}

TEST_P(AllRegressorsSanity, PredictionSizeMatchesQuery) {
  auto model = make_regressor(GetParam());
  Matrix x(40, 2);
  Vector y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i % 7);
    y[i] = static_cast<double>(i % 5);
  }
  model->fit(x, y);
  Matrix q(7, 2, 1.0);
  EXPECT_EQ(model->predict(q).size(), 7U) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Catalog, AllRegressorsSanity,
                         ::testing::ValuesIn(regressor_short_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-' || c == '_') c = '0';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hp::ml
