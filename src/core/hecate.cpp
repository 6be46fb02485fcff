#include "core/hecate.hpp"

#include <stdexcept>

#include "dataset/uq_wireless.hpp"

namespace hp::core {

using hp::dataset::make_windows;
using hp::ml::Matrix;
using hp::ml::StandardScaler;
using hp::ml::Vector;

PredictionTrace run_pipeline(hp::ml::Regressor& model,
                             const std::vector<double>& series,
                             std::size_t history, double train_fraction) {
  // Window the raw series, split chronologically, then scale the
  // *features*: the scaler sees only training data (fit) and is applied
  // to both splits (transform), as in the paper's Section V-B.  The
  // target stays in Mbps -- the paper's GPR RMSE (52.43 for LTE)
  // exceeds the series' own standard deviation, which is only possible
  // when the zero-mean GP prior faces an uncentred target, so the
  // published pipeline cannot have standardized y.
  const auto windows = make_windows(series, history, 1);
  const auto split =
      hp::ml::chronological_split(windows.x, windows.y, train_fraction);

  StandardScaler x_scaler;
  const Matrix x_train = x_scaler.fit_transform(split.x_train);
  const Matrix x_test = x_scaler.transform(split.x_test);

  model.fit(x_train, split.y_train);

  PredictionTrace trace;
  trace.predicted = model.predict(x_test);
  trace.observed = split.y_test;
  trace.rmse = hp::ml::rmse(trace.observed, trace.predicted);
  return trace;
}

std::vector<ModelScore> evaluate_catalog(const std::vector<double>& series,
                                         std::size_t history,
                                         double train_fraction) {
  std::vector<ModelScore> scores;
  for (auto& entry : hp::ml::make_regressor_catalog()) {
    const PredictionTrace trace =
        run_pipeline(*entry.model, series, history, train_fraction);
    ModelScore score;
    score.label = entry.label;
    score.short_name = entry.short_name;
    score.rmse = trace.rmse;
    score.mae = hp::ml::mae(trace.observed, trace.predicted);
    score.r2 = hp::ml::r2(trace.observed, trace.predicted);
    scores.push_back(std::move(score));
  }
  return scores;
}

HecateService::HecateService(HecateConfig config)
    : config_(std::move(config)) {
  if (config_.history == 0) {
    throw std::invalid_argument("HecateService: history must be >= 1");
  }
}

void HecateService::observe(const std::string& path, double /*t_s*/,
                            double mbps) {
  paths_[path].series.push_back(mbps);
}

void HecateService::load_series(const std::string& path,
                                const std::vector<double>& values) {
  auto& state = paths_[path];
  state.series.insert(state.series.end(), values.begin(), values.end());
}

void HecateService::fit(const std::string& path) {
  auto it = paths_.find(path);
  if (it == paths_.end() || it->second.series.size() < config_.history + 2) {
    throw std::runtime_error("HecateService::fit: not enough samples for " +
                             path);
  }
  PathModel& state = it->second;
  const auto windows = make_windows(state.series, config_.history, 1);
  const Matrix x = state.x_scaler.fit_transform(windows.x);
  state.y_scaler.fit(windows.y);
  const Vector y = state.y_scaler.transform(windows.y);
  state.model = hp::ml::make_regressor(config_.model);
  state.model->fit(x, y);
  state.trained = true;
}

std::vector<double> HecateService::forecast(const std::string& path,
                                            std::size_t steps) const {
  const auto it = paths_.find(path);
  if (it == paths_.end() || !it->second.trained) {
    throw std::runtime_error("HecateService::forecast: path not trained: " +
                             path);
  }
  const PathModel& state = it->second;
  // Rolling window seeded with the latest observations; predictions are
  // appended and fed back for multi-step forecasting.
  std::vector<double> window(state.series.end() -
                                 static_cast<std::ptrdiff_t>(config_.history),
                             state.series.end());
  std::vector<double> out;
  out.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    Matrix x(1, config_.history);
    for (std::size_t j = 0; j < config_.history; ++j) x(0, j) = window[j];
    const Matrix xs = state.x_scaler.transform(x);
    const double pred_scaled = state.model->predict(xs)[0];
    const double pred = state.y_scaler.inverse_transform(
        Vector{pred_scaled})[0];
    out.push_back(pred);
    window.erase(window.begin());
    window.push_back(pred);
  }
  return out;
}

std::optional<std::string> HecateService::recommend(
    const std::vector<std::string>& paths) const {
  std::optional<std::string> best;
  double best_mean = -1.0;
  for (const std::string& path : paths) {
    const auto it = paths_.find(path);
    if (it == paths_.end() || !it->second.trained) continue;
    const auto forecasts = forecast(path, config_.horizon);
    double total = 0.0;
    for (const double v : forecasts) total += v;
    const double mean = total / static_cast<double>(forecasts.size());
    if (mean > best_mean) {
      best_mean = mean;
      best = path;
    }
  }
  return best;
}

bool HecateService::is_trained(const std::string& path) const {
  const auto it = paths_.find(path);
  return it != paths_.end() && it->second.trained;
}

std::size_t HecateService::series_length(const std::string& path) const {
  const auto it = paths_.find(path);
  return it == paths_.end() ? 0 : it->second.series.size();
}

}  // namespace hp::core
