#pragma once
// Hecate Service: the AI/ML optimization side of the framework.
//
// Wraps the regression pipeline of Section V: per-path bandwidth series
// are windowed (history of 10 samples), standardized, and fed to a
// regressor; multi-step forecasts ("the predicted values for the next
// 10 steps") come from recursive one-step prediction; the recommended
// path is the one with the most predicted available bandwidth.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/preprocessing.hpp"
#include "ml/registry.hpp"
#include "ml/regressor.hpp"

namespace hp::core {

/// Pipeline configuration, defaulting to the paper's choices.
struct HecateConfig {
  std::string model = "RFR";     ///< the Fig 6 winner
  std::size_t history = 10;      ///< t-9..t features predict t+1
  std::size_t horizon = 10;      ///< steps forecast for recommendations
  double train_fraction = 0.75;  ///< 75/25 chronological split
};

/// Result of evaluating one model on one series (a Fig 6 data point).
struct ModelScore {
  std::string label;       ///< "R13:RFR"
  std::string short_name;  ///< "RFR"
  double rmse = 0.0;
  double mae = 0.0;
  double r2 = 0.0;
};

/// Observed-vs-predicted pairs over a test split (Figs 7 and 8).
struct PredictionTrace {
  std::vector<double> observed;
  std::vector<double> predicted;
  double rmse = 0.0;
};

/// Run the paper's exact ML pipeline for one model on one series:
/// chronological 75/25 split, StandardScaler fit on the training
/// windows, fit, predict the test split, inverse-transform, score.
[[nodiscard]] PredictionTrace run_pipeline(hp::ml::Regressor& model,
                                           const std::vector<double>& series,
                                           std::size_t history = 10,
                                           double train_fraction = 0.75);

/// Evaluate the full 18-model catalogue on one series (one axis of the
/// Fig 6 scatter).
[[nodiscard]] std::vector<ModelScore> evaluate_catalog(
    const std::vector<double>& series, std::size_t history = 10,
    double train_fraction = 0.75);

/// The Hecate service proper: holds per-path series and trained models.
class HecateService {
 public:
  explicit HecateService(HecateConfig config = {});

  /// Append one bandwidth observation for a path.
  void observe(const std::string& path, double t_s, double mbps);

  /// Bulk-load a series (e.g. from the Telemetry Service).
  void load_series(const std::string& path, const std::vector<double>& values);

  /// (Re)train the configured model on a path's accumulated series.
  /// Throws std::runtime_error when fewer than history+2 samples exist.
  void fit(const std::string& path);

  /// Recursive multi-step forecast from the latest window; fit() must
  /// have been called for the path.
  [[nodiscard]] std::vector<double> forecast(const std::string& path,
                                             std::size_t steps) const;

  /// Recommend the path with the highest mean forecast bandwidth over
  /// the configured horizon.  Paths that are not trained are skipped;
  /// returns nullopt when none is usable.
  [[nodiscard]] std::optional<std::string> recommend(
      const std::vector<std::string>& paths) const;

  [[nodiscard]] bool is_trained(const std::string& path) const;
  [[nodiscard]] std::size_t series_length(const std::string& path) const;
  [[nodiscard]] const HecateConfig& config() const noexcept { return config_; }

 private:
  struct PathModel {
    std::vector<double> series;
    hp::ml::StandardScaler x_scaler;
    hp::ml::StandardScaler y_scaler;
    std::unique_ptr<hp::ml::Regressor> model;
    bool trained = false;
  };

  HecateConfig config_;
  std::map<std::string, PathModel> paths_;
};

}  // namespace hp::core
