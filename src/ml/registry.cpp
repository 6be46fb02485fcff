#include "ml/registry.hpp"

#include <stdexcept>

#include "ml/ensemble.hpp"
#include "ml/gpr.hpp"
#include "ml/hist_gbr.hpp"
#include "ml/linear.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"

namespace hp::ml {

namespace {

std::unique_ptr<Regressor> make_by_name(const std::string& name) {
  if (name == "AdaBoostR") return std::make_unique<AdaBoostRegressor>();
  if (name == "ARDR") return std::make_unique<ARDRegression>();
  if (name == "Bagging") return std::make_unique<BaggingRegressor>();
  if (name == "DTR") return std::make_unique<DecisionTreeRegressor>();
  if (name == "ElasticNet") return std::make_unique<ElasticNet>();
  if (name == "GBR") return std::make_unique<GradientBoostingRegressor>();
  if (name == "GPR") return std::make_unique<GaussianProcessRegressor>();
  if (name == "HGBR") {
    return std::make_unique<HistGradientBoostingRegressor>();
  }
  if (name == "HuberR") return std::make_unique<HuberRegressor>();
  if (name == "Lasso") return std::make_unique<Lasso>();
  if (name == "LR") return std::make_unique<LinearRegression>();
  if (name == "RANSACR") return std::make_unique<RANSACRegressor>();
  if (name == "RFR") return std::make_unique<RandomForestRegressor>();
  if (name == "Ridge") return std::make_unique<Ridge>();
  if (name == "SGDR") return std::make_unique<SGDRegressor>();
  if (name == "SVM_Linear") {
    SVR::Params params;
    params.kernel = SvrKernel::kLinear;
    return std::make_unique<SVR>(params);
  }
  if (name == "SVM_RBF") {
    SVR::Params params;
    params.kernel = SvrKernel::kRbf;
    return std::make_unique<SVR>(params);
  }
  if (name == "TheilSenR") return std::make_unique<TheilSenRegressor>();
  throw std::invalid_argument("make_regressor: unknown model " + name);
}

}  // namespace

std::vector<std::string> regressor_short_names() {
  // Paper Section V-A2, alphabetical, labels R1..R18.
  return {"AdaBoostR", "ARDR",   "Bagging",    "DTR",     "ElasticNet",
          "GBR",       "GPR",    "HGBR",       "HuberR",  "Lasso",
          "LR",        "RANSACR", "RFR",       "Ridge",   "SGDR",
          "SVM_Linear", "SVM_RBF", "TheilSenR"};
}

std::vector<CatalogEntry> make_regressor_catalog() {
  std::vector<CatalogEntry> catalog;
  const auto names = regressor_short_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    CatalogEntry entry;
    entry.label = "R" + std::to_string(i + 1) + ":" + names[i];
    entry.short_name = names[i];
    entry.model = make_by_name(names[i]);
    catalog.push_back(std::move(entry));
  }
  return catalog;
}

std::unique_ptr<Regressor> make_regressor(const std::string& short_name) {
  return make_by_name(short_name);
}

}  // namespace hp::ml
