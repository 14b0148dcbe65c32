#include "ml/cost_sensitive.h"

#include "common/check.h"

namespace remedy {

CostSensitiveClassifier::CostSensitiveClassifier(ClassifierPtr base,
                                                 CostMatrix costs)
    : base_(std::move(base)) {
  REMEDY_CHECK(base_ != nullptr);
  REMEDY_CHECK(costs.false_positive_cost > 0.0);
  REMEDY_CHECK(costs.false_negative_cost > 0.0);
  threshold_ = costs.false_positive_cost /
               (costs.false_positive_cost + costs.false_negative_cost);
}

void CostSensitiveClassifier::Fit(const Dataset& train) {
  base_->Fit(train);
}

double CostSensitiveClassifier::PredictProba(const Dataset& data,
                                             int row) const {
  return base_->PredictProba(data, row);
}

std::vector<double> CostSensitiveClassifier::PredictProbaAll(
    const Dataset& data) const {
  return base_->PredictProbaAll(data);
}

std::vector<double> CostSensitiveClassifier::PredictProbaAllEncoded(
    const EncodedMatrix& data) const {
  return base_->PredictProbaAllEncoded(data);
}

}  // namespace remedy
