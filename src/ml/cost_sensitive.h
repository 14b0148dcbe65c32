#ifndef REMEDY_ML_COST_SENSITIVE_H_
#define REMEDY_ML_COST_SENSITIVE_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace remedy {

// Misclassification costs for cost-sensitive decision making.
struct CostMatrix {
  double false_positive_cost = 1.0;
  double false_negative_cost = 1.0;
};

// Cost-sensitive wrapper (Zadrozny, Langford & Abe [36]): keeps the base
// model's probability estimates and moves the decision threshold to the
// Bayes-optimal point  c_fp / (c_fp + c_fn).
//
// The paper's Limitations section notes that the IBS-unfairness correlation
// holds for classifiers *optimized for accuracy* and may break for
// cost-sensitive ones — this wrapper exists so that claim can be tested
// (see bench/ablation_cost_sensitive and the integration tests).
class CostSensitiveClassifier : public Classifier {
 public:
  // Takes ownership of `base`. Costs must be positive.
  CostSensitiveClassifier(ClassifierPtr base, CostMatrix costs);

  void Fit(const Dataset& train) override;
  double PredictProba(const Dataset& data, int row) const override;
  std::vector<double> PredictProbaAll(const Dataset& data) const override;
  std::vector<double> PredictProbaAllEncoded(
      const EncodedMatrix& data) const override;
  // Thresholds at c_fp / (c_fp + c_fn) instead of 0.5.
  double ThresholdFor(const Dataset& /*data*/, int /*row*/) const override {
    return threshold_;
  }

  double Threshold() const { return threshold_; }

 private:
  ClassifierPtr base_;
  double threshold_ = 0.5;
};

}  // namespace remedy

#endif  // REMEDY_ML_COST_SENSITIVE_H_
