#ifndef REMEDY_BASELINES_THRESHOLD_POSTPROCESS_H_
#define REMEDY_BASELINES_THRESHOLD_POSTPROCESS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fairness/divergence.h"
#include "ml/classifier.h"

namespace remedy {

// Post-processing baseline in the spirit of Hardt, Price & Srebro [15]:
// after fitting the base model, each leaf-level intersectional subgroup
// gets its own decision threshold, chosen on the training data so the
// subgroup's FPR (or FNR) matches the model's overall rate at 0.5.
//
// The paper's taxonomy (Sec. I / VII) contrasts this family with its
// pre-processing approach: post-processing manipulates predictions, needs
// access to them at decision time, and leaves the biased training data in
// place. The extension bench puts the two side by side.

struct ThresholdPostprocessParams {
  Statistic statistic = Statistic::kFpr;  // kFpr or kFnr
  int64_t min_group_size = 30;  // smaller groups keep the 0.5 threshold
};

class ThresholdPostprocessor : public Classifier {
 public:
  // Takes ownership of the base model.
  ThresholdPostprocessor(ClassifierPtr base,
                         ThresholdPostprocessParams params = {});

  // Fits the base model on `train`, then calibrates per-subgroup
  // thresholds on the same data.
  void Fit(const Dataset& train) override;

  double PredictProba(const Dataset& data, int row) const override;
  std::vector<double> PredictProbaAll(const Dataset& data) const override;
  std::vector<double> PredictProbaAllEncoded(
      const EncodedMatrix& data) const override;

  // Threshold calibrated for the subgroup of `row` (0.5 for unseen or
  // small subgroups); Predict and PredictAll apply it.
  double ThresholdFor(const Dataset& data, int row) const override;

 private:
  ClassifierPtr base_;
  ThresholdPostprocessParams params_;
  // Leaf-subgroup key (RegionCounter::RowKey) -> threshold.
  std::unordered_map<uint64_t, double> thresholds_;
  std::vector<int> protected_cols_;
  std::vector<int> cardinalities_;
  bool fitted_ = false;
};

}  // namespace remedy

#endif  // REMEDY_BASELINES_THRESHOLD_POSTPROCESS_H_
