#include "baselines/threshold_postprocess.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/region_counter.h"

namespace remedy {

ThresholdPostprocessor::ThresholdPostprocessor(
    ClassifierPtr base, ThresholdPostprocessParams params)
    : base_(std::move(base)), params_(params) {
  REMEDY_CHECK(base_ != nullptr);
  REMEDY_CHECK(params_.statistic == Statistic::kFpr ||
               params_.statistic == Statistic::kFnr)
      << "threshold post-processing equalizes FPR or FNR";
}

void ThresholdPostprocessor::Fit(const Dataset& train) {
  REMEDY_CHECK(train.schema().NumProtected() > 0);
  base_->Fit(train);
  thresholds_.clear();

  RegionCounter counter(train.schema());
  const uint32_t leaf_mask = (1u << counter.NumProtected()) - 1u;
  std::unordered_map<uint64_t, std::vector<int>> groups =
      counter.CollectRows(train, leaf_mask);
  std::vector<double> probabilities = base_->PredictProbaAll(train);

  // The conditioning class whose rate we equalize.
  const int audited_label = params_.statistic == Statistic::kFpr ? 0 : 1;

  // Overall target rate at the default 0.5 threshold.
  int64_t relevant = 0, events = 0;
  for (int r = 0; r < train.NumRows(); ++r) {
    if (train.Label(r) != audited_label) continue;
    ++relevant;
    bool positive = probabilities[r] >= 0.5;
    events += params_.statistic == Statistic::kFpr ? positive : !positive;
  }
  const double target =
      relevant > 0 ? static_cast<double>(events) / relevant : 0.0;

  for (const auto& [key, rows] : groups) {
    if (static_cast<int64_t>(rows.size()) < params_.min_group_size) continue;
    // Scores of the subgroup's audited-class instances, sorted.
    std::vector<double> scores;
    for (int row : rows) {
      if (train.Label(row) == audited_label) {
        scores.push_back(probabilities[row]);
      }
    }
    if (scores.empty()) continue;
    std::sort(scores.begin(), scores.end());
    const int64_t m = static_cast<int64_t>(scores.size());

    // Candidate thresholds: midpoints between consecutive scores plus the
    // extremes; pick the one whose subgroup rate is closest to the target.
    std::vector<double> candidates = {0.0, 1.0 + 1e-9};
    for (int64_t i = 0; i + 1 < m; ++i) {
      candidates.push_back((scores[i] + scores[i + 1]) / 2.0);
    }
    double best_threshold = 0.5;
    double best_gap = std::fabs(
        [&] {
          int64_t above = m - (std::lower_bound(scores.begin(), scores.end(),
                                                0.5) -
                               scores.begin());
          double fp_rate = static_cast<double>(above) / m;
          return params_.statistic == Statistic::kFpr ? fp_rate
                                                      : 1.0 - fp_rate;
        }() -
        target);
    for (double threshold : candidates) {
      int64_t above = m - (std::lower_bound(scores.begin(), scores.end(),
                                            threshold) -
                           scores.begin());
      double positive_rate = static_cast<double>(above) / m;
      double rate = params_.statistic == Statistic::kFpr
                        ? positive_rate
                        : 1.0 - positive_rate;
      double gap = std::fabs(rate - target);
      if (gap < best_gap - 1e-12) {
        best_gap = gap;
        best_threshold = threshold;
      }
    }
    thresholds_[key] = best_threshold;
  }

  // Cache the row-key plumbing for Predict.
  protected_cols_ = train.schema().protected_indices();
  cardinalities_.clear();
  for (int column : protected_cols_) {
    cardinalities_.push_back(train.schema().attribute(column).Cardinality());
  }
  fitted_ = true;
}

double ThresholdPostprocessor::PredictProba(const Dataset& data,
                                            int row) const {
  return base_->PredictProba(data, row);
}

double ThresholdPostprocessor::ThresholdFor(const Dataset& data,
                                            int row) const {
  REMEDY_CHECK(fitted_);
  uint64_t key = 0;
  for (size_t i = 0; i < protected_cols_.size(); ++i) {
    key = key * cardinalities_[i] +
          static_cast<uint64_t>(data.Value(row, protected_cols_[i]));
  }
  auto it = thresholds_.find(key);
  return it == thresholds_.end() ? 0.5 : it->second;
}

std::vector<double> ThresholdPostprocessor::PredictProbaAll(
    const Dataset& data) const {
  return base_->PredictProbaAll(data);
}

std::vector<double> ThresholdPostprocessor::PredictProbaAllEncoded(
    const EncodedMatrix& data) const {
  return base_->PredictProbaAllEncoded(data);
}

}  // namespace remedy
