#ifndef REMEDY_ML_CLASSIFIER_H_
#define REMEDY_ML_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "data/encoding.h"

namespace remedy {

// Binary classifier interface shared by every learner in the library.
//
// All learners consume categorical datasets (numeric learners one-hot encode
// internally), honor per-instance weights from Dataset::Weight — which is
// what the reweighting baselines rely on — and are deterministic given their
// seed.
//
// Prediction has one per-row entry (PredictProba) and one block entry
// (PredictProbaAll). A learner overrides the block entry when it can score
// a whole dataset faster than row by row — the forest walks one tree over
// every row at a time, LR and NN score one EncodedMatrix — and must return
// exactly PredictProba's bits for every row. Hard predictions compare each
// probability with ThresholdFor(row), 0.5 unless a wrapper moves it, so
// PredictAll and PredictAllEncoded take the block path and still honor the
// cost-sensitive and threshold-postprocessing decision rules.
//
// The Encoded variants accept a pre-built EncodedMatrix so the one-hot
// representation is computed once per split and shared across models and
// metrics. They are contractually bit-identical to the Dataset forms: a
// learner that overrides them must produce the same model / predictions as
// its Fit / PredictProba path on the matrix's dataset.
class Classifier {
 public:
  virtual ~Classifier() = default;

  // Trains on `train`; may be called again to retrain from scratch.
  virtual void Fit(const Dataset& train) = 0;

  // Trains on the dataset behind `train`, reusing its cached encoding when
  // the learner has one (logistic regression, neural network). Default
  // forwards to Fit.
  virtual void FitEncoded(const EncodedMatrix& train) { Fit(train.data()); }

  // P(y = 1 | x) for row `row` of `data`. Requires a prior Fit.
  virtual double PredictProba(const Dataset& data, int row) const = 0;

  // Probabilities for every row; entry r equals PredictProba(data, r).
  // Default loops over PredictProba.
  virtual std::vector<double> PredictProbaAll(const Dataset& data) const {
    std::vector<double> probabilities(data.NumRows());
    for (int r = 0; r < data.NumRows(); ++r) {
      probabilities[r] = PredictProba(data, r);
    }
    return probabilities;
  }

  // Probabilities for every row of the dataset behind `data`, reusing its
  // cached encoding when the learner has one. Default forwards to
  // PredictProbaAll.
  virtual std::vector<double> PredictProbaAllEncoded(
      const EncodedMatrix& data) const {
    return PredictProbaAll(data.data());
  }

  // Decision threshold for row `row`: a row is predicted positive when its
  // probability is >= this. 0.5 unless the learner has its own rule.
  virtual double ThresholdFor(const Dataset& /*data*/, int /*row*/) const {
    return 0.5;
  }

  // Hard prediction of one row.
  int Predict(const Dataset& data, int row) const {
    return PredictProba(data, row) >= ThresholdFor(data, row) ? 1 : 0;
  }

  // Hard predictions for every row, through the block entry.
  std::vector<int> PredictAll(const Dataset& data) const {
    return Decide(data, PredictProbaAll(data));
  }

  // Hard predictions for every row of the dataset behind `data`, through
  // PredictProbaAllEncoded.
  std::vector<int> PredictAllEncoded(const EncodedMatrix& data) const {
    return Decide(data.data(), PredictProbaAllEncoded(data));
  }

 private:
  std::vector<int> Decide(const Dataset& data,
                          const std::vector<double>& probabilities) const {
    std::vector<int> predictions(probabilities.size());
    for (size_t r = 0; r < probabilities.size(); ++r) {
      const int row = static_cast<int>(r);
      predictions[r] = probabilities[r] >= ThresholdFor(data, row) ? 1 : 0;
    }
    return predictions;
  }
};

using ClassifierPtr = std::unique_ptr<Classifier>;

}  // namespace remedy

#endif  // REMEDY_ML_CLASSIFIER_H_
