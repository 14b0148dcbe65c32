#ifndef REMEDY_ML_LOGISTIC_REGRESSION_H_
#define REMEDY_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <vector>

#include "data/encoding.h"
#include "ml/classifier.h"

namespace remedy {

struct LogisticRegressionParams {
  double learning_rate = 0.5;
  double l2 = 1e-4;
  int epochs = 200;
  // Workers for the blocked gradient reduction: 1 = serial, <= 0 = every
  // usable CPU. The coefficients are bit-identical for every value: rows
  // are partitioned into fixed-size blocks whose partial gradients are
  // combined in block order regardless of which worker produced them.
  int threads = 1;
};

// L2-regularized logistic regression over one-hot-encoded categorical
// features, trained by full-batch gradient descent on the weighted
// log-loss. Deterministic (zero initialization, fixed epoch count).
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(LogisticRegressionParams params = {});

  void Fit(const Dataset& train) override;
  void FitEncoded(const EncodedMatrix& train) override;
  double PredictProba(const Dataset& data, int row) const override;
  std::vector<double> PredictProbaAll(const Dataset& data) const override;
  std::vector<double> PredictProbaAllEncoded(
      const EncodedMatrix& data) const override;

  const std::vector<double>& coefficients() const { return coefficients_; }
  double intercept() const { return intercept_; }

 private:
  LogisticRegressionParams params_;
  std::unique_ptr<OneHotEncoder> encoder_;
  std::vector<double> coefficients_;
  double intercept_ = 0.0;
};

}  // namespace remedy

#endif  // REMEDY_ML_LOGISTIC_REGRESSION_H_
