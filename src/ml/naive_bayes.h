#ifndef REMEDY_ML_NAIVE_BAYES_H_
#define REMEDY_ML_NAIVE_BAYES_H_

#include <cstdint>
#include <vector>

#include "ml/classifier.h"

namespace remedy {

struct NaiveBayesParams {
  double smoothing = 1.0;  // Laplace / additive smoothing
};

// Categorical naive Bayes with Laplace smoothing and weighted counts.
// Doubles as the borderline-instance ranker that preferential sampling and
// data massaging use (Sec. IV-A), mirroring the paper's choice of a Naive
// Bayes ranker.
class NaiveBayes : public Classifier {
 public:
  explicit NaiveBayes(NaiveBayesParams params = {});

  void Fit(const Dataset& train) override;
  double PredictProba(const Dataset& data, int row) const override;

  // Fit over class-conditional value counts instead of rows, for sources
  // that hold counts only: `class_counts[y]` unit-weight instances of class
  // y, of which `value_counts[y][c][v]` carry code v in column c. The model
  // is bit-identical to Fit on any dataset with those counts as long as
  // every smoothed sum is exactly representable (integer counts below 2^52
  // with the default smoothing 1.0): Fit's row-by-row sums are then exact
  // too, so the order they were added in cannot show.
  void FitCounts(
      const DataSchema& schema, const int64_t class_counts[2],
      const std::vector<std::vector<std::vector<int64_t>>>& value_counts);

  // PredictProba of one instance given by its column codes.
  double PredictProbaCodes(const std::vector<int>& codes) const;

 private:
  // Turns smoothed class weights and value counts into the log tables.
  void SetLogTables(
      const DataSchema& schema, const double class_weight[2],
      const std::vector<std::vector<std::vector<double>>>& counts);
  // P(y = 1 | x) with `code(c)` the code of column c of x.
  template <typename CodeFn>
  double Proba(int num_columns, CodeFn code) const;

  NaiveBayesParams params_;
  // log P(y)
  double log_prior_[2] = {0.0, 0.0};
  // log P(a_c = v | y): log_likelihood_[y][c][v]
  std::vector<std::vector<std::vector<double>>> log_likelihood_;
  bool fitted_ = false;
};

}  // namespace remedy

#endif  // REMEDY_ML_NAIVE_BAYES_H_
