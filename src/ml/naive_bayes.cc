#include "ml/naive_bayes.h"

#include <cmath>

#include "common/check.h"

namespace remedy {

NaiveBayes::NaiveBayes(NaiveBayesParams params) : params_(params) {
  REMEDY_CHECK(params_.smoothing > 0.0);
}

void NaiveBayes::Fit(const Dataset& train) {
  REMEDY_CHECK(train.NumRows() > 0);
  const int num_columns = train.NumColumns();
  const double alpha = params_.smoothing;

  double class_weight[2] = {alpha, alpha};
  // counts[y][c][v]: weighted count of value v of attribute c in class y.
  std::vector<std::vector<std::vector<double>>> counts(2);
  for (int y = 0; y < 2; ++y) {
    counts[y].resize(num_columns);
    for (int c = 0; c < num_columns; ++c) {
      counts[y][c].assign(train.schema().attribute(c).Cardinality(), alpha);
    }
  }
  for (int r = 0; r < train.NumRows(); ++r) {
    int y = train.Label(r);
    double w = train.Weight(r);
    class_weight[y] += w;
    for (int c = 0; c < num_columns; ++c) {
      counts[y][c][train.Value(r, c)] += w;
    }
  }

  SetLogTables(train.schema(), class_weight, counts);
}

void NaiveBayes::FitCounts(
    const DataSchema& schema, const int64_t class_counts[2],
    const std::vector<std::vector<std::vector<int64_t>>>& value_counts) {
  REMEDY_CHECK(class_counts[0] + class_counts[1] > 0);
  REMEDY_CHECK(value_counts.size() == 2);
  const int num_columns = schema.NumAttributes();
  const double alpha = params_.smoothing;
  const double class_weight[2] = {alpha + static_cast<double>(class_counts[0]),
                                  alpha + static_cast<double>(class_counts[1])};
  std::vector<std::vector<std::vector<double>>> counts(2);
  for (int y = 0; y < 2; ++y) {
    REMEDY_CHECK(static_cast<int>(value_counts[y].size()) == num_columns);
    counts[y].resize(num_columns);
    for (int c = 0; c < num_columns; ++c) {
      const int cardinality = schema.attribute(c).Cardinality();
      REMEDY_CHECK(static_cast<int>(value_counts[y][c].size()) == cardinality);
      counts[y][c].resize(cardinality);
      for (int v = 0; v < cardinality; ++v) {
        counts[y][c][v] = alpha + static_cast<double>(value_counts[y][c][v]);
      }
    }
  }
  SetLogTables(schema, class_weight, counts);
}

void NaiveBayes::SetLogTables(
    const DataSchema& schema, const double class_weight[2],
    const std::vector<std::vector<std::vector<double>>>& counts) {
  const int num_columns = schema.NumAttributes();
  const double alpha = params_.smoothing;
  double total = class_weight[0] + class_weight[1];
  log_prior_[0] = std::log(class_weight[0] / total);
  log_prior_[1] = std::log(class_weight[1] / total);
  log_likelihood_.assign(2, {});
  for (int y = 0; y < 2; ++y) {
    log_likelihood_[y].resize(num_columns);
    for (int c = 0; c < num_columns; ++c) {
      int cardinality = schema.attribute(c).Cardinality();
      // Smoothing mass already added above; the denominator adds the raw
      // class weight plus one alpha per value.
      double denom = class_weight[y] - alpha + alpha * cardinality;
      log_likelihood_[y][c].resize(cardinality);
      for (int v = 0; v < cardinality; ++v) {
        log_likelihood_[y][c][v] = std::log(counts[y][c][v] / denom);
      }
    }
  }
  fitted_ = true;
}

template <typename CodeFn>
double NaiveBayes::Proba(int num_columns, CodeFn code) const {
  REMEDY_CHECK(fitted_) << "NaiveBayes::Fit has not been called";
  double log_joint[2] = {log_prior_[0], log_prior_[1]};
  for (int y = 0; y < 2; ++y) {
    for (int c = 0; c < num_columns; ++c) {
      log_joint[y] += log_likelihood_[y][c][code(c)];
    }
  }
  // P(y=1 | x) = 1 / (1 + exp(log_joint[0] - log_joint[1]))
  double diff = log_joint[0] - log_joint[1];
  if (diff >= 0) {
    double e = std::exp(-diff);
    return e / (1.0 + e);
  }
  return 1.0 / (1.0 + std::exp(diff));
}

double NaiveBayes::PredictProba(const Dataset& data, int row) const {
  return Proba(data.NumColumns(),
               [&data, row](int c) { return data.Value(row, c); });
}

double NaiveBayes::PredictProbaCodes(const std::vector<int>& codes) const {
  return Proba(static_cast<int>(codes.size()),
               [&codes](int c) { return codes[c]; });
}

}  // namespace remedy
