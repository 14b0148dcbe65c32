#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

namespace remedy {
namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

// Rows per gradient block. Fixed (never derived from the thread count) so
// the partial sums — and therefore the combined gradient — are the same no
// matter how many workers claim blocks.
constexpr int kGradientBlockRows = 2048;

}  // namespace

LogisticRegression::LogisticRegression(LogisticRegressionParams params)
    : params_(params) {
  REMEDY_CHECK(params_.epochs > 0);
  REMEDY_CHECK(params_.learning_rate > 0.0);
  REMEDY_CHECK(params_.l2 >= 0.0);
}

void LogisticRegression::Fit(const Dataset& train) {
  FitEncoded(EncodedMatrix(train));
}

void LogisticRegression::FitEncoded(const EncodedMatrix& train) {
  REMEDY_TRACE_SPAN("ml/fit");
  WallTimer timer;
  const Dataset& data = train.data();
  REMEDY_CHECK(data.NumRows() > 0);
  encoder_ = std::make_unique<OneHotEncoder>(train.encoder());
  const int width = train.Width();
  const int n = data.NumRows();
  const int num_columns = data.NumColumns();
  coefficients_.assign(width, 0.0);
  intercept_ = 0.0;

  std::vector<double> weights(n);
  double total_weight = 0.0;
  for (int r = 0; r < n; ++r) {
    weights[r] = data.Weight(r);
    total_weight += weights[r];
  }
  REMEDY_CHECK(total_weight > 0.0) << "all training weights are zero";

  const int num_blocks = (n + kGradientBlockRows - 1) / kGradientBlockRows;
  const int threads =
      std::min(ResolveThreadCount(params_.threads), num_blocks);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Slot `b` holds block b's partial gradient: `width` coefficient entries
  // plus the intercept entry at index `width`, padded to whole cache lines
  // (every row writes its slot's intercept entry, which would otherwise
  // share a line with the next slot's first coefficients).
  const CacheLineSlots partial(num_blocks, static_cast<size_t>(width) + 1);
  const auto block_gradient = [&](int64_t b) {
    double* g = partial.slot(b);
    std::fill(g, g + width + 1, 0.0);
    const int begin = static_cast<int>(b) * kGradientBlockRows;
    const int end = std::min(n, begin + kGradientBlockRows);
    // The coefficients are fixed for the epoch, so every row's margin is
    // taken first (independent sums the core can overlap), then the errors
    // are scattered in row order.
    double margins[kGradientBlockRows];
    const double* coefficients = coefficients_.data();
    for (int r = begin; r < end; ++r) {
      const int* x = train.ActiveRow(r);
      double z = intercept_;
      for (int c = 0; c < num_columns; ++c) z += coefficients[x[c]];
      margins[r - begin] = z;
    }
    for (int r = begin; r < end; ++r) {
      const int* x = train.ActiveRow(r);
      const double error =
          (Sigmoid(margins[r - begin]) - data.Label(r)) * weights[r];
      for (int c = 0; c < num_columns; ++c) g[x[c]] += error;
      g[width] += error;
    }
  };

  std::vector<double> gradient(width);
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    if (pool != nullptr) {
      Status status = pool->ParallelFor(num_blocks, block_gradient);
      REMEDY_CHECK(status.ok()) << status.message();
    } else {
      for (int b = 0; b < num_blocks; ++b) block_gradient(b);
    }
    // Combine partials in ascending block order — the fixed reduction
    // order that keeps the update independent of worker scheduling.
    std::fill(gradient.begin(), gradient.end(), 0.0);
    double intercept_gradient = 0.0;
    for (int b = 0; b < num_blocks; ++b) {
      const double* g = partial.slot(b);
      for (int j = 0; j < width; ++j) gradient[j] += g[j];
      intercept_gradient += g[width];
    }
    double step = params_.learning_rate / total_weight;
    for (int j = 0; j < width; ++j) {
      coefficients_[j] -=
          step * gradient[j] + params_.learning_rate * params_.l2 *
                                   coefficients_[j];
    }
    intercept_ -= step * intercept_gradient;
  }
  PipelineMetrics::Get().ml_epochs->Increment(params_.epochs);
  PipelineMetrics::Get().ml_fits->Increment();
  PipelineMetrics::Get().ml_fit_ns->Observe(timer.Nanos());
}

double LogisticRegression::PredictProba(const Dataset& data, int row) const {
  REMEDY_CHECK(encoder_ != nullptr)
      << "LogisticRegression::Fit has not been called";
  double z = intercept_;
  for (int c = 0; c < data.NumColumns(); ++c) {
    z += coefficients_[encoder_->Offset(c) + data.Value(row, c)];
  }
  return Sigmoid(z);
}

std::vector<double> LogisticRegression::PredictProbaAll(
    const Dataset& data) const {
  return PredictProbaAllEncoded(EncodedMatrix(data));
}

std::vector<double> LogisticRegression::PredictProbaAllEncoded(
    const EncodedMatrix& data) const {
  REMEDY_CHECK(encoder_ != nullptr)
      << "LogisticRegression::Fit has not been called";
  const int num_columns = data.NumColumns();
  std::vector<double> probabilities(data.NumRows());
  for (int r = 0; r < data.NumRows(); ++r) {
    const int* x = data.ActiveRow(r);
    double z = intercept_;
    for (int c = 0; c < num_columns; ++c) z += coefficients_[x[c]];
    probabilities[r] = Sigmoid(z);
  }
  return probabilities;
}

}  // namespace remedy
