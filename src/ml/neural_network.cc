#include "ml/neural_network.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/rng.h"
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

// Rows per gradient sub-block inside one batch. Fixed (never derived from
// the thread count) so the sub-block partial gradients — and the order they
// are applied in — are the same no matter how many workers claim them.
constexpr int kBatchBlockRows = 64;

// How far ahead of the shuffled row loop the next inputs are prefetched.
constexpr int kPrefetchRows = 4;

// Leaky-ReLU slope: keeps a gradient path open so units cannot die
// permanently (plain ReLU collapsed to constant predictions on the
// weak-signal fairness datasets).
constexpr double kLeak = 0.01;

// The per-unit loops run in whole chunks of kLanes units with a constant
// trip count, then a scalar tail: GCC's -O2 cost model vectorizes only a
// constant trip count with no runtime alias check (SSE2 pairs on the base
// ISA). `ivdep` drops the alias check; it holds because each loop writes
// one array that none of its other arrays overlap. Each unit still
// evaluates its scalar expression, so no bit changes.
constexpr int kLanes = 4;

template <typename Op>
inline void ForLanes(int n, Op op) {
  int h = 0;
  for (; h + kLanes <= n; h += kLanes) {
#pragma GCC ivdep
    for (int k = 0; k < kLanes; ++k) op(h + k);
  }
  for (; h < n; ++h) op(h);
}

// What one training row contributes to the loss: its label and its weight
// relative to the mean, gathered once per fit so the shuffled row loop
// prefetches one 16-byte entry instead of reading two Dataset arrays.
struct RowTarget {
  double label;
  double scale;
};

}  // namespace

NeuralNetwork::NeuralNetwork(NeuralNetworkParams params) : params_(params) {
  REMEDY_CHECK(params_.hidden_units > 0);
  REMEDY_CHECK(params_.epochs > 0);
  REMEDY_CHECK(params_.batch_size > 0);
}

double NeuralNetwork::Forward(const int* active, int num_columns,
                              double* hidden) const {
  // Input-major weights: each active input adds one contiguous run of
  // hidden_units weights, so every unit still sums its bias and then its
  // active inputs in column order.
  const int h_units = params_.hidden_units;
  std::copy(hidden_bias_.begin(), hidden_bias_.end(), hidden);
  for (int c = 0; c < num_columns; ++c) {
    const double* column =
        hidden_weights_.data() + static_cast<size_t>(active[c]) * h_units;
    ForLanes(h_units, [=](int h) { hidden[h] += column[h]; });
  }
  // Leaky ReLU: max(x, kLeak * x) is x for x > 0 and kLeak * x otherwise,
  // signed zeros included.
  ForLanes(h_units,
           [=](int h) { hidden[h] = std::max(hidden[h], kLeak * hidden[h]); });
  double z = output_bias_;
  for (int h = 0; h < h_units; ++h) z += output_weights_[h] * hidden[h];
  return Sigmoid(z);
}

void NeuralNetwork::Fit(const Dataset& train) {
  FitEncoded(EncodedMatrix(train));
}

void NeuralNetwork::FitEncoded(const EncodedMatrix& train) {
  REMEDY_TRACE_SPAN("ml/fit");
  WallTimer timer;
  const Dataset& data = train.data();
  REMEDY_CHECK(data.NumRows() > 0);
  encoder_ = std::make_unique<OneHotEncoder>(train.encoder());
  input_width_ = train.Width();
  const int n = data.NumRows();
  const int num_columns = data.NumColumns();
  const int h_units = params_.hidden_units;

  Rng rng(params_.seed);
  auto glorot = [&](int fan_in) {
    return rng.Normal(0.0, std::sqrt(1.0 / std::max(1, fan_in)));
  };
  // Drawn unit by unit (h outer, j inner), as the unit-major layout was.
  hidden_weights_.resize(static_cast<size_t>(h_units) * input_width_);
  for (int h = 0; h < h_units; ++h) {
    for (int j = 0; j < input_width_; ++j) {
      hidden_weights_[static_cast<size_t>(j) * h_units + h] =
          glorot(num_columns);
    }
  }
  hidden_bias_.assign(h_units, 0.0);
  output_weights_.resize(h_units);
  for (double& w : output_weights_) w = glorot(h_units);
  output_bias_ = 0.0;

  double mean_weight = data.TotalWeight() / n;
  REMEDY_CHECK(mean_weight > 0.0) << "all training weights are zero";
  std::vector<RowTarget> targets(n);
  for (int r = 0; r < n; ++r) {
    targets[r] = {static_cast<double>(data.Label(r)),
                  data.Weight(r) / mean_weight};
  }

  const int blocks_per_batch =
      (std::min(params_.batch_size, n) + kBatchBlockRows - 1) /
      kBatchBlockRows;
  const int threads =
      std::min(ResolveThreadCount(params_.threads), blocks_per_batch);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // One gradient slot per sub-block: the hidden weight matrix (same layout
  // as hidden_weights_), then hidden biases, then output weights, then the
  // output bias.
  const size_t hw_size = static_cast<size_t>(h_units) * input_width_;
  const size_t slot_size = hw_size + 2 * static_cast<size_t>(h_units) + 1;
  const CacheLineSlots partial(blocks_per_batch, slot_size);

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  const double lr = params_.learning_rate;
  const double l2 = params_.l2;
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (int start = 0; start < n; start += params_.batch_size) {
      const int end = std::min(n, start + params_.batch_size);
      const int num_blocks =
          (end - start + kBatchBlockRows - 1) / kBatchBlockRows;
      // Phase 1: every sub-block accumulates its gradient against the
      // batch-start weights (read-only here), into its own slot.
      const auto block_gradient = [&](int64_t b) {
        double* g = partial.slot(b);
        std::fill(g, g + slot_size, 0.0);
        double* ghw = g;
        double* ghb = g + hw_size;
        double* gow = ghb + h_units;
        double* gob = gow + h_units;
        std::vector<double> hidden_buffer(h_units), delta_buffer(h_units);
        double* hidden = hidden_buffer.data();
        double* delta = delta_buffer.data();
        const double* weights = hidden_weights_.data();
        const double* output_weights = output_weights_.data();
        const int block_begin = start + static_cast<int>(b) * kBatchBlockRows;
        const int block_end = std::min(end, block_begin + kBatchBlockRows);
        for (int i = block_begin; i < block_end; ++i) {
          const int r = order[i];
          const int* x = train.ActiveRow(r);
          // Rows come in shuffled order, so each misses the cache unless
          // it is fetched ahead.
          if (i + kPrefetchRows < n) {
            const int ahead = order[i + kPrefetchRows];
            __builtin_prefetch(train.ActiveRow(ahead));
            __builtin_prefetch(train.ActiveRow(ahead) + num_columns - 1);
            __builtin_prefetch(&targets[ahead]);
          }
          const double p = Forward(x, num_columns, hidden);
          const double error = (p - targets[r].label) * targets[r].scale;
          ForLanes(h_units, [=](int h) {
            const double gate = hidden[h] > 0.0 ? 1.0 : kLeak;
            delta[h] = error * output_weights[h] * gate;
          });
          // One contiguous run per active input; the inputs of a row are
          // distinct, so each weight's gradient gets one term per row, in
          // row order.
          for (int c = 0; c < num_columns; ++c) {
            const size_t offset = static_cast<size_t>(x[c]) * h_units;
            const double* w = weights + offset;
            double* gw = ghw + offset;
            ForLanes(h_units, [=](int h) { gw[h] += delta[h] + l2 * w[h]; });
          }
          ForLanes(h_units, [=](int h) { ghb[h] += delta[h]; });
          ForLanes(h_units, [=](int h) {
            gow[h] += error * hidden[h] + l2 * output_weights[h];
          });
          *gob += error;
        }
      };
      if (pool != nullptr && num_blocks > 1) {
        Status status = pool->ParallelFor(num_blocks, block_gradient);
        REMEDY_CHECK(status.ok()) << status.message();
      } else {
        for (int b = 0; b < num_blocks; ++b) block_gradient(b);
      }
      // Phase 2: apply the sub-block gradients in ascending order — the
      // fixed sequence that keeps the weights independent of scheduling.
      for (int b = 0; b < num_blocks; ++b) {
        const double* g = partial.slot(b);
        const double* ghw = g;
        const double* ghb = g + hw_size;
        const double* gow = ghb + h_units;
        const double* gob = gow + h_units;
        double* hw = hidden_weights_.data();
        double* hb = hidden_bias_.data();
        double* ow = output_weights_.data();
        ForLanes(static_cast<int>(hw_size),
                 [=](int j) { hw[j] -= lr * ghw[j]; });
        ForLanes(h_units, [=](int h) { hb[h] -= lr * ghb[h]; });
        ForLanes(h_units, [=](int h) { ow[h] -= lr * gow[h]; });
        output_bias_ -= lr * *gob;
      }
    }
  }
  PipelineMetrics::Get().ml_epochs->Increment(params_.epochs);
  PipelineMetrics::Get().ml_fits->Increment();
  PipelineMetrics::Get().ml_fit_ns->Observe(timer.Nanos());
}

double NeuralNetwork::PredictProba(const Dataset& data, int row) const {
  REMEDY_CHECK(encoder_ != nullptr)
      << "NeuralNetwork::Fit has not been called";
  const int num_columns = data.NumColumns();
  std::vector<int> active(num_columns);
  for (int c = 0; c < num_columns; ++c) {
    active[c] = encoder_->Offset(c) + data.Value(row, c);
  }
  std::vector<double> hidden(params_.hidden_units);
  return Forward(active.data(), num_columns, hidden.data());
}

std::vector<double> NeuralNetwork::PredictProbaAll(const Dataset& data) const {
  return PredictProbaAllEncoded(EncodedMatrix(data));
}

std::vector<double> NeuralNetwork::PredictProbaAllEncoded(
    const EncodedMatrix& data) const {
  REMEDY_CHECK(encoder_ != nullptr)
      << "NeuralNetwork::Fit has not been called";
  const int num_columns = data.NumColumns();
  std::vector<double> probabilities(data.NumRows());
  std::vector<double> hidden(params_.hidden_units);
  for (int r = 0; r < data.NumRows(); ++r) {
    probabilities[r] = Forward(data.ActiveRow(r), num_columns, hidden.data());
  }
  return probabilities;
}

}  // namespace remedy
