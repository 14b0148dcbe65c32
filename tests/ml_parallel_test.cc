// Determinism contract of the parallel training/evaluation engine: every
// parallel path (random-forest bagging, blocked logistic-regression
// gradients, batch-accumulated neural network, bootstrap replicates, grid
// search) must produce byte-identical output for any thread count, and the
// encoded fast paths must match their Dataset counterparts bitwise. The
// comparisons are therefore exact (EXPECT_EQ), not EXPECT_DOUBLE_EQ's
// 4-ulp tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/encoding.h"
#include "fairness/bootstrap.h"
#include "fairness/fairness_index.h"
#include "ml/grid_search.h"
#include "ml/logistic_regression.h"
#include "ml/neural_network.h"
#include "ml/random_forest.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::SmallSchema;

#ifdef REMEDY_TSAN_BUILD
constexpr int kRows = 900;
constexpr int kEpochs = 5;
#else
constexpr int kRows = 5000;
constexpr int kEpochs = 30;
#endif

// Noisy but learnable data over the shared small schema.
Dataset LearnableData(int rows, uint64_t seed) {
  Rng rng(seed);
  Dataset data(SmallSchema());
  for (int i = 0; i < rows; ++i) {
    int a = rng.UniformInt(3), b = rng.UniformInt(2), f = rng.UniformInt(2);
    double p = f == 1 ? 0.8 : 0.15;
    if (a == 0) p += 0.1;
    data.AddRow({a, b, f}, rng.Bernoulli(p) ? 1 : 0);
  }
  return data;
}

// A predictor biased against a = 1 rows, so the subgroup analysis and the
// fairness index have real signal.
std::vector<int> BiasedPredictions(const Dataset& data) {
  std::vector<int> predictions(data.NumRows());
  for (int r = 0; r < data.NumRows(); ++r) {
    predictions[r] = data.Value(r, 0) == 1 ? 1 : data.Label(r);
  }
  return predictions;
}

const int kThreadCounts[] = {2, 4, 0};  // vs the serial reference (1)

TEST(MlParallelTest, EncodedMatrixMatchesEncoder) {
  Dataset data = LearnableData(200, 3);
  EncodedMatrix encoded(data);
  EXPECT_EQ(encoded.NumRows(), data.NumRows());
  EXPECT_EQ(encoded.NumColumns(), data.NumColumns());
  EXPECT_EQ(encoded.Width(), encoded.encoder().Width());
  for (int r = 0; r < data.NumRows(); r += 17) {
    const int* active = encoded.ActiveRow(r);
    for (int c = 0; c < data.NumColumns(); ++c) {
      EXPECT_EQ(active[c],
                encoded.encoder().Offset(c) + data.Value(r, c));
    }
  }
}

TEST(MlParallelTest, RandomForestThreadCountEquivalence) {
  Dataset train = LearnableData(kRows, 11);
  Dataset probe = LearnableData(300, 12);
  RandomForestParams params;
  params.threads = 1;
  RandomForest serial(params);
  serial.Fit(train);
  std::vector<double> reference = serial.PredictProbaAll(probe);
  for (int threads : kThreadCounts) {
    params.threads = threads;
    RandomForest parallel(params);
    parallel.Fit(train);
    std::vector<double> probabilities = parallel.PredictProbaAll(probe);
    ASSERT_EQ(probabilities.size(), reference.size());
    for (size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(probabilities[r], reference[r])
          << "threads=" << threads << " row=" << r;
    }
  }
}

TEST(MlParallelTest, LogisticRegressionThreadCountEquivalence) {
  // kRows spans several 2048-row gradient blocks in the non-TSan build.
  Dataset train = LearnableData(kRows, 21);
  LogisticRegressionParams params;
  params.epochs = kEpochs;
  params.threads = 1;
  LogisticRegression serial(params);
  serial.Fit(train);
  for (int threads : kThreadCounts) {
    params.threads = threads;
    LogisticRegression parallel(params);
    parallel.Fit(train);
    EXPECT_EQ(parallel.intercept(), serial.intercept())
        << "threads=" << threads;
    ASSERT_EQ(parallel.coefficients().size(), serial.coefficients().size());
    for (size_t j = 0; j < serial.coefficients().size(); ++j) {
      EXPECT_EQ(parallel.coefficients()[j], serial.coefficients()[j])
          << "threads=" << threads << " coefficient=" << j;
    }
  }
}

TEST(MlParallelTest, LogisticRegressionEncodedFitMatchesDatasetFit) {
  Dataset train = LearnableData(1200, 22);
  LogisticRegressionParams params;
  params.epochs = kEpochs;
  LogisticRegression from_dataset(params);
  from_dataset.Fit(train);
  LogisticRegression from_encoded(params);
  EncodedMatrix encoded(train);
  from_encoded.FitEncoded(encoded);
  EXPECT_EQ(from_encoded.intercept(), from_dataset.intercept());
  for (size_t j = 0; j < from_dataset.coefficients().size(); ++j) {
    EXPECT_EQ(from_encoded.coefficients()[j],
                     from_dataset.coefficients()[j]);
  }
  // The encoded predict path must match the per-row path bitwise too.
  std::vector<double> encoded_probabilities =
      from_encoded.PredictProbaAllEncoded(encoded);
  for (int r = 0; r < train.NumRows(); r += 31) {
    EXPECT_EQ(encoded_probabilities[r],
                     from_dataset.PredictProba(train, r));
  }
}

TEST(MlParallelTest, NeuralNetworkThreadCountEquivalence) {
  Dataset train = LearnableData(std::min(kRows, 2000), 31);
  Dataset probe = LearnableData(200, 32);
  NeuralNetworkParams params;
  params.epochs = 5;
  params.batch_size = 256;  // four 64-row sub-blocks per batch
  params.threads = 1;
  NeuralNetwork serial(params);
  serial.Fit(train);
  std::vector<double> reference = serial.PredictProbaAll(probe);
  for (int threads : kThreadCounts) {
    params.threads = threads;
    NeuralNetwork parallel(params);
    parallel.Fit(train);
    std::vector<double> probabilities = parallel.PredictProbaAll(probe);
    for (size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(probabilities[r], reference[r])
          << "threads=" << threads << " row=" << r;
    }
  }
}

TEST(MlParallelTest, NeuralNetworkEncodedFitMatchesDatasetFit) {
  Dataset train = LearnableData(800, 33);
  NeuralNetworkParams params;
  params.epochs = 3;
  NeuralNetwork from_dataset(params);
  from_dataset.Fit(train);
  NeuralNetwork from_encoded(params);
  EncodedMatrix encoded(train);
  from_encoded.FitEncoded(encoded);
  std::vector<double> encoded_probabilities =
      from_encoded.PredictProbaAllEncoded(encoded);
  for (int r = 0; r < train.NumRows(); r += 23) {
    EXPECT_EQ(encoded_probabilities[r],
                     from_dataset.PredictProba(train, r));
  }
}

TEST(MlParallelTest, GridSearchThreadCountEquivalence) {
  Dataset train = LearnableData(1000, 41);
  std::vector<std::function<ClassifierPtr()>> candidates;
  for (double l2 : {1e-4, 1e-3, 1e-2, 1e-1}) {
    candidates.push_back([l2] {
      LogisticRegressionParams params;
      params.l2 = l2;
      params.epochs = 40;
      return std::make_unique<LogisticRegression>(params);
    });
  }
  GridSearchResult serial = GridSearch(train, candidates, 0.2, 17, 1);
  for (int threads : kThreadCounts) {
    GridSearchResult parallel = GridSearch(train, candidates, 0.2, 17,
                                           threads);
    EXPECT_EQ(parallel.best_index, serial.best_index)
        << "threads=" << threads;
    ASSERT_EQ(parallel.accuracies.size(), serial.accuracies.size());
    for (size_t i = 0; i < serial.accuracies.size(); ++i) {
      EXPECT_EQ(parallel.accuracies[i], serial.accuracies[i])
          << "threads=" << threads << " candidate=" << i;
    }
  }
}

TEST(MlParallelTest, BootstrapThreadCountEquivalence) {
  Dataset test = LearnableData(600, 51);
  std::vector<int> predictions = BiasedPredictions(test);
  BootstrapOptions options;
  options.replicates = 40;
  options.threads = 1;
  BootstrapInterval serial =
      BootstrapFairnessIndex(test, predictions, Statistic::kFpr, options);
  for (int threads : kThreadCounts) {
    options.threads = threads;
    BootstrapInterval parallel =
        BootstrapFairnessIndex(test, predictions, Statistic::kFpr, options);
    EXPECT_EQ(parallel.point, serial.point) << "threads=" << threads;
    EXPECT_EQ(parallel.lower, serial.lower) << "threads=" << threads;
    EXPECT_EQ(parallel.upper, serial.upper) << "threads=" << threads;
  }
}

TEST(MlParallelTest, FairnessIndexViewMatchesMaterializedResample) {
  Dataset test = LearnableData(400, 52);
  std::vector<int> predictions = BiasedPredictions(test);
  Rng rng(99);
  std::vector<int> rows(test.NumRows());
  for (int& row : rows) row = rng.UniformInt(test.NumRows());

  double view = ComputeFairnessIndexView(test, rows, predictions,
                                         Statistic::kFpr);
  Dataset materialized = test.Select(rows);
  std::vector<int> gathered(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) gathered[i] = predictions[rows[i]];
  double reference = ComputeFairnessIndex(materialized, gathered,
                                          Statistic::kFpr);
  EXPECT_EQ(view, reference);
}

TEST(MlParallelTest, PercentileFromSortedInterpolates) {
  const std::vector<double> sorted = {0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(PercentileFromSorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileFromSorted(sorted, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileFromSorted(sorted, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(PercentileFromSorted(sorted, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(PercentileFromSorted(sorted, 0.9), 2.7);
  EXPECT_DOUBLE_EQ(PercentileFromSorted({4.5}, 0.3), 4.5);
}

// Regression for the truncation bug: the interval bounds must be the
// linearly interpolated order statistics of the replicate indices, not the
// floor-rank entries. Reconstructs the replicate sample from the same
// per-replicate streams the implementation uses and pins the bounds.
TEST(MlParallelTest, BootstrapIntervalUsesInterpolatedPercentiles) {
  Dataset test = LearnableData(300, 53);
  std::vector<int> predictions = BiasedPredictions(test);
  BootstrapOptions options;
  options.replicates = 40;  // tail rank 0.025 * 39 = 0.975: interpolation
  options.seed = 61;        // lands strictly between order statistics
  options.threads = 1;

  std::vector<double> replicate_indices(options.replicates);
  for (int b = 0; b < options.replicates; ++b) {
    Rng rng(StreamSeed(options.seed, static_cast<uint64_t>(b)));
    std::vector<int> rows(test.NumRows());
    for (int& row : rows) row = rng.UniformInt(test.NumRows());
    replicate_indices[b] = ComputeFairnessIndexView(
        test, rows, predictions, Statistic::kFpr, options.index);
  }
  std::sort(replicate_indices.begin(), replicate_indices.end());
  const double tail = (1.0 - options.confidence) / 2.0;
  const double expected_lower =
      PercentileFromSorted(replicate_indices, tail);
  const double expected_upper =
      PercentileFromSorted(replicate_indices, 1.0 - tail);
  // The truncating rank would return replicate_indices[0] / [38]; the
  // interpolated bounds sit strictly inside unless neighbors collide.
  EXPECT_GE(expected_lower, replicate_indices[0]);
  EXPECT_LE(expected_upper, replicate_indices[options.replicates - 1]);

  BootstrapInterval interval =
      BootstrapFairnessIndex(test, predictions, Statistic::kFpr, options);
  EXPECT_EQ(interval.lower, expected_lower);
  EXPECT_EQ(interval.upper, expected_upper);
}

}  // namespace
}  // namespace remedy
