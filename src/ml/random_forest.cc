#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

namespace remedy {
namespace {

// How far the guided draw scans forward before it falls back to the
// binary search: two cache lines of cumulative weights.
constexpr size_t kScanRows = 16;

// The row a bootstrap draw in [0, total) lands on: the first index whose
// cumulative weight exceeds `draw` (std::upper_bound), clamped to the last
// row. `draw * rows_per_weight` guesses the index as if every weight were
// equal. No entry before the guess exceeds `draw` unless the guess
// overshot, so a short forward scan from it finds the same index; an
// overshoot or a long scan falls back to the binary search. Zero-weight
// rows tie with their predecessor and are skipped exactly as upper_bound
// skips them.
size_t DrawRow(const std::vector<double>& cumulative, double draw,
               double rows_per_weight) {
  const size_t n = cumulative.size();
  // Any start in range gives the exact row, so a guess that a degenerate
  // total makes NaN or infinite starts at the last row instead of being
  // cast.
  const double guess = draw * rows_per_weight;
  size_t i = guess < static_cast<double>(n - 1) ? static_cast<size_t>(guess)
                                                : n - 1;
  if (i > 0 && cumulative[i - 1] > draw) {
    i = std::upper_bound(cumulative.begin(), cumulative.begin() + i, draw) -
        cumulative.begin();
  } else {
    const size_t stop = std::min(n, i + kScanRows);
    while (i < stop && cumulative[i] <= draw) ++i;
    if (i == stop && i < n) {
      i = std::upper_bound(cumulative.begin() + i, cumulative.end(), draw) -
          cumulative.begin();
    }
  }
  return std::min(i, n - 1);
}

}  // namespace

RandomForest::RandomForest(RandomForestParams params) : params_(params) {
  REMEDY_CHECK(params_.num_trees > 0);
}

void RandomForest::Fit(const Dataset& train) {
  REMEDY_TRACE_SPAN("ml/fit");
  WallTimer timer;
  REMEDY_CHECK(train.NumRows() > 0);
  trees_.clear();
  trees_.resize(params_.num_trees);

  DecisionTreeParams tree_params = params_.tree;
  if (tree_params.max_features == 0) {
    tree_params.max_features = std::max(
        1, static_cast<int>(std::lround(std::sqrt(train.NumColumns()))));
  }

  // Weighted bootstrap: draw rows with probability proportional to weight,
  // by a guided search of the cumulative weights (DrawRow). The prefix
  // sums are shared read-only across the tree builders.
  std::vector<double> cumulative(train.NumRows());
  double total = 0.0;
  for (int r = 0; r < train.NumRows(); ++r) {
    total += train.Weight(r);
    cumulative[r] = total;
  }
  REMEDY_CHECK(total > 0.0) << "all training weights are zero";
  const double rows_per_weight = train.NumRows() / total;

  // Tree t consumes only its own keyed stream and writes only slot t, so
  // the forest is identical no matter how trees are scheduled.
  //
  // The bootstrap is a draw count per row of `train`: the tree fits the
  // drawn rows once each, weighted by their count. That is the unit-weight
  // fit of the resampled copy without the copy — every weight sum is an
  // integer-valued double, so each Gini, gain and leaf fraction is the same.
  const auto build_tree = [&](int64_t t) {
    Rng rng(StreamSeed(params_.seed, static_cast<uint64_t>(t)));
    std::vector<double> draws(train.NumRows(), 0.0);
    for (int i = 0; i < train.NumRows(); ++i) {
      const double draw = rng.Uniform() * total;
      draws[DrawRow(cumulative, draw, rows_per_weight)] += 1.0;
    }
    std::vector<int> rows;
    for (int r = 0; r < train.NumRows(); ++r) {
      if (draws[r] > 0.0) rows.push_back(r);
    }
    DecisionTreeParams local_params = tree_params;
    local_params.seed = rng.engine()();
    DecisionTree tree(local_params);
    tree.FitRows(train, std::move(rows), draws);
    trees_[t] = std::move(tree);
  };

  const int threads =
      std::min(ResolveThreadCount(params_.threads), params_.num_trees);
  if (threads > 1) {
    ThreadPool pool(threads);
    Status status = pool.ParallelFor(params_.num_trees, build_tree);
    REMEDY_CHECK(status.ok()) << status.message();
  } else {
    for (int t = 0; t < params_.num_trees; ++t) build_tree(t);
  }
  PipelineMetrics::Get().ml_trees_trained->Increment(params_.num_trees);
  PipelineMetrics::Get().ml_fits->Increment();
  PipelineMetrics::Get().ml_fit_ns->Observe(timer.Nanos());
}

double RandomForest::PredictProba(const Dataset& data, int row) const {
  REMEDY_CHECK(!trees_.empty()) << "RandomForest::Fit has not been called";
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.Walk(data, row);
  return sum / trees_.size();
}

std::vector<double> RandomForest::PredictProbaAll(const Dataset& data) const {
  REMEDY_CHECK(!trees_.empty()) << "RandomForest::Fit has not been called";
  // Tree-major: one tree's nodes stay in cache while it walks every row.
  // Each row still sums its trees in forest order, so every entry is
  // PredictProba's value.
  std::vector<double> sums(data.NumRows(), 0.0);
  for (const DecisionTree& tree : trees_) {
    for (int r = 0; r < data.NumRows(); ++r) sums[r] += tree.Walk(data, r);
  }
  for (double& sum : sums) sum /= trees_.size();
  return sums;
}

}  // namespace remedy
