// Differential checks of the evaluation kernels against the straightforward
// implementations they replaced, which live on here as oracles only:
//
//   - subgroup analysis: one hash-map scan of the rows per lattice node,
//     against the single leaf tally rolled up to every node;
//   - random forest: each tree fitted on a copied bootstrap resample
//     (Select, then unit weights) by a tree with a children vector per node
//     and per-value row partitions, against the draw-count fit on the
//     original rows;
//   - random forest: the bootstrap draw by std::upper_bound, against the
//     guided draw, on unit, fractional, zero-edged, heavily skewed and
//     one-row training sets;
//   - neural network: unit-major hidden weights (h * width + j), against
//     the input-major layout and its lane-chunked unit loops;
//   - logistic regression: the unpadded serial block reduction, against
//     the cache-line-padded slots at several thread counts;
//   - every learner and both decision-rule wrappers: per-row PredictProba
//     and Predict, against the block entries PredictProbaAll,
//     PredictProbaAllEncoded, PredictAll and PredictAllEncoded.
//
// Every comparison is exact: the replacements promise the same bits, not
// the same value within a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/threshold_postprocess.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "data/encoding.h"
#include "fairness/divergence.h"
#include "fairness/fairness_index.h"
#include "fairness/significance.h"
#include "ml/cost_sensitive.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/model_factory.h"
#include "ml/neural_network.h"
#include "ml/random_forest.h"

namespace remedy {
namespace {

#ifdef REMEDY_TSAN_BUILD
constexpr int kRows = 700;
#else
constexpr int kRows = 3000;
#endif

double Sigmoid(double z) {
  if (z >= 0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// ---------------------------------------------------------------------------
// Data.

constexpr int kSmallDomains[] = {3, 2, 4, 2, 5, 3, 2};
constexpr int kLargeDomains[] = {40, 30, 50, 20, 3, 2, 2};

// Seven categorical attributes with the given cardinalities; the first
// `num_protected` are protected.
DataSchema WideSchema(int num_protected, const int* cardinalities) {
  std::vector<AttributeSchema> attributes;
  for (int a = 0; a < 7; ++a) {
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[a]; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    attributes.emplace_back("x" + std::to_string(a), values);
  }
  std::vector<int> protected_indices(num_protected);
  std::iota(protected_indices.begin(), protected_indices.end(), 0);
  return DataSchema(std::move(attributes), protected_indices);
}

// Skewed values (so some cells are rare or empty) and a label that depends
// on a few attributes, so trees and networks have something to fit.
Dataset WideData(int num_protected, int rows, uint64_t seed,
                 const int* cardinalities = kSmallDomains) {
  const DataSchema schema = WideSchema(num_protected, cardinalities);
  Rng rng(seed);
  Dataset data(schema);
  std::vector<int> values(schema.NumAttributes());
  for (int i = 0; i < rows; ++i) {
    for (int a = 0; a < schema.NumAttributes(); ++a) {
      const int cardinality = schema.attribute(a).Cardinality();
      values[a] = rng.Bernoulli(0.4) ? 0 : rng.UniformInt(cardinality);
    }
    double p = 0.2 + 0.15 * values[0] + (values[2] == 3 ? 0.3 : 0.0) -
               (values[4] == 1 ? 0.15 : 0.0);
    data.AddRow(values, rng.Bernoulli(std::clamp(p, 0.05, 0.95)) ? 1 : 0);
  }
  return data;
}

// Non-unit weights that are not short binary fractions (so their sums
// round, and the order of summation shows), and zero on every seventh row.
void SkewWeights(Dataset& data) {
  for (int r = 0; r < data.NumRows(); ++r) {
    data.SetWeight(r, r % 7 == 0 ? 0.0 : 0.1 + 1.0 / (1 + r % 11));
  }
}

// A noisy predictor, biased on the first protected attribute.
std::vector<int> NoisyPredictions(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> predictions(data.NumRows());
  for (int r = 0; r < data.NumRows(); ++r) {
    const bool flip = rng.Bernoulli(data.Value(r, 0) == 1 ? 0.35 : 0.1);
    predictions[r] = flip ? 1 - data.Label(r) : data.Label(r);
  }
  return predictions;
}

// ---------------------------------------------------------------------------
// Oracle: subgroup analysis by one hash-map scan per lattice node.

SubgroupAnalysis OracleAnalyze(const Dataset& test,
                               const std::vector<int>* view,
                               const std::vector<int>& predictions,
                               Statistic statistic, double min_support,
                               int64_t min_size) {
  struct Tally {
    int64_t size = 0, relevant = 0, errors = 0;
  };
  SubgroupAnalysis analysis;
  analysis.statistic = statistic;
  const int n = view ? static_cast<int>(view->size()) : test.NumRows();
  std::vector<char> relevant(n), error(n);
  int64_t total_relevant = 0, total_errors = 0;
  for (int i = 0; i < n; ++i) {
    const int r = view ? (*view)[i] : i;
    bool in_class = false, event = false;
    switch (statistic) {
      case Statistic::kFpr:
        in_class = test.Label(r) == 0;
        event = in_class && predictions[r] == 1;
        break;
      case Statistic::kFnr:
        in_class = test.Label(r) == 1;
        event = in_class && predictions[r] == 0;
        break;
      case Statistic::kStatisticalParity:
        in_class = true;
        event = predictions[r] == 1;
        break;
      case Statistic::kErrorRate:
        in_class = true;
        event = predictions[r] != test.Label(r);
        break;
    }
    relevant[i] = in_class;
    error[i] = event;
    total_relevant += in_class;
    total_errors += event;
  }
  analysis.overall = total_relevant > 0
                         ? static_cast<double>(total_errors) / total_relevant
                         : 0.0;

  Hierarchy hierarchy(test);
  const RegionCounter& counter = hierarchy.counter();
  for (uint32_t mask : hierarchy.BottomUpMasks()) {
    std::unordered_map<uint64_t, Tally> tallies;
    for (int i = 0; i < n; ++i) {
      const int r = view ? (*view)[i] : i;
      Tally& tally = tallies[counter.RowKey(test, r, mask)];
      ++tally.size;
      tally.relevant += relevant[i];
      tally.errors += error[i];
    }
    std::vector<uint64_t> keys;
    for (const auto& [key, tally] : tallies) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (uint64_t key : keys) {
      const Tally& tally = tallies.at(key);
      if (tally.size < min_size) continue;
      const double support = static_cast<double>(tally.size) / n;
      if (support < min_support) continue;
      if (tally.relevant == 0) continue;
      SubgroupReport report;
      report.pattern = counter.PatternFor(key, mask);
      report.size = tally.size;
      report.support = support;
      report.relevant = tally.relevant;
      report.errors = tally.errors;
      report.statistic = static_cast<double>(tally.errors) / tally.relevant;
      report.divergence = std::fabs(report.statistic - analysis.overall);
      report.p_value =
          WelchTTestBernoulli(tally.errors, tally.relevant,
                              total_errors - tally.errors,
                              total_relevant - tally.relevant)
              .p_value;
      analysis.subgroups.push_back(std::move(report));
    }
  }
  return analysis;
}

void ExpectSameAnalysis(const SubgroupAnalysis& actual,
                        const SubgroupAnalysis& expected,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(actual.statistic, expected.statistic);
  EXPECT_EQ(actual.overall, expected.overall);
  ASSERT_EQ(actual.subgroups.size(), expected.subgroups.size());
  for (size_t i = 0; i < expected.subgroups.size(); ++i) {
    const SubgroupReport& a = actual.subgroups[i];
    const SubgroupReport& e = expected.subgroups[i];
    ASSERT_TRUE(a.pattern == e.pattern) << "subgroup " << i;
    ASSERT_EQ(a.size, e.size) << "subgroup " << i;
    ASSERT_EQ(a.support, e.support) << "subgroup " << i;
    ASSERT_EQ(a.relevant, e.relevant) << "subgroup " << i;
    ASSERT_EQ(a.errors, e.errors) << "subgroup " << i;
    ASSERT_EQ(a.statistic, e.statistic) << "subgroup " << i;
    ASSERT_EQ(a.divergence, e.divergence) << "subgroup " << i;
    ASSERT_EQ(a.p_value, e.p_value) << "subgroup " << i;
  }
  EXPECT_EQ(FairnessIndex(actual), FairnessIndex(expected));
}

const Statistic kStatistics[] = {Statistic::kFpr, Statistic::kFnr,
                                 Statistic::kStatisticalParity,
                                 Statistic::kErrorRate};

struct Filter {
  double min_support;
  int64_t min_size;
};
const Filter kFilters[] = {{0.0, 1}, {0.0, 25}, {0.02, 1}, {0.05, 10}};

TEST(EvalOracleTest, AnalyzeSubgroupsMatchesPerNodeScan) {
  for (int num_protected = 1; num_protected <= 6; ++num_protected) {
    const Dataset test = WideData(num_protected, kRows, 100 + num_protected);
    const std::vector<int> predictions = NoisyPredictions(test, 7);
    for (Statistic statistic : kStatistics) {
      for (const Filter& filter : kFilters) {
        ExpectSameAnalysis(
            AnalyzeSubgroups(test, predictions, statistic,
                             filter.min_support, filter.min_size),
            OracleAnalyze(test, nullptr, predictions, statistic,
                          filter.min_support, filter.min_size),
            "protected=" + std::to_string(num_protected) + " statistic=" +
                StatisticName(statistic) + " min_support=" +
                std::to_string(filter.min_support) +
                " min_size=" + std::to_string(filter.min_size));
      }
    }
  }
}

// Key spaces far past the row count, so the grouping sorts keys instead
// of bucketing them (at the leaves and at the finer nodes).
TEST(EvalOracleTest, AnalyzeSubgroupsMatchesPerNodeScanOnLargeDomains) {
  for (int num_protected : {3, 4}) {
    const Dataset test =
        WideData(num_protected, kRows, 400 + num_protected, kLargeDomains);
    const std::vector<int> predictions = NoisyPredictions(test, 9);
    Rng rng(500 + num_protected);
    std::vector<int> resample(test.NumRows());
    for (int& row : resample) row = rng.UniformInt(test.NumRows());
    for (Statistic statistic : kStatistics) {
      for (const Filter& filter : kFilters) {
        const std::string context =
            "protected=" + std::to_string(num_protected) + " statistic=" +
            StatisticName(statistic) + " min_support=" +
            std::to_string(filter.min_support) +
            " min_size=" + std::to_string(filter.min_size);
        ExpectSameAnalysis(
            AnalyzeSubgroups(test, predictions, statistic,
                             filter.min_support, filter.min_size),
            OracleAnalyze(test, nullptr, predictions, statistic,
                          filter.min_support, filter.min_size),
            context);
        ExpectSameAnalysis(
            AnalyzeSubgroupsView(test, resample, predictions, statistic,
                                 filter.min_support, filter.min_size),
            OracleAnalyze(test, &resample, predictions, statistic,
                          filter.min_support, filter.min_size),
            context + " view");
      }
    }
  }
}

TEST(EvalOracleTest, AnalyzeSubgroupsViewMatchesPerNodeScan) {
  for (int num_protected = 1; num_protected <= 6; ++num_protected) {
    const Dataset test = WideData(num_protected, kRows, 200 + num_protected);
    const std::vector<int> predictions = NoisyPredictions(test, 8);
    // A bootstrap resample (repeats and omissions) and a short view.
    Rng rng(300 + num_protected);
    std::vector<int> resample(test.NumRows());
    for (int& row : resample) row = rng.UniformInt(test.NumRows());
    const std::vector<int> short_view(resample.begin(),
                                      resample.begin() + kRows / 10);
    for (const std::vector<int>* view :
         {static_cast<const std::vector<int>*>(&resample), &short_view}) {
      for (Statistic statistic : kStatistics) {
        for (const Filter& filter : kFilters) {
          ExpectSameAnalysis(
              AnalyzeSubgroupsView(test, *view, predictions, statistic,
                                   filter.min_support, filter.min_size),
              OracleAnalyze(test, view, predictions, statistic,
                            filter.min_support, filter.min_size),
              "protected=" + std::to_string(num_protected) +
                  " view=" + std::to_string(view->size()) + " statistic=" +
                  StatisticName(statistic) + " min_support=" +
                  std::to_string(filter.min_support) +
                  " min_size=" + std::to_string(filter.min_size));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle: multiway CART with a children vector per node, fitted on
// per-value row partitions.

class OracleTree {
 public:
  explicit OracleTree(DecisionTreeParams params) : params_(params) {}

  void Fit(const Dataset& train) {
    nodes_.clear();
    std::vector<int> rows(train.NumRows());
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<char> used(train.NumColumns(), 0);
    Rng rng(params_.seed);
    Build(train, rows, 0, used, rng);
  }

  double PredictProba(const Dataset& data, int row) const {
    int node = 0;
    while (nodes_[node].attribute >= 0) {
      const int value = data.Value(row, nodes_[node].attribute);
      const int child =
          value >= 0 && value < static_cast<int>(nodes_[node].children.size())
              ? nodes_[node].children[value]
              : -1;
      if (child < 0) break;
      node = child;
    }
    return nodes_[node].positive_fraction;
  }

 private:
  struct Node {
    int attribute = -1;
    double positive_fraction = 0.5;
    std::vector<int> children;
  };

  static double Gini(double positive, double total) {
    if (total <= 0.0) return 0.0;
    const double p = positive / total;
    return 2.0 * p * (1.0 - p);
  }

  int Build(const Dataset& data, const std::vector<int>& rows, int depth,
            std::vector<char>& used, Rng& rng) {
    double total = 0.0, positive = 0.0;
    for (int r : rows) {
      total += data.Weight(r);
      positive += data.Label(r) ? data.Weight(r) : 0.0;
    }
    const int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[index].positive_fraction = total > 0.0 ? positive / total : 0.5;
    if (depth >= params_.max_depth || positive <= 0.0 || positive >= total ||
        total < params_.min_samples_split) {
      return index;
    }
    std::vector<int> candidates;
    for (int c = 0; c < data.NumColumns(); ++c) {
      if (!used[c]) candidates.push_back(c);
    }
    if (params_.max_features > 0 &&
        static_cast<int>(candidates.size()) > params_.max_features) {
      std::vector<int> picked = rng.SampleWithoutReplacement(
          static_cast<int>(candidates.size()), params_.max_features);
      std::sort(picked.begin(), picked.end());
      std::vector<int> subset;
      for (int i : picked) subset.push_back(candidates[i]);
      candidates = std::move(subset);
    }
    if (candidates.empty()) return index;
    const double parent = Gini(positive, total);
    int best = -1;
    double best_gain = params_.min_gain;
    for (int attribute : candidates) {
      const int cardinality = data.schema().attribute(attribute).Cardinality();
      if (cardinality < 2) continue;
      std::vector<double> weight(cardinality, 0.0), pos(cardinality, 0.0);
      for (int r : rows) {
        weight[data.Value(r, attribute)] += data.Weight(r);
        if (data.Label(r)) pos[data.Value(r, attribute)] += data.Weight(r);
      }
      double child = 0.0;
      int non_empty = 0;
      for (int v = 0; v < cardinality; ++v) {
        if (weight[v] <= 0.0) continue;
        ++non_empty;
        child += (weight[v] / total) * Gini(pos[v], weight[v]);
      }
      if (non_empty < 2) continue;
      if (parent - child > best_gain) {
        best_gain = parent - child;
        best = attribute;
      }
    }
    if (best < 0) return index;
    const int cardinality = data.schema().attribute(best).Cardinality();
    std::vector<std::vector<int>> partitions(cardinality);
    for (int r : rows) partitions[data.Value(r, best)].push_back(r);
    nodes_[index].attribute = best;
    nodes_[index].children.assign(cardinality, -1);
    used[best] = 1;
    for (int v = 0; v < cardinality; ++v) {
      if (partitions[v].empty()) continue;
      const int child = Build(data, partitions[v], depth + 1, used, rng);
      nodes_[index].children[v] = child;
    }
    used[best] = 0;
    return index;
  }

  DecisionTreeParams params_;
  std::vector<Node> nodes_;
};

// The forest as a copied-bootstrap ensemble of oracle trees.
std::vector<double> OracleForestProba(const Dataset& train,
                                      const Dataset& probe,
                                      const RandomForestParams& params) {
  DecisionTreeParams tree_params = params.tree;
  if (tree_params.max_features == 0) {
    tree_params.max_features = std::max(
        1, static_cast<int>(std::lround(std::sqrt(train.NumColumns()))));
  }
  std::vector<double> cumulative(train.NumRows());
  double total = 0.0;
  for (int r = 0; r < train.NumRows(); ++r) {
    total += train.Weight(r);
    cumulative[r] = total;
  }
  std::vector<OracleTree> trees;
  for (int t = 0; t < params.num_trees; ++t) {
    Rng rng(StreamSeed(params.seed, static_cast<uint64_t>(t)));
    std::vector<int> sample(train.NumRows());
    for (int i = 0; i < train.NumRows(); ++i) {
      const double draw = rng.Uniform() * total;
      auto it = std::upper_bound(cumulative.begin(), cumulative.end(), draw);
      sample[i] = static_cast<int>(
          std::min<size_t>(it - cumulative.begin(), cumulative.size() - 1));
    }
    Dataset bootstrap = train.Select(sample);
    for (int r = 0; r < bootstrap.NumRows(); ++r) bootstrap.SetWeight(r, 1.0);
    DecisionTreeParams local = tree_params;
    local.seed = rng.engine()();
    trees.emplace_back(local);
    trees.back().Fit(bootstrap);
  }
  std::vector<double> probabilities(probe.NumRows());
  for (int r = 0; r < probe.NumRows(); ++r) {
    double sum = 0.0;
    for (const OracleTree& tree : trees) sum += tree.PredictProba(probe, r);
    probabilities[r] = sum / trees.size();
  }
  return probabilities;
}

TEST(EvalOracleTest, DecisionTreeMatchesPartitionTree) {
  Dataset train = WideData(3, kRows, 41);
  SkewWeights(train);  // fractional weights: summation order matters here
  const Dataset probe = WideData(3, 500, 42);
  for (int max_features : {0, 3}) {
    DecisionTreeParams params;
    params.max_features = max_features;
    DecisionTree tree(params);
    tree.Fit(train);
    OracleTree oracle(params);
    oracle.Fit(train);
    for (int r = 0; r < probe.NumRows(); ++r) {
      ASSERT_EQ(tree.PredictProba(probe, r), oracle.PredictProba(probe, r))
          << "max_features=" << max_features << " row=" << r;
    }
  }
}

// Zero weight on the first and last rows and on a run in the middle, whose
// cumulative weights tie: a draw may never land on any of them.
void ZeroEdgeWeights(Dataset& data) {
  const int n = data.NumRows();
  for (int r = 0; r < n; ++r) {
    const bool zero = r == 0 || r == n - 1 || (r >= n / 2 && r < n / 2 + 9);
    data.SetWeight(r, zero ? 0.0 : 1.0 + (r % 3));
  }
}

// Heavy first and last tenths, a light middle with rare spikes: the
// equal-weight guess of the guided draw overshoots in the first half and
// falls far short in the second, so both of its fall-backs to the binary
// search run, along with its short forward scans.
void HeavySkewWeights(Dataset& data) {
  const int n = data.NumRows();
  for (int r = 0; r < n; ++r) {
    const bool heavy = r < n / 10 || r >= n - n / 10;
    double weight = heavy ? 40.0 + r % 5 : 0.003 * (1 + r % 4);
    if (r % 211 == 7) weight = 900.0;
    data.SetWeight(r, weight);
  }
}

TEST(EvalOracleTest, RandomForestMatchesCopiedBootstrap) {
  Dataset unit = WideData(2, kRows, 51);
  Dataset weighted = WideData(2, kRows, 52);
  SkewWeights(weighted);
  Dataset zero_edges = WideData(2, kRows, 54);
  ZeroEdgeWeights(zero_edges);
  Dataset skewed = WideData(2, kRows, 55);
  HeavySkewWeights(skewed);
  const Dataset one_row = WideData(2, 1, 56);
  const Dataset probe = WideData(2, 600, 53);
  const std::pair<const char*, const Dataset*> cases[] = {
      {"unit", &unit},
      {"weighted", &weighted},
      {"zero_edges", &zero_edges},
      {"skewed", &skewed},
      {"one_row", &one_row}};
  for (const auto& [name, train] : cases) {
    RandomForestParams params;
    params.num_trees = 8;
    params.seed = 91;
    const std::vector<double> expected =
        OracleForestProba(*train, probe, params);
    for (int threads : {1, 2, 4}) {
      params.threads = threads;
      RandomForest forest(params);
      forest.Fit(*train);
      const std::vector<double> block = forest.PredictProbaAll(probe);
      ASSERT_EQ(block.size(), expected.size());
      for (int r = 0; r < probe.NumRows(); ++r) {
        ASSERT_EQ(forest.PredictProba(probe, r), expected[r])
            << name << " threads=" << threads << " row=" << r;
        ASSERT_EQ(block[r], expected[r])
            << name << " threads=" << threads << " row=" << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle: the neural network with unit-major hidden weights.

struct OracleNetwork {
  int units = 0, width = 0;
  std::vector<double> hidden_weights;  // [h * width + j]
  std::vector<double> hidden_bias, output_weights;
  double output_bias = 0.0;

  double Forward(const int* x, int columns, std::vector<double>* hidden) const {
    hidden->assign(units, 0.0);
    for (int h = 0; h < units; ++h) {
      const double* row =
          hidden_weights.data() + static_cast<size_t>(h) * width;
      double z = hidden_bias[h];
      for (int c = 0; c < columns; ++c) z += row[x[c]];
      (*hidden)[h] = z > 0.0 ? z : 0.01 * z;
    }
    double z = output_bias;
    for (int h = 0; h < units; ++h) z += output_weights[h] * (*hidden)[h];
    return Sigmoid(z);
  }
};

OracleNetwork OracleFitNetwork(const EncodedMatrix& train,
                               const NeuralNetworkParams& params) {
  const Dataset& data = train.data();
  const int n = data.NumRows(), columns = data.NumColumns();
  OracleNetwork net;
  net.units = params.hidden_units;
  net.width = train.Width();
  const int units = net.units;
  Rng rng(params.seed);
  auto glorot = [&](int fan_in) {
    return rng.Normal(0.0, std::sqrt(1.0 / std::max(1, fan_in)));
  };
  net.hidden_weights.resize(static_cast<size_t>(units) * net.width);
  for (double& w : net.hidden_weights) w = glorot(columns);
  net.hidden_bias.assign(units, 0.0);
  net.output_weights.resize(units);
  for (double& w : net.output_weights) w = glorot(units);
  const double mean_weight = data.TotalWeight() / n;

  const size_t hw_size = net.hidden_weights.size();
  const size_t stride = hw_size + 2 * static_cast<size_t>(units) + 1;
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> hidden, partial;
  for (int epoch = 0; epoch < params.epochs; ++epoch) {
    rng.Shuffle(order);
    for (int start = 0; start < n; start += params.batch_size) {
      const int end = std::min(n, start + params.batch_size);
      const int blocks = (end - start + 63) / 64;
      partial.assign(static_cast<size_t>(blocks) * stride, 0.0);
      for (int b = 0; b < blocks; ++b) {
        double* ghw = partial.data() + static_cast<size_t>(b) * stride;
        double* ghb = ghw + hw_size;
        double* gow = ghb + units;
        double* gob = gow + units;
        for (int i = start + 64 * b; i < std::min(end, start + 64 * (b + 1));
             ++i) {
          const int r = order[i];
          const int* x = train.ActiveRow(r);
          const double p = net.Forward(x, columns, &hidden);
          const double error =
              (p - data.Label(r)) * (data.Weight(r) / mean_weight);
          for (int h = 0; h < units; ++h) {
            const double gate = hidden[h] > 0.0 ? 1.0 : 0.01;
            const double delta = error * net.output_weights[h] * gate;
            const double* row =
                net.hidden_weights.data() + static_cast<size_t>(h) * net.width;
            double* grow = ghw + static_cast<size_t>(h) * net.width;
            for (int c = 0; c < columns; ++c) {
              grow[x[c]] += delta + params.l2 * row[x[c]];
            }
            ghb[h] += delta;
          }
          for (int h = 0; h < units; ++h) {
            gow[h] += error * hidden[h] + params.l2 * net.output_weights[h];
          }
          *gob += error;
        }
      }
      for (int b = 0; b < blocks; ++b) {
        const double* ghw = partial.data() + static_cast<size_t>(b) * stride;
        const double* ghb = ghw + hw_size;
        const double* gow = ghb + units;
        const double* gob = gow + units;
        const double lr = params.learning_rate;
        for (size_t j = 0; j < hw_size; ++j) {
          net.hidden_weights[j] -= lr * ghw[j];
        }
        for (int h = 0; h < units; ++h) net.hidden_bias[h] -= lr * ghb[h];
        for (int h = 0; h < units; ++h) net.output_weights[h] -= lr * gow[h];
        net.output_bias -= lr * *gob;
      }
    }
  }
  return net;
}

TEST(EvalOracleTest, NeuralNetworkMatchesUnitMajorNetwork) {
  Dataset train = WideData(2, kRows, 61);
  SkewWeights(train);
  const Dataset probe = WideData(2, 400, 62);
  const EncodedMatrix encoded_train(train);
  const EncodedMatrix encoded_probe(probe);
  for (int batch_size : {64, 256}) {
    NeuralNetworkParams params;
    params.epochs = 3;
    params.batch_size = batch_size;
    const OracleNetwork oracle = OracleFitNetwork(encoded_train, params);
    std::vector<double> hidden;
    for (int threads : {1, 2}) {
      params.threads = threads;
      NeuralNetwork network(params);
      network.FitEncoded(encoded_train);
      const std::vector<double> probabilities =
          network.PredictProbaAllEncoded(encoded_probe);
      for (int r = 0; r < probe.NumRows(); ++r) {
        const double expected = oracle.Forward(
            encoded_probe.ActiveRow(r), probe.NumColumns(), &hidden);
        ASSERT_EQ(probabilities[r], expected)
            << "batch_size=" << batch_size << " threads=" << threads
            << " row=" << r;
        ASSERT_EQ(network.PredictProba(probe, r), expected)
            << "batch_size=" << batch_size << " threads=" << threads
            << " row=" << r;
      }
    }
  }
}

TEST(EvalOracleTest, NeuralNetworkMatchesUnitMajorNetworkOnOddWidths) {
  // Hidden widths that leave a scalar tail after the whole lane chunks.
  Dataset train = WideData(2, kRows / 2, 63);
  SkewWeights(train);
  const Dataset probe = WideData(2, 300, 64);
  const EncodedMatrix encoded_train(train);
  const EncodedMatrix encoded_probe(probe);
  std::vector<double> hidden;
  for (int units : {1, 7, 18}) {
    NeuralNetworkParams params;
    params.epochs = 2;
    params.hidden_units = units;
    const OracleNetwork oracle = OracleFitNetwork(encoded_train, params);
    NeuralNetwork network(params);
    network.FitEncoded(encoded_train);
    const std::vector<double> probabilities = network.PredictProbaAll(probe);
    for (int r = 0; r < probe.NumRows(); ++r) {
      ASSERT_EQ(probabilities[r],
                oracle.Forward(encoded_probe.ActiveRow(r), probe.NumColumns(),
                               &hidden))
          << "units=" << units << " row=" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle: logistic regression with one unpadded gradient array per block,
// reduced serially.

TEST(EvalOracleTest, LogisticRegressionMatchesUnpaddedReduction) {
  // Several 2048-row gradient blocks, with fractional and zero weights.
  Dataset train = WideData(2, 5000, 71);
  SkewWeights(train);
  const EncodedMatrix encoded(train);
  LogisticRegressionParams params;
  params.epochs = 25;

  const int width = encoded.Width(), n = train.NumRows();
  const int columns = train.NumColumns();
  std::vector<double> coefficients(width, 0.0);
  double intercept = 0.0, total_weight = 0.0;
  for (int r = 0; r < n; ++r) total_weight += train.Weight(r);
  const int blocks = (n + 2047) / 2048;
  const size_t stride = static_cast<size_t>(width) + 1;
  std::vector<double> partial(blocks * stride);
  for (int epoch = 0; epoch < params.epochs; ++epoch) {
    std::fill(partial.begin(), partial.end(), 0.0);
    for (int b = 0; b < blocks; ++b) {
      double* g = partial.data() + b * stride;
      for (int r = 2048 * b; r < std::min(n, 2048 * (b + 1)); ++r) {
        const int* x = encoded.ActiveRow(r);
        double z = intercept;
        for (int c = 0; c < columns; ++c) z += coefficients[x[c]];
        const double error = (Sigmoid(z) - train.Label(r)) * train.Weight(r);
        for (int c = 0; c < columns; ++c) g[x[c]] += error;
        g[width] += error;
      }
    }
    std::vector<double> gradient(width, 0.0);
    double intercept_gradient = 0.0;
    for (int b = 0; b < blocks; ++b) {
      for (int j = 0; j < width; ++j) gradient[j] += partial[b * stride + j];
      intercept_gradient += partial[b * stride + width];
    }
    const double step = params.learning_rate / total_weight;
    for (int j = 0; j < width; ++j) {
      coefficients[j] -= step * gradient[j] +
                         params.learning_rate * params.l2 * coefficients[j];
    }
    intercept -= step * intercept_gradient;
  }

  for (int threads : {1, 2, 3}) {
    params.threads = threads;
    LogisticRegression model(params);
    model.FitEncoded(encoded);
    EXPECT_EQ(model.intercept(), intercept) << "threads=" << threads;
    ASSERT_EQ(model.coefficients().size(), coefficients.size());
    for (int j = 0; j < width; ++j) {
      ASSERT_EQ(model.coefficients()[j], coefficients[j])
          << "threads=" << threads << " coefficient=" << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle: per-row prediction, against every learner's block entry.

TEST(EvalOracleTest, BlockPredictionMatchesPerRow) {
  Dataset train = WideData(2, kRows, 81);
  SkewWeights(train);
  const Dataset probe = WideData(2, 500, 82);
  const EncodedMatrix encoded_probe(probe);

  std::vector<std::pair<std::string, ClassifierPtr>> models;
  for (ModelType type :
       {ModelType::kDecisionTree, ModelType::kRandomForest,
        ModelType::kLogisticRegression, ModelType::kNeuralNetwork,
        ModelType::kNaiveBayes, ModelType::kGradientBoosting}) {
    models.emplace_back(ModelName(type), MakeClassifier(type, 5, 2));
  }
  models.emplace_back(
      "cost_sensitive(RF)",
      std::make_unique<CostSensitiveClassifier>(
          MakeClassifier(ModelType::kRandomForest, 5), CostMatrix{1.0, 3.0}));
  ThresholdPostprocessParams post;
  post.min_group_size = 10;
  models.emplace_back(
      "threshold_postprocess(LR)",
      std::make_unique<ThresholdPostprocessor>(
          MakeClassifier(ModelType::kLogisticRegression), post));

  for (const auto& [name, model] : models) {
    model->Fit(train);
    const std::vector<double> proba = model->PredictProbaAll(probe);
    const std::vector<double> proba_encoded =
        model->PredictProbaAllEncoded(encoded_probe);
    const std::vector<int> predictions = model->PredictAll(probe);
    const std::vector<int> predictions_encoded =
        model->PredictAllEncoded(encoded_probe);
    ASSERT_EQ(proba.size(), static_cast<size_t>(probe.NumRows())) << name;
    ASSERT_EQ(proba_encoded.size(), proba.size()) << name;
    ASSERT_EQ(predictions.size(), proba.size()) << name;
    ASSERT_EQ(predictions_encoded.size(), proba.size()) << name;
    for (int r = 0; r < probe.NumRows(); ++r) {
      const double expected = model->PredictProba(probe, r);
      EXPECT_EQ(proba[r], expected) << name << " row=" << r;
      EXPECT_EQ(proba_encoded[r], expected) << name << " row=" << r;
      EXPECT_EQ(predictions[r], model->Predict(probe, r))
          << name << " row=" << r;
      EXPECT_EQ(predictions_encoded[r], predictions[r])
          << name << " row=" << r;
    }
  }
}

}  // namespace
}  // namespace remedy
