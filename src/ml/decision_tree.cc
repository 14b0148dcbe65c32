#include "ml/decision_tree.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace remedy {
namespace {

double Gini(double positive_weight, double total_weight) {
  if (total_weight <= 0.0) return 0.0;
  double p = positive_weight / total_weight;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeParams params)
    : params_(params) {
  REMEDY_CHECK(params_.max_depth >= 0);
  REMEDY_CHECK(params_.min_samples_split >= 0.0);
}

void DecisionTree::Fit(const Dataset& train) {
  REMEDY_CHECK(train.NumRows() > 0);
  std::vector<int> rows(train.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> weights(train.NumRows());
  for (int r = 0; r < train.NumRows(); ++r) weights[r] = train.Weight(r);
  FitRows(train, std::move(rows), weights);
}

void DecisionTree::FitRows(const Dataset& train, std::vector<int> rows,
                           const std::vector<double>& weights) {
  REMEDY_CHECK(!rows.empty());
  nodes_.clear();
  children_.clear();
  cardinalities_.resize(train.NumColumns());
  for (int c = 0; c < train.NumColumns(); ++c) {
    cardinalities_[c] = train.schema().attribute(c).Cardinality();
  }
  depth_ = 0;
  std::vector<int> scratch(rows.size());
  std::vector<char> used_attributes(train.NumColumns(), 0);
  Rng rng(params_.seed);
  BuildNode(train, weights, rows, scratch, 0, static_cast<int>(rows.size()),
            0, used_attributes, rng);
}

int DecisionTree::BuildNode(const Dataset& data,
                            const std::vector<double>& weights,
                            std::vector<int>& rows, std::vector<int>& scratch,
                            int begin, int end, int depth,
                            std::vector<char>& used_attributes, Rng& rng) {
  depth_ = std::max(depth_, depth);

  double total_weight = 0.0;
  double positive_weight = 0.0;
  for (int i = begin; i < end; ++i) {
    const int r = rows[i];
    total_weight += weights[r];
    positive_weight += data.Label(r) ? weights[r] : 0.0;
  }

  int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].positive_fraction =
      total_weight > 0.0 ? positive_weight / total_weight : 0.5;

  const bool pure = positive_weight <= 0.0 || positive_weight >= total_weight;
  if (depth >= params_.max_depth || pure ||
      total_weight < params_.min_samples_split) {
    return node_index;
  }

  // Candidate attributes: unused on this path, optionally subsampled.
  std::vector<int> candidates;
  for (int c = 0; c < data.NumColumns(); ++c) {
    if (!used_attributes[c]) candidates.push_back(c);
  }
  if (params_.max_features > 0 &&
      static_cast<int>(candidates.size()) > params_.max_features) {
    std::vector<int> picked = rng.SampleWithoutReplacement(
        static_cast<int>(candidates.size()), params_.max_features);
    std::sort(picked.begin(), picked.end());
    std::vector<int> subset;
    subset.reserve(picked.size());
    for (int index : picked) subset.push_back(candidates[index]);
    candidates = std::move(subset);
  }
  if (candidates.empty()) return node_index;

  const double parent_impurity = Gini(positive_weight, total_weight);
  int best_attribute = -1;
  double best_gain = params_.min_gain;
  std::vector<double> value_weight, value_positive;
  for (int attribute : candidates) {
    int cardinality = data.schema().attribute(attribute).Cardinality();
    if (cardinality < 2) continue;
    value_weight.assign(cardinality, 0.0);
    value_positive.assign(cardinality, 0.0);
    for (int i = begin; i < end; ++i) {
      const int r = rows[i];
      int value = data.Value(r, attribute);
      double w = weights[r];
      value_weight[value] += w;
      if (data.Label(r)) value_positive[value] += w;
    }
    double weighted_child_impurity = 0.0;
    int non_empty = 0;
    for (int v = 0; v < cardinality; ++v) {
      if (value_weight[v] <= 0.0) continue;
      ++non_empty;
      weighted_child_impurity +=
          (value_weight[v] / total_weight) * Gini(value_positive[v],
                                                  value_weight[v]);
    }
    if (non_empty < 2) continue;  // split would not partition anything
    double gain = parent_impurity - weighted_child_impurity;
    if (gain > best_gain) {
      best_gain = gain;
      best_attribute = attribute;
    }
  }
  if (best_attribute < 0) return node_index;

  // Partition the range by the chosen attribute's value: a stable counting
  // sort, so each child sees its rows in the parent's order.
  const int cardinality =
      data.schema().attribute(best_attribute).Cardinality();
  std::vector<int> bounds(cardinality + 1, 0);
  for (int i = begin; i < end; ++i) {
    ++bounds[data.Value(rows[i], best_attribute) + 1];
  }
  for (int v = 0; v < cardinality; ++v) bounds[v + 1] += bounds[v];
  std::vector<int> cursor(bounds.begin(), bounds.end() - 1);
  for (int i = begin; i < end; ++i) {
    scratch[begin + cursor[data.Value(rows[i], best_attribute)]++] = rows[i];
  }
  std::copy(scratch.begin() + begin, scratch.begin() + end,
            rows.begin() + begin);

  const int first_child = static_cast<int>(children_.size());
  children_.resize(children_.size() + cardinality, -1);
  nodes_[node_index].attribute = best_attribute;
  nodes_[node_index].first_child = first_child;
  used_attributes[best_attribute] = 1;
  for (int v = 0; v < cardinality; ++v) {
    if (bounds[v] == bounds[v + 1]) continue;
    children_[first_child + v] =
        BuildNode(data, weights, rows, scratch, begin + bounds[v],
                  begin + bounds[v + 1], depth + 1, used_attributes, rng);
  }
  used_attributes[best_attribute] = 0;
  return node_index;
}

double DecisionTree::Walk(const Dataset& data, int row) const {
  const Node* node = &nodes_[0];
  while (node->attribute >= 0) {
    const int value = data.Value(row, node->attribute);
    const int child = (value >= 0 && value < cardinalities_[node->attribute])
                          ? children_[node->first_child + value]
                          : -1;
    if (child < 0) break;  // unseen value: back off to this node's estimate
    node = &nodes_[child];
  }
  return node->positive_fraction;
}

double DecisionTree::PredictProba(const Dataset& data, int row) const {
  REMEDY_CHECK(!nodes_.empty()) << "DecisionTree::Fit has not been called";
  return Walk(data, row);
}

}  // namespace remedy
