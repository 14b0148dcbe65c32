#ifndef REMEDY_ML_DECISION_TREE_H_
#define REMEDY_ML_DECISION_TREE_H_

#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace remedy {

struct DecisionTreeParams {
  int max_depth = 12;
  // Minimum weighted instance count for a node to be split further.
  double min_samples_split = 10.0;
  // Minimum Gini impurity decrease to accept a split.
  double min_gain = 1e-7;
  // Number of candidate attributes sampled per node; 0 means all (plain
  // CART). Random forests set this to ~sqrt(m).
  int max_features = 0;
  uint64_t seed = 7;
};

// CART-style decision tree with multiway categorical splits and weighted
// Gini impurity. The accuracy-optimizing, high-capacity behaviour of this
// learner is exactly what Hypothesis 1 is about: it fits the majority class
// of each biased region, producing the subgroup FPR/FNR divergence the paper
// demonstrates.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeParams params = {});

  void Fit(const Dataset& train) override;
  double PredictProba(const Dataset& data, int row) const override;

  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  int Depth() const { return depth_; }

 private:
  friend class RandomForest;

  // Nodes live in one array (16 bytes each); an internal node's children
  // are the cardinalities_[attribute] entries of children_ starting at
  // `first_child`, one per attribute value code (-1 when the value did not
  // occur at the node during training).
  struct Node {
    int attribute = -1;  // -1 marks a leaf
    int first_child = 0;
    double positive_fraction = 0.5;
  };

  // The positive fraction of the node row `row` reaches: its leaf, or the
  // deepest node whose split has no child for the row's value. Requires a
  // prior Fit; the forest calls it once per tree and row.
  double Walk(const Dataset& data, int row) const;

  // Fit on the rows `rows` of `train`, row r weighted by weights[r] (indexed
  // by train row) instead of train.Weight(r). The forest's bootstrap entry
  // point: each distinct drawn row once, weighted by its draw count.
  void FitRows(const Dataset& train, std::vector<int> rows,
               const std::vector<double>& weights);

  // Builds the subtree over rows[begin, end); returns its node index.
  // Splitting reorders the range stably by the split attribute's value
  // through `scratch` (same size as `rows`).
  int BuildNode(const Dataset& data, const std::vector<double>& weights,
                std::vector<int>& rows, std::vector<int>& scratch, int begin,
                int end, int depth, std::vector<char>& used_attributes,
                Rng& rng);

  DecisionTreeParams params_;
  std::vector<Node> nodes_;
  std::vector<int> children_;
  std::vector<int> cardinalities_;  // per attribute, at fit time
  int depth_ = 0;
};

}  // namespace remedy

#endif  // REMEDY_ML_DECISION_TREE_H_
