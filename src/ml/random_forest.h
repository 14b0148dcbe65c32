#ifndef REMEDY_ML_RANDOM_FOREST_H_
#define REMEDY_ML_RANDOM_FOREST_H_

#include <vector>

#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace remedy {

struct RandomForestParams {
  int num_trees = 20;
  DecisionTreeParams tree;  // tree.max_features 0 = auto (sqrt of #attrs)
  uint64_t seed = 11;
  // Workers for parallel bagging: 1 = serial, <= 0 = every usable CPU.
  // Bit-identical for every value — tree t draws its bootstrap and tree
  // seed from its own StreamSeed(seed, t) stream and lands in slot t, so
  // neither the samples nor the ensemble order depend on scheduling.
  int threads = 1;
};

// Bagged ensemble of multiway CART trees with per-node feature subsampling.
// Bootstrap sampling respects instance weights (rows are drawn with
// probability proportional to weight), so the reweighting baselines carry
// through to the forest.
class RandomForest : public Classifier {
 public:
  explicit RandomForest(RandomForestParams params = {});

  void Fit(const Dataset& train) override;
  double PredictProba(const Dataset& data, int row) const override;
  std::vector<double> PredictProbaAll(const Dataset& data) const override;

  int NumTrees() const { return static_cast<int>(trees_.size()); }

 private:
  RandomForestParams params_;
  std::vector<DecisionTree> trees_;
};

}  // namespace remedy

#endif  // REMEDY_ML_RANDOM_FOREST_H_
