#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/cost_sensitive.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/grid_search.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/model_factory.h"
#include "ml/naive_bayes.h"
#include "ml/neural_network.h"
#include "ml/random_forest.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::SmallSchema;

// Noisy but learnable task with additive signal on f and a, so both linear
// and tree learners can reach well above chance.
Dataset LearnableData(int rows, uint64_t seed) {
  Rng rng(seed);
  Dataset data(SmallSchema());
  for (int i = 0; i < rows; ++i) {
    int a = rng.UniformInt(3), b = rng.UniformInt(2), f = rng.UniformInt(2);
    double p = f == 1 ? 0.82 : 0.12;
    if (a == 2) p += 0.08;
    data.AddRow({a, b, f}, rng.Bernoulli(p) ? 1 : 0);
  }
  return data;
}

class ModelTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(ModelTest, LearnsAboveChance) {
  Rng rng(1);
  Dataset all = LearnableData(2000, 5);
  auto [train, test] = all.TrainTestSplit(0.7, rng);
  ClassifierPtr model = MakeClassifier(GetParam());
  model->Fit(train);
  double accuracy = Accuracy(test, model->PredictAll(test));
  EXPECT_GT(accuracy, 0.72) << ModelName(GetParam());
}

TEST_P(ModelTest, ProbabilitiesAreValid) {
  Dataset data = LearnableData(500, 6);
  ClassifierPtr model = MakeClassifier(GetParam());
  model->Fit(data);
  for (int r = 0; r < 50; ++r) {
    double p = model->PredictProba(data, r);
    EXPECT_GE(p, 0.0) << ModelName(GetParam());
    EXPECT_LE(p, 1.0) << ModelName(GetParam());
    EXPECT_EQ(model->Predict(data, r), p >= 0.5 ? 1 : 0);
  }
}

TEST_P(ModelTest, DeterministicGivenSeed) {
  Dataset data = LearnableData(500, 7);
  ClassifierPtr first = MakeClassifier(GetParam(), 42);
  ClassifierPtr second = MakeClassifier(GetParam(), 42);
  first->Fit(data);
  second->Fit(data);
  for (int r = 0; r < data.NumRows(); r += 7) {
    EXPECT_DOUBLE_EQ(first->PredictProba(data, r),
                     second->PredictProba(data, r))
        << ModelName(GetParam());
  }
}

TEST_P(ModelTest, RefitReplacesModel) {
  Dataset positive_world(SmallSchema());
  Dataset negative_world(SmallSchema());
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    std::vector<int> row = {rng.UniformInt(3), rng.UniformInt(2),
                            rng.UniformInt(2)};
    positive_world.AddRow(row, 1);
    negative_world.AddRow(row, 0);
  }
  // One positive/negative row keeps degenerate learners from dividing by 0.
  positive_world.AddRow({0, 0, 0}, 0);
  negative_world.AddRow({0, 0, 0}, 1);
  ClassifierPtr model = MakeClassifier(GetParam());
  model->Fit(positive_world);
  double p_after_positive = model->PredictProba(positive_world, 0);
  model->Fit(negative_world);
  double p_after_negative = model->PredictProba(negative_world, 0);
  EXPECT_GT(p_after_positive, 0.6) << ModelName(GetParam());
  EXPECT_LT(p_after_negative, 0.4) << ModelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelTest,
    ::testing::Values(ModelType::kDecisionTree, ModelType::kRandomForest,
                      ModelType::kLogisticRegression,
                      ModelType::kNeuralNetwork, ModelType::kNaiveBayes,
                      ModelType::kGradientBoosting),
    [](const ::testing::TestParamInfo<ModelType>& info) {
      return ModelName(info.param);
    });

TEST(GradientBoostingTest, MoreRoundsFitTighter) {
  Dataset data = LearnableData(800, 21);
  GradientBoostingParams weak;
  weak.rounds = 2;
  GradientBoosting small(weak);
  small.Fit(data);
  GradientBoostingParams strong;
  strong.rounds = 80;
  GradientBoosting large(strong);
  large.Fit(data);
  EXPECT_GE(Accuracy(data, large.PredictAll(data)),
            Accuracy(data, small.PredictAll(data)));
  EXPECT_EQ(large.NumTrees(), 80);
}

TEST(GradientBoostingTest, RespectsInstanceWeights) {
  Dataset data(SmallSchema());
  for (int i = 0; i < 30; ++i) data.AddRow({0, 0, 1}, 1, 10.0);
  for (int i = 0; i < 70; ++i) data.AddRow({0, 0, 1}, 0, 1.0);
  GradientBoosting model;
  model.Fit(data);
  EXPECT_GT(model.PredictProba(data, 0), 0.5);
}

TEST(GradientBoostingTest, CapturesInteractions) {
  // XOR-style target that linear models cannot represent.
  Rng rng(22);
  Dataset data(SmallSchema());
  for (int i = 0; i < 1500; ++i) {
    int b = rng.UniformInt(2), f = rng.UniformInt(2);
    int label = rng.Bernoulli((b ^ f) ? 0.9 : 0.1) ? 1 : 0;
    data.AddRow({rng.UniformInt(3), b, f}, label);
  }
  GradientBoosting boosted;
  boosted.Fit(data);
  LogisticRegression linear;
  linear.Fit(data);
  EXPECT_GT(Accuracy(data, boosted.PredictAll(data)), 0.8);
  EXPECT_LT(Accuracy(data, linear.PredictAll(data)), 0.65);
}

TEST(DecisionTreeTest, FitsPureFunctionExactly) {
  Dataset data(SmallSchema());
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int i = 0; i < 20; ++i) data.AddRow({a, b, 0}, a == 1 ? 1 : 0);
    }
  }
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_DOUBLE_EQ(Accuracy(data, tree.PredictAll(data)), 1.0);
  EXPECT_GE(tree.NumNodes(), 4);  // root + one leaf per a-value
}

TEST(DecisionTreeTest, MaxDepthZeroIsMajorityVote) {
  Dataset data = LearnableData(300, 9);
  DecisionTreeParams params;
  params.max_depth = 0;
  DecisionTree stump(params);
  stump.Fit(data);
  double p = stump.PredictProba(data, 0);
  for (int r = 1; r < data.NumRows(); ++r) {
    EXPECT_DOUBLE_EQ(stump.PredictProba(data, r), p);
  }
  EXPECT_EQ(stump.NumNodes(), 1);
}

TEST(DecisionTreeTest, RespectsInstanceWeights) {
  // 30 positives vs 70 negatives at the same point: unweighted majority is
  // negative; weighting positives 10x flips it.
  Dataset data(SmallSchema());
  for (int i = 0; i < 30; ++i) data.AddRow({0, 0, 0}, 1, 10.0);
  for (int i = 0; i < 70; ++i) data.AddRow({0, 0, 0}, 0, 1.0);
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.Predict(data, 0), 1);
}

TEST(LogisticRegressionTest, RespectsInstanceWeights) {
  Dataset data(SmallSchema());
  for (int i = 0; i < 30; ++i) data.AddRow({0, 0, 1}, 1, 10.0);
  for (int i = 0; i < 70; ++i) data.AddRow({0, 0, 1}, 0, 1.0);
  LogisticRegression model;
  model.Fit(data);
  EXPECT_GT(model.PredictProba(data, 0), 0.5);
}

TEST(NaiveBayesTest, RespectsInstanceWeights) {
  Dataset data(SmallSchema());
  for (int i = 0; i < 30; ++i) data.AddRow({0, 0, 1}, 1, 10.0);
  for (int i = 0; i < 70; ++i) data.AddRow({0, 0, 1}, 0, 1.0);
  NaiveBayes model;
  model.Fit(data);
  EXPECT_GT(model.PredictProba(data, 0), 0.5);
}

TEST(RandomForestTest, EnsembleBeatsWorstTree) {
  Rng rng(2);
  Dataset all = LearnableData(1500, 10);
  auto [train, test] = all.TrainTestSplit(0.7, rng);
  RandomForestParams params;
  params.num_trees = 15;
  RandomForest forest(params);
  forest.Fit(train);
  EXPECT_EQ(forest.NumTrees(), 15);
  EXPECT_GT(Accuracy(test, forest.PredictAll(test)), 0.7);
}

TEST(LogisticRegressionTest, LearnsLinearSignal) {
  Rng rng(3);
  Dataset data(SmallSchema());
  for (int i = 0; i < 1000; ++i) {
    int f = rng.UniformInt(2);
    data.AddRow({rng.UniformInt(3), rng.UniformInt(2), f},
                rng.Bernoulli(f ? 0.9 : 0.1) ? 1 : 0);
  }
  LogisticRegression model;
  model.Fit(data);
  // Coefficient on f=1 must clearly exceed f=0's.
  OneHotEncoder encoder(data.schema());
  double w_f1 = model.coefficients()[encoder.Offset(2) + 1];
  double w_f0 = model.coefficients()[encoder.Offset(2) + 0];
  EXPECT_GT(w_f1 - w_f0, 1.0);
}

TEST(NaiveBayesTest, SmoothingHandlesUnseenValues) {
  Dataset train(SmallSchema());
  for (int i = 0; i < 50; ++i) train.AddRow({0, 0, 1}, 1);
  for (int i = 0; i < 50; ++i) train.AddRow({1, 0, 0}, 0);
  NaiveBayes model;
  model.Fit(train);
  Dataset probe(SmallSchema());
  probe.AddRow({2, 1, 1}, 0);  // a=2, b=1 never seen in training
  double p = model.PredictProba(probe, 0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(NaiveBayesTest, CountFitIsBitIdenticalToRowFit) {
  // The streaming remedy ranks borderline rows with a naive Bayes fitted on
  // counts alone; it must score every row exactly as the row fit does.
  Rng rng(11);
  Dataset data(SmallSchema());
  int64_t class_counts[2] = {0, 0};
  std::vector<std::vector<std::vector<int64_t>>> value_counts(2);
  for (auto& columns : value_counts) {
    for (int c = 0; c < data.NumColumns(); ++c) {
      columns.emplace_back(data.schema().attribute(c).Cardinality(), 0);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const std::vector<int> row = {rng.UniformInt(3), rng.UniformInt(2),
                                  rng.UniformInt(2)};
    const int label = rng.Bernoulli(row[0] == 2 ? 0.8 : 0.3) ? 1 : 0;
    data.AddRow(row, label);
    ++class_counts[label];
    for (int c = 0; c < data.NumColumns(); ++c) {
      ++value_counts[label][c][row[c]];
    }
  }
  NaiveBayes by_rows;
  by_rows.Fit(data);
  NaiveBayes by_counts;
  by_counts.FitCounts(data.schema(), class_counts, value_counts);
  for (int r = 0; r < data.NumRows(); ++r) {
    ASSERT_EQ(by_counts.PredictProbaCodes(data.Row(r)),
              by_rows.PredictProba(data, r))
        << "row " << r;
  }
}

TEST(CostSensitiveTest, ThresholdFromCosts) {
  CostMatrix costs;
  costs.false_positive_cost = 3.0;
  costs.false_negative_cost = 1.0;
  CostSensitiveClassifier model(
      MakeClassifier(ModelType::kNaiveBayes), costs);
  // Bayes-optimal threshold c_fp / (c_fp + c_fn) = 0.75.
  EXPECT_DOUBLE_EQ(model.Threshold(), 0.75);
}

TEST(CostSensitiveTest, HighFpCostSuppressesPositives) {
  Dataset data = LearnableData(1000, 13);
  CostMatrix fp_averse;
  fp_averse.false_positive_cost = 9.0;
  CostSensitiveClassifier cautious(
      MakeClassifier(ModelType::kLogisticRegression), fp_averse);
  cautious.Fit(data);
  ClassifierPtr neutral = MakeClassifier(ModelType::kLogisticRegression);
  neutral->Fit(data);
  int cautious_positives = 0, neutral_positives = 0;
  for (int r = 0; r < data.NumRows(); ++r) {
    cautious_positives += cautious.Predict(data, r);
    neutral_positives += neutral->Predict(data, r);
  }
  EXPECT_LT(cautious_positives, neutral_positives);
  // FPR drops under the FP-averse policy.
  EXPECT_LE(FalsePositiveRate(data, cautious.PredictAll(data)),
            FalsePositiveRate(data, neutral->PredictAll(data)));
}

TEST(CostSensitiveTest, ProbabilitiesPassThrough) {
  Dataset data = LearnableData(300, 14);
  ClassifierPtr base = MakeClassifier(ModelType::kNaiveBayes);
  base->Fit(data);
  CostSensitiveClassifier wrapped(MakeClassifier(ModelType::kNaiveBayes),
                                  CostMatrix{2.0, 1.0});
  wrapped.Fit(data);
  for (int r = 0; r < 20; ++r) {
    EXPECT_DOUBLE_EQ(wrapped.PredictProba(data, r),
                     base->PredictProba(data, r));
  }
}

TEST(CostSensitiveTest, EqualCostsMatchBaseDecisions) {
  Dataset data = LearnableData(300, 15);
  CostSensitiveClassifier wrapped(MakeClassifier(ModelType::kNaiveBayes),
                                  CostMatrix{1.0, 1.0});
  wrapped.Fit(data);
  ClassifierPtr base = MakeClassifier(ModelType::kNaiveBayes);
  base->Fit(data);
  for (int r = 0; r < data.NumRows(); ++r) {
    EXPECT_EQ(wrapped.Predict(data, r), base->Predict(data, r));
  }
}

TEST(GridSearchTest, PicksBestCandidate) {
  Dataset data = LearnableData(800, 11);
  // A stump vs a real tree: the real tree must win.
  std::vector<std::function<ClassifierPtr()>> candidates = {
      [] {
        DecisionTreeParams params;
        params.max_depth = 0;
        return std::make_unique<DecisionTree>(params);
      },
      [] {
        DecisionTreeParams params;
        params.max_depth = 10;
        return std::make_unique<DecisionTree>(params);
      },
  };
  GridSearchResult result = GridSearch(data, candidates);
  EXPECT_EQ(result.best_index, 1);
  EXPECT_EQ(result.accuracies.size(), 2u);
  EXPECT_GT(result.best_accuracy, result.accuracies[0]);
}

TEST(GridSearchTest, TunedClassifierWorksForEveryModel) {
  Dataset data = LearnableData(600, 12);
  for (ModelType type :
       {ModelType::kDecisionTree, ModelType::kRandomForest,
        ModelType::kLogisticRegression, ModelType::kNeuralNetwork,
        ModelType::kNaiveBayes, ModelType::kGradientBoosting}) {
    ClassifierPtr model = TunedClassifier(type, data);
    EXPECT_GT(Accuracy(data, model->PredictAll(data)), 0.6)
        << ModelName(type);
  }
}

}  // namespace
}  // namespace remedy
