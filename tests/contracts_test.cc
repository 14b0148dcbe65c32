// Contract (death) tests: the library aborts with a diagnostic on
// programmer errors instead of corrupting state. These pin the REMEDY_CHECK
// preconditions of the public API.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "core/hierarchy.h"
#include "core/region_counter.h"
#include "core/remedy.h"
#include "data/dataset.h"
#include "data/discretize.h"
#include "datagen/adult.h"
#include "datagen/generator.h"
#include "datagen/synthetic_spec.h"
#include "ml/cost_sensitive.h"
#include "ml/model_factory.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::SmallSchema;

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, DatasetRejectsBadLabel) {
  Dataset data(SmallSchema());
  EXPECT_DEATH(data.AddRow({0, 0, 0}, 2), "label must be binary");
}

TEST(ContractsDeathTest, DatasetRejectsWrongWidth) {
  Dataset data(SmallSchema());
  EXPECT_DEATH(data.AddRow({0, 0}, 1), "row width");
}

TEST(ContractsDeathTest, DatasetRejectsNegativeWeight) {
  Dataset data(SmallSchema());
  data.AddRow({0, 0, 0}, 1);
  EXPECT_DEATH(data.SetWeight(0, -1.0), "weight");
}

TEST(ContractsDeathTest, SelectRejectsOutOfRangeRow) {
  Dataset data(SmallSchema());
  data.AddRow({0, 0, 0}, 1);
  EXPECT_DEATH(data.Select({5}), "");
}

TEST(ContractsDeathTest, SchemaRejectsDuplicateProtected) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("a", {"x", "y"}),
  };
  EXPECT_DEATH(DataSchema(attributes, {0, 0}), "duplicate");
}

TEST(ContractsDeathTest, SchemaRejectsUnknownProtectedName) {
  DataSchema schema = SmallSchema();
  EXPECT_DEATH(schema.WithProtected({"no_such_attribute"}),
               "unknown attribute");
}

TEST(ContractsDeathTest, RngRejectsNonPositiveBound) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(0), "positive bound");
}

// A two-attribute spec whose second attribute is drawn from a conditional
// row of its parent; parent value 1 has zero weight, so its row is never
// drawn — the weight checks must still reject it.
SyntheticSpec UndrawnRowSpec(std::vector<double> undrawn_row) {
  SyntheticSpec spec;
  spec.name = "undrawn_row";
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("p", {"p0", "p1"}), {1.0, 0.0}));
  spec.attributes.push_back(ConditionalAttribute(
      AttributeSchema("c", {"c0", "c1"}), {1.0, 1.0}, /*parent=*/0,
      {{1.0, 1.0}, std::move(undrawn_row)}));
  spec.protected_indices = {0};
  spec.num_rows = 10;
  return spec;
}

TEST(ContractsDeathTest, GeneratorRejectsZeroWeights) {
  EXPECT_DEATH(GenerateSynthetic(UndrawnRowSpec({0.0, 0.0}), 1),
               "sum to zero");
}

TEST(ContractsDeathTest, GeneratorRejectsNegativeWeight) {
  EXPECT_DEATH(GenerateSynthetic(UndrawnRowSpec({2.0, -1.0}), 1),
               "negative categorical weight");
}

TEST(ContractsDeathTest, BucketizerRejectsUnorderedCuts) {
  EXPECT_DEATH(Bucketizer("v", {3.0, 1.0}), "strictly increasing");
}

TEST(ContractsDeathTest, PredictBeforeFitDies) {
  Dataset data(SmallSchema());
  data.AddRow({0, 0, 0}, 1);
  ClassifierPtr model = MakeClassifier(ModelType::kDecisionTree);
  EXPECT_DEATH(model->PredictProba(data, 0), "Fit has not been called");
}

TEST(ContractsDeathTest, CostMatrixMustBePositive) {
  CostMatrix costs;
  costs.false_positive_cost = 0.0;
  EXPECT_DEATH(CostSensitiveClassifier(
                   MakeClassifier(ModelType::kNaiveBayes), costs),
               "");
}

TEST(ContractsDeathTest, RegionCounterNeedsProtectedAttributes) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("a", {"x", "y"}),
  };
  DataSchema schema(attributes, {});
  EXPECT_DEATH(RegionCounter counter(schema), "protected");
}

TEST(ContractsDeathTest, TrainTestSplitRejectsDegenerateFraction) {
  Dataset data(SmallSchema());
  for (int i = 0; i < 10; ++i) data.AddRow({0, 0, 0}, i % 2);
  Rng rng(1);
  EXPECT_DEATH(data.TrainTestSplit(0.0, rng), "");
  EXPECT_DEATH(data.TrainTestSplit(1.0, rng), "");
}

// An empty dataset is now a recoverable boundary error, not an abort: the
// entry point reports kInvalidArgument and value() is what would die.
TEST(ContractsDeathTest, RemedyRejectsEmptyDataset) {
  Dataset data(SmallSchema());
  RemedyParams params;
  StatusOr<Dataset> remedied = RemedyDataset(data, params);
  ASSERT_FALSE(remedied.ok());
  EXPECT_EQ(remedied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_DEATH(RemedyDataset(data, params).value(), "INVALID_ARGUMENT");
}

TEST(ContractsDeathTest, TablePrinterRejectsRaggedRow) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one-cell"}), "cells");
}

TEST(ContractsDeathTest, ScalabilityProtectedRejectsBadCount) {
  EXPECT_DEATH(AdultScalabilityProtected(9), "");
  EXPECT_DEATH(AdultScalabilityProtected(0), "");
}

// The planner's ApplyDeltas form (no insert_missing): a delta that takes
// a region below zero dies in every build type, both on the keyed path (a
// narrow batch) and on the slot-mapped one (deltas x nodes reach the
// lattice's 11 entries, so the batch builds the maps first).
TEST(ContractsDeathTest, ApplyDeltasRejectsNegativeRegionCounts) {
  auto lattice = [] {
    auto hierarchy = std::make_unique<Hierarchy>(
        SmallSchema(),
        NodeTable({{0, {2, 1}}, {1, {1, 1}}, {2, {3, 0}}, {3, {1, 2}},
                   {4, {2, 2}}, {5, {0, 3}}}),
        RegionCounts{9, 9});
    REMEDY_CHECK(hierarchy->EagerBuild(1).ok());
    return hierarchy;
  };
  EXPECT_DEATH(lattice()->ApplyDeltas({{2, -4, 0}}),
               "delta drove region key 2 negative");
  EXPECT_DEATH(
      lattice()->ApplyDeltas({{0, 1, 0}, {1, 0, 1}, {2, -4, 0}, {3, 1, 1}}),
      "delta drove region key 2 negative");
}

TEST(ContractsDeathTest, AttributeRejectsEmptyDomain) {
  EXPECT_DEATH(AttributeSchema("empty", {}), "no values");
}

}  // namespace
}  // namespace remedy
