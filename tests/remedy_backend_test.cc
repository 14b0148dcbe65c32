// PlanRemedyDeltas tests (docs/REMEDY.md).
//
// The load-bearing half is the randomized parity suite: the count-native
// delta plan must equal — delta for delta, and with the exact RemedyStats —
// the census diff of running the rebuild engine over the canonical
// materialization of the same counts, for every technique, every planning
// thread count, and censuses over 2-6 protected attributes. That identity is
// what lets the daemon commit remedies as WAL deltas and still claim
// byte-equivalence with the offline pipeline. The rest pins the Eq. 1
// post-condition of the leaf visit, censuses too large to materialize, the
// canonical materialization round-trip, and the algebra of the oracle's
// census diff.

#include "core/remedy_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ranker.h"
#include "core/region_counter.h"
#include "core/remedy.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "test_util.h"

namespace remedy {
namespace {

using remedy::testing::GridDataset;
using remedy::testing::SmallSchema;

void ExpectIdenticalRows(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (int r = 0; r < a.NumRows(); ++r) {
    ASSERT_EQ(a.Row(r), b.Row(r)) << "row " << r;
    ASSERT_EQ(a.Label(r), b.Label(r)) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Canonical materialization
// ---------------------------------------------------------------------------

TEST(MaterializeLeafCountsTest, RoundTripsTheLeafCensus) {
  Dataset data = GridDataset({{{7, 3}, {0, 5}},
                              {{2, 2}, {9, 0}},
                              {{0, 0}, {4, 6}}});
  const NodeTable counts = LeafCountsOf(data);
  StatusOr<Dataset> materialized =
      MaterializeLeafCounts(data.schema(), counts);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  // Count-faithful: the materialized rows re-census to the input exactly.
  EXPECT_EQ(LeafCountsOf(materialized.value()), counts);
  EXPECT_EQ(LeafCountsDigest(LeafCountsOf(materialized.value())),
            LeafCountsDigest(counts));
  // Row count matches the census total (empty cells add nothing).
  EXPECT_EQ(materialized.value().NumRows(), 7 + 3 + 5 + 2 + 2 + 9 + 4 + 6);
}

TEST(MaterializeLeafCountsTest, IsDeterministicInTheCountsAlone) {
  // Two different row orders with the same census materialize identically —
  // the property that makes the daemon's count-only state sufficient.
  Dataset forward(SmallSchema());
  Dataset backward(SmallSchema());
  remedy::testing::AddRows(forward, 4, 0, 0, 1, 1);
  remedy::testing::AddRows(forward, 2, 1, 1, 0, 0);
  remedy::testing::AddRows(backward, 2, 1, 1, 1, 0);
  remedy::testing::AddRows(backward, 4, 0, 0, 0, 1);
  Dataset a =
      MaterializeLeafCounts(forward.schema(), LeafCountsOf(forward)).value();
  Dataset b =
      MaterializeLeafCounts(backward.schema(), LeafCountsOf(backward)).value();
  ExpectIdenticalRows(a, b);
}

TEST(MaterializeLeafCountsTest, RejectsUnprotectedSchemaAndNegativeCounts) {
  DataSchema no_protected(
      {AttributeSchema("x", {"x0", "x1"})}, {});
  EXPECT_EQ(MaterializeLeafCounts(no_protected, NodeTable())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  NodeTable negative({{0, RegionCounts{-1, 2}}});
  EXPECT_EQ(MaterializeLeafCounts(SmallSchema(), negative).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The oracle's census diff
// ---------------------------------------------------------------------------

// Net signed deltas such that `before` + deltas = `after`, ascending by
// key, zero-net entries omitted: the plan the parity oracle derives from
// the rows the rebuild engine remedied.
std::vector<Hierarchy::LeafDelta> DiffLeafCounts(const NodeTable& before,
                                                 const NodeTable& after) {
  std::vector<Hierarchy::LeafDelta> deltas;
  auto a = before.begin();
  auto b = after.begin();
  auto emit = [&deltas](uint64_t key, int64_t delta_positives,
                        int64_t delta_negatives) {
    if (delta_positives != 0 || delta_negatives != 0) {
      deltas.push_back({key, delta_positives, delta_negatives});
    }
  };
  while (a != before.end() || b != after.end()) {
    if (b == after.end() || (a != before.end() && a->first < b->first)) {
      emit(a->first, -a->second.positives, -a->second.negatives);
      ++a;
    } else if (a == before.end() || b->first < a->first) {
      emit(b->first, b->second.positives, b->second.negatives);
      ++b;
    } else {
      emit(a->first, b->second.positives - a->second.positives,
           b->second.negatives - a->second.negatives);
      ++a;
      ++b;
    }
  }
  return deltas;
}

NodeTable Applied(const NodeTable& base,
                  const std::vector<Hierarchy::LeafDelta>& deltas) {
  NodeTable out = base;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    out.UpsertDelta(delta.leaf_key, delta.delta_positives,
                    delta.delta_negatives);
  }
  return out;
}

TEST(DiffLeafCountsTest, BeforePlusDiffEqualsAfter) {
  NodeTable before({{0, {5, 3}}, {2, {1, 1}}, {4, {0, 7}}});
  // Key 0 changes, key 2 drains to zero, key 3 appears, key 4 is untouched.
  NodeTable after({{0, {6, 2}}, {2, {0, 0}}, {3, {4, 4}}, {4, {0, 7}}});
  const std::vector<Hierarchy::LeafDelta> diff =
      DiffLeafCounts(before, after);
  EXPECT_EQ(LeafCountsDigest(Applied(before, diff)),
            LeafCountsDigest(after));
  // Untouched keys must not appear; deltas come out ascending by key.
  for (size_t i = 0; i < diff.size(); ++i) {
    EXPECT_TRUE(diff[i].delta_positives != 0 || diff[i].delta_negatives != 0);
    if (i > 0) {
      EXPECT_LT(diff[i - 1].leaf_key, diff[i].leaf_key);
    }
  }
  EXPECT_EQ(diff.size(), 3u);
}

TEST(DiffLeafCountsTest, EqualTablesDiffToNothing) {
  NodeTable counts({{1, {2, 2}}, {5, {0, 9}}});
  EXPECT_TRUE(DiffLeafCounts(counts, counts).empty());
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST(PlanRemedyDeltasTest, EmptyCensusPlansNothing) {
  // The daemon may ask for a remedy before any batch arrived; that is a
  // no-op plan, not an error.
  StatusOr<RemedyDeltaPlan> plan =
      PlanRemedyDeltas(SmallSchema(), NodeTable(), RemedyParams());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan.value().deltas.empty());
}

// ---------------------------------------------------------------------------
// Parity: planned deltas == rebuild on the materialized dataset
// ---------------------------------------------------------------------------

RemedyParams BiasedParams(RemedyTechnique technique, uint64_t seed,
                          int threads) {
  RemedyParams params;
  params.ibs.imbalance_threshold = 0.2;
  params.ibs.min_region_size = 5;
  params.technique = technique;
  params.seed = seed;
  params.planning_threads = threads;
  return params;
}

void ExpectSameDeltas(const std::vector<Hierarchy::LeafDelta>& a,
                      const std::vector<Hierarchy::LeafDelta>& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].leaf_key, b[i].leaf_key) << context;
    EXPECT_EQ(a[i].delta_positives, b[i].delta_positives) << context;
    EXPECT_EQ(a[i].delta_negatives, b[i].delta_negatives) << context;
  }
}

void ExpectSameStats(const RemedyStats& a, const RemedyStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.regions_processed, b.regions_processed) << context;
  EXPECT_EQ(a.regions_skipped, b.regions_skipped) << context;
  EXPECT_EQ(a.instances_added, b.instances_added) << context;
  EXPECT_EQ(a.instances_removed, b.instances_removed) << context;
  EXPECT_EQ(a.labels_flipped, b.labels_flipped) << context;
  EXPECT_EQ(a.add_budget_exhausted, b.add_budget_exhausted) << context;
}

// One parity case: a census over a schema, plus the oversampling budget.
// Wide censuses can ask for millions of oversampled rows (a region next to
// a near-zero ratio); the row oracle would copy them node after node, so
// their budget is kept to what a test can afford.
struct Census {
  std::string shape;
  DataSchema schema;
  NodeTable counts;
  int64_t max_added_total = 50'000;
};

// A random census over SmallSchema (2 protected attributes, 6 leaves) with
// skewed cells so the IBS is usually non-empty.
Census SmallCensus(Rng& rng) {
  std::vector<std::vector<std::pair<int, int>>> cells(3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      cells[a].push_back({rng.UniformInt(120), rng.UniformInt(40)});
    }
  }
  return {"small", SmallSchema(), LeafCountsOf(GridDataset(cells)),
          RemedyParams().max_added_total};
}

// A schema of `cardinalities.size()` protected attributes interleaved with
// two non-protected features, so protected positions and columns differ.
DataSchema WideSchema(const std::vector<int>& cardinalities) {
  std::vector<AttributeSchema> attributes;
  std::vector<int> protected_indices;
  auto add = [&attributes](const std::string& name, int cardinality) {
    std::vector<std::string> values;
    for (int v = 0; v < cardinality; ++v) {
      values.push_back(name + std::to_string(v));
    }
    attributes.emplace_back(name, std::move(values));
  };
  add("f", 3);
  for (size_t p = 0; p < cardinalities.size(); ++p) {
    if (p == 2) add("g", 2);
    protected_indices.push_back(static_cast<int>(attributes.size()));
    add("x" + std::to_string(p), cardinalities[p]);
  }
  return DataSchema(std::move(attributes), std::move(protected_indices));
}

// A sparse random census over 3-6 protected attributes of cardinality 2-4.
// With `drained`, some leaves are explicit {0,0} entries, as the daemon's
// census holds for leaves retracted to nothing.
Census WideCensus(Rng& rng, bool drained) {
  std::vector<int> cardinalities(3 + rng.UniformInt(4));
  uint64_t key_space = 1;
  for (int& cardinality : cardinalities) {
    cardinality = 2 + rng.UniformInt(3);
    key_space *= static_cast<uint64_t>(cardinality);
  }
  const double fill = std::min(1.0, 40.0 / static_cast<double>(key_space));
  std::vector<NodeTable::Entry> entries;
  for (uint64_t key = 0; key < key_space; ++key) {
    if (!rng.Bernoulli(fill)) continue;
    if (drained && rng.Bernoulli(0.25)) {
      entries.push_back({key, RegionCounts{0, 0}});
      continue;
    }
    // A per-leaf bias so neighborhoods disagree; occasionally one-class.
    const double bias = rng.Uniform();
    const int64_t size = 6 + rng.UniformInt(90);
    int64_t positives = std::llround(bias * static_cast<double>(size));
    if (rng.Bernoulli(0.1)) positives = rng.Bernoulli(0.5) ? size : 0;
    entries.push_back({key, RegionCounts{positives, size - positives}});
  }
  return {drained ? "drained" : "wide", WideSchema(cardinalities),
          NodeTable(std::move(entries))};
}

// Every leaf populated. The first protected attribute is a bias axis; the
// others are noise axes of even cardinality, and a leaf's counts depend on
// its bias value and the parity of its noise codes only. Each noise axis
// then has the same class-conditional marginal at every value (another
// even noise axis balances the parities), so the naive Bayes ranker scores
// all leaves of one bias value alike: borderline order inside a region of
// the bias axis falls to the canonical row index alone. The parity skews
// the leaves and the bias values skew the bias axis, so both levels act.
Census SymmetricCensus(Rng& rng) {
  std::vector<int> cardinalities = {2 + rng.UniformInt(3)};
  for (int noise = 2 + rng.UniformInt(2); noise > 0; --noise) {
    cardinalities.push_back(rng.Bernoulli(0.5) ? 2 : 4);
  }
  const DataSchema schema = WideSchema(cardinalities);
  const RegionCounter counter(schema);
  const uint32_t leaf_mask = (1u << cardinalities.size()) - 1;
  // counts[bias value][parity]
  std::vector<std::vector<RegionCounts>> counts(cardinalities[0]);
  for (auto& by_parity : counts) {
    for (int parity = 0; parity < 2; ++parity) {
      by_parity.push_back({3 + rng.UniformInt(38), 3 + rng.UniformInt(38)});
    }
  }
  std::vector<NodeTable::Entry> entries;
  for (uint64_t key = 0; key < counter.KeySpace(leaf_mask); ++key) {
    const Pattern pattern = counter.PatternFor(key, leaf_mask);
    int parity = 0;
    for (size_t p = 1; p < cardinalities.size(); ++p) {
      parity ^= pattern.Value(static_cast<int>(p)) & 1;
    }
    entries.push_back({key, counts[pattern.Value(0)][parity]});
  }
  return {"symmetric", schema, NodeTable(std::move(entries))};
}

// A wide census whose oversampling budget runs dry mid-pass.
Census TruncatingCensus(Rng& rng) {
  Census census = WideCensus(rng, /*drained=*/false);
  census.shape = "truncating";
  census.max_added_total = 1 + rng.UniformInt(60);
  return census;
}

class PlanRemedyDeltasParityTest
    : public ::testing::TestWithParam<std::tuple<RemedyTechnique, int>> {};

TEST_P(PlanRemedyDeltasParityTest, DeltasMatchRebuildOnMaterialized) {
  auto [technique, threads] = GetParam();
#ifdef REMEDY_TSAN_BUILD
  const int kDraws = 2;  // TSan is ~10x slower; the race surface is the same
#else
  const int kDraws = 8;
#endif
  std::map<std::string, int> acted;
  int exhausted = 0;
  for (int draw = 0; draw < kDraws; ++draw) {
    Rng rng(100 * draw + threads + 7);
    const std::vector<Census> censuses = {
        SmallCensus(rng), WideCensus(rng, /*drained=*/false),
        WideCensus(rng, /*drained=*/true), SymmetricCensus(rng),
        TruncatingCensus(rng)};
    for (const Census& census : censuses) {
      const std::string context = TechniqueName(technique) + " " +
                                  census.shape + " draw " +
                                  std::to_string(draw) + " threads " +
                                  std::to_string(threads);
      RemedyParams params = BiasedParams(technique, 23 + draw, threads);
      params.max_added_total = census.max_added_total;

      StatusOr<RemedyDeltaPlan> plan =
          PlanRemedyDeltas(census.schema, census.counts, params);
      ASSERT_TRUE(plan.ok()) << plan.status() << " " << context;

      // Oracle: rebuild the remedy over the canonical materialization of
      // the same counts, then diff the census of the remedied rows.
      Dataset materialized =
          MaterializeLeafCounts(census.schema, census.counts).value();
      RemedyParams rebuild = params;
      rebuild.engine = RemedyEngine::kRebuild;
      RemedyStats oracle_stats;
      StatusOr<Dataset> remedied =
          RemedyDataset(materialized, rebuild, &oracle_stats);
      ASSERT_TRUE(remedied.ok()) << remedied.status() << " " << context;
      const NodeTable remedied_counts = LeafCountsOf(remedied.value());

      ExpectSameDeltas(plan.value().deltas,
                       DiffLeafCounts(census.counts, remedied_counts),
                       context);
      EXPECT_EQ(LeafCountsDigest(Applied(census.counts, plan.value().deltas)),
                LeafCountsDigest(remedied_counts))
          << context;
      ExpectSameStats(plan.value().stats, oracle_stats, context);
      if (!plan.value().deltas.empty()) ++acted[census.shape];
      if (plan.value().stats.add_budget_exhausted) ++exhausted;
    }
  }
  for (const char* shape : {"small", "wide", "drained", "symmetric"}) {
    EXPECT_GT(acted[shape], 0)
        << "every " << shape << " draw planned nothing; the sweep proved "
        << "nothing — reskew its census";
  }
  if (technique == RemedyTechnique::kOversample) {
    EXPECT_GT(exhausted, 0) << "no draw ran out of oversampling budget";
  }
}

TEST(PlanRemedyDeltasTest, SymmetricCensusTiesLeafScoresPerBiasValue) {
  // The premise of the symmetric parity shape: the ranker cannot tell apart
  // two leaves of one bias value, so only the row index orders their
  // borderline picks.
  for (int draw = 0; draw < 4; ++draw) {
    Rng rng(draw + 1);
    const Census census = SymmetricCensus(rng);
    const Dataset rows =
        MaterializeLeafCounts(census.schema, census.counts).value();
    const std::vector<double> scores = BorderlineRanker(rows).ScoreAll(rows);
    const int bias_column = census.schema.protected_indices()[0];
    std::map<int, double> score_of_bias;
    for (int r = 0; r < rows.NumRows(); ++r) {
      auto [it, inserted] =
          score_of_bias.emplace(rows.Value(r, bias_column), scores[r]);
      ASSERT_EQ(it->second, scores[r]) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TechniqueThreadSweep, PlanRemedyDeltasParityTest,
    ::testing::Combine(
        ::testing::Values(RemedyTechnique::kOversample,
                          RemedyTechnique::kUndersample,
                          RemedyTechnique::kPreferentialSampling,
                          RemedyTechnique::kMassaging),
        ::testing::Values(1, 2, 4, 0)),
    [](const ::testing::TestParamInfo<std::tuple<RemedyTechnique, int>>&
           info) {
      return TechniqueName(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PlanRemedyDeltasTest, PlanCrossesTheRemedyFaultPoint) {
  Rng rng(9);
  const Census census = SmallCensus(rng);
  FaultInjector injector;
  injector.FailAlways("remedy/apply", StatusCode::kResourceExhausted);
  StatusOr<RemedyDeltaPlan> plan =
      PlanRemedyDeltas(census.schema, census.counts, RemedyParams());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlanRemedyDeltasTest, RejectsUnprotectedSchemaAndNegativeCounts) {
  DataSchema no_protected({AttributeSchema("x", {"x0", "x1"})}, {});
  EXPECT_EQ(PlanRemedyDeltas(no_protected, NodeTable({{0, {3, 4}}}),
                             RemedyParams())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The negative leaf is not the first one, and the census total is
  // positive, so only the per-leaf check can catch it.
  const NodeTable negative({{0, {20, 5}}, {1, {-1, 2}}, {2, {4, 30}}});
  EXPECT_EQ(
      PlanRemedyDeltas(SmallSchema(), negative, RemedyParams()).status().code(),
      StatusCode::kInvalidArgument);
}

// perfbench reads remedy_backend/{plans,deltas_planned,plan_ns}: one plan,
// its delta count and one timing per census planned, nothing for a no-op on
// an empty census or a rejected one.
TEST(PlanRemedyDeltasTest, RecordsOneMetricsSamplePerPlannedCensus) {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  const int64_t plans = metrics.remedy_backend_plans->Value();
  const int64_t deltas = metrics.remedy_backend_deltas_planned->Value();
  const int64_t timings = metrics.remedy_backend_plan_ns->Count();

  Rng rng(9);
  const Census census = SmallCensus(rng);
  StatusOr<RemedyDeltaPlan> plan = PlanRemedyDeltas(
      census.schema, census.counts,
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 1));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(plan.value().deltas.empty());
  EXPECT_EQ(metrics.remedy_backend_plans->Value(), plans + 1);
  EXPECT_EQ(metrics.remedy_backend_deltas_planned->Value(),
            deltas + static_cast<int64_t>(plan.value().deltas.size()));
  EXPECT_EQ(metrics.remedy_backend_plan_ns->Count(), timings + 1);

  ASSERT_TRUE(
      PlanRemedyDeltas(SmallSchema(), NodeTable(), RemedyParams()).ok());
  EXPECT_FALSE(PlanRemedyDeltas(SmallSchema(), NodeTable({{0, {-1, 2}}}),
                                RemedyParams())
                   .ok());
  EXPECT_EQ(metrics.remedy_backend_plans->Value(), plans + 1);
  EXPECT_EQ(metrics.remedy_backend_plan_ns->Count(), timings + 1);
}

// What each technique may do to a leaf: oversampling only adds, under-
// sampling only removes, massaging only moves rows between the labels of
// one leaf. Whatever the technique, the net row change is added - removed.
TEST(PlanRemedyDeltasTest, DeltaSignsFollowTheTechnique) {
  for (RemedyTechnique technique :
       {RemedyTechnique::kOversample, RemedyTechnique::kUndersample,
        RemedyTechnique::kPreferentialSampling,
        RemedyTechnique::kMassaging}) {
    int acted = 0;
    for (int draw = 0; draw < 6; ++draw) {
      Rng rng(101 + draw);
      const Census census = WideCensus(rng, /*drained=*/draw % 2 == 1);
      const std::string context =
          TechniqueName(technique) + " draw " + std::to_string(draw);
      RemedyParams params = BiasedParams(technique, 23, 1);
      params.max_added_total = census.max_added_total;
      StatusOr<RemedyDeltaPlan> plan =
          PlanRemedyDeltas(census.schema, census.counts, params);
      ASSERT_TRUE(plan.ok()) << plan.status() << " " << context;
      const RemedyStats& stats = plan.value().stats;
      int64_t net_rows = 0;
      int64_t moved_labels = 0;
      for (const Hierarchy::LeafDelta& delta : plan.value().deltas) {
        net_rows += delta.delta_positives + delta.delta_negatives;
        switch (technique) {
          case RemedyTechnique::kOversample:
            EXPECT_GE(delta.delta_positives, 0) << context;
            EXPECT_GE(delta.delta_negatives, 0) << context;
            break;
          case RemedyTechnique::kUndersample:
            EXPECT_LE(delta.delta_positives, 0) << context;
            EXPECT_LE(delta.delta_negatives, 0) << context;
            break;
          case RemedyTechnique::kMassaging:
            EXPECT_EQ(delta.delta_positives, -delta.delta_negatives)
                << context;
            moved_labels += std::abs(delta.delta_positives);
            break;
          case RemedyTechnique::kPreferentialSampling:
            break;
        }
      }
      EXPECT_EQ(net_rows, stats.instances_added - stats.instances_removed)
          << context;
      if (technique == RemedyTechnique::kMassaging) {
        EXPECT_EQ(stats.instances_added, 0) << context;
        EXPECT_EQ(stats.instances_removed, 0) << context;
        EXPECT_LE(moved_labels, stats.labels_flipped) << context;
      }
      if (!plan.value().deltas.empty()) ++acted;
    }
    EXPECT_GT(acted, 0) << TechniqueName(technique) << " never acted";
  }
}

TEST(PlanRemedyDeltasTest, AddBudgetCapsTheRowsAdded) {
  Rng rng(9);
  const Census census = SmallCensus(rng);
  RemedyParams params = BiasedParams(RemedyTechnique::kOversample, 23, 1);
  params.max_added_total = -1;
  StatusOr<RemedyDeltaPlan> uncapped =
      PlanRemedyDeltas(census.schema, census.counts, params);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status();
  const int64_t wanted = uncapped.value().stats.instances_added;
  ASSERT_GT(wanted, 1);
  EXPECT_FALSE(uncapped.value().stats.add_budget_exhausted);

  for (int64_t cap : {int64_t{0}, wanted / 2, wanted - 1}) {
    params.max_added_total = cap;
    StatusOr<RemedyDeltaPlan> capped =
        PlanRemedyDeltas(census.schema, census.counts, params);
    ASSERT_TRUE(capped.ok()) << capped.status();
    int64_t added = 0;
    for (const Hierarchy::LeafDelta& delta : capped.value().deltas) {
      added += delta.delta_positives + delta.delta_negatives;
    }
    EXPECT_EQ(added, capped.value().stats.instances_added) << "cap " << cap;
    EXPECT_LE(added, cap) << "cap " << cap;
    EXPECT_TRUE(capped.value().stats.add_budget_exhausted) << "cap " << cap;
  }
}

// The daemon's census keeps leaves retracted to nothing as {0,0} entries;
// they hold no rows, so they must not change the plan.
TEST(PlanRemedyDeltasTest, DrainedLeavesPlanLikeAbsentOnes) {
  int drained_total = 0;
  for (int draw = 0; draw < 4; ++draw) {
    Rng rng(301 + draw);
    const Census census = WideCensus(rng, /*drained=*/true);
    std::vector<NodeTable::Entry> populated;
    int drained = 0;
    for (const auto& [key, counts] : census.counts) {
      if (counts.Total() == 0) {
        ++drained;
      } else {
        populated.push_back({key, counts});
      }
    }
    const RemedyParams params =
        BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 1);
    StatusOr<RemedyDeltaPlan> with =
        PlanRemedyDeltas(census.schema, census.counts, params);
    StatusOr<RemedyDeltaPlan> without = PlanRemedyDeltas(
        census.schema, NodeTable(std::move(populated)), params);
    const std::string context = "draw " + std::to_string(draw) + " (" +
                                std::to_string(drained) + " drained)";
    ASSERT_TRUE(with.ok()) << with.status() << " " << context;
    ASSERT_TRUE(without.ok()) << without.status() << " " << context;
    ExpectSameDeltas(with.value().deltas, without.value().deltas, context);
    ExpectSameStats(with.value().stats, without.value().stats, context);
    drained_total += drained;
  }
  EXPECT_GT(drained_total, 0) << "no draw held a drained leaf";
}

// ---------------------------------------------------------------------------
// Eq. 1 post-condition of the leaf visit
// ---------------------------------------------------------------------------

// The leaf node is the first node Algorithm 2 visits, so it plans on the
// census itself. Scoped to the leaf node, a plan is exactly that visit: each
// acted-on leaf region must end at the counts ComputeUpdate asked for, and
// each region it could not act on must be counted as skipped.
void ExpectLeafVisitMeetsEq1(const DataSchema& schema, const NodeTable& counts,
                             RemedyTechnique technique,
                             const std::string& context,
                             int* skipped_out = nullptr) {
  RemedyParams params = BiasedParams(technique, 23, 1);
  params.ibs.scope = IbsScope::kLeaf;
  params.max_added_total = -1;  // Eq. 1 without the safety valve
  StatusOr<RemedyDeltaPlan> plan = PlanRemedyDeltas(schema, counts, params);
  ASSERT_TRUE(plan.ok()) << plan.status() << " " << context;
  const NodeTable after = Applied(counts, plan.value().deltas);

  RegionCounts totals;
  for (const auto& [key, region] : counts) {
    totals.positives += region.positives;
    totals.negatives += region.negatives;
  }
  Hierarchy hierarchy(schema, counts, totals);
  const uint32_t leaf = hierarchy.LeafMask();
  int skipped = 0;
  int processed = 0;
  std::map<uint64_t, RegionCounts> expected;
  for (const BiasedRegion& region :
       IdentifyIbsInNode(hierarchy, leaf, params.ibs)) {
    const RegionCounts& have = region.counts;
    const RegionUpdate update =
        ComputeUpdate(technique, have.positives, have.negatives,
                      region.neighbor_ratio);
    // Unreachable targets, and duplication with nothing to duplicate.
    const bool no_source =
        (technique == RemedyTechnique::kOversample &&
         (update.delta_negatives > 0 ? have.negatives : have.positives) ==
             0) ||
        (technique == RemedyTechnique::kPreferentialSampling &&
         (update.delta_positives < 0 ? have.negatives : have.positives) ==
             0);
    const bool acts =
        update.delta_positives != 0 || update.delta_negatives != 0;
    if (!update.reachable || (acts && no_source)) {
      ++skipped;
      continue;
    }
    if (!acts) continue;
    ++processed;
    expected[hierarchy.counter().KeyFor(region.pattern, leaf)] = {
        have.positives + update.delta_positives,
        have.negatives + update.delta_negatives};
  }
  EXPECT_EQ(plan.value().stats.regions_skipped, skipped) << context;
  EXPECT_EQ(plan.value().stats.regions_processed, processed) << context;
  for (const auto& [key, region] : counts) {
    auto it = expected.find(key);
    const RegionCounts want = it == expected.end() ? region : it->second;
    EXPECT_EQ(after.at(key), want) << context << " leaf " << key;
  }
  if (skipped_out != nullptr) *skipped_out = skipped;
}

TEST(PlanRemedyDeltasEq1Test, LeafRegionsEndAtTheirEq1Counts) {
  for (RemedyTechnique technique :
       {RemedyTechnique::kOversample, RemedyTechnique::kUndersample,
        RemedyTechnique::kPreferentialSampling,
        RemedyTechnique::kMassaging}) {
    for (int draw = 0; draw < 6; ++draw) {
      Rng rng(31 * draw + 3);
      const Census census = WideCensus(rng, /*drained=*/draw % 2 == 1);
      ExpectLeafVisitMeetsEq1(census.schema, census.counts, technique,
                              TechniqueName(technique) + " draw " +
                                  std::to_string(draw));
    }
  }
}

TEST(PlanRemedyDeltasEq1Test, UnreachableRegionsCountAsSkipped) {
  // Leaf (0, 0) is all-negative and every neighbor is all-positive: its
  // target is "no negatives", which adding rows can never reach.
  const NodeTable counts({{0, {0, 40}},
                          {1, {40, 0}},
                          {2, {40, 0}},
                          {4, {40, 0}},
                          {5, {20, 20}}});
  int skipped = 0;
  ExpectLeafVisitMeetsEq1(SmallSchema(), counts, RemedyTechnique::kOversample,
                          "oversample", &skipped);
  EXPECT_GT(skipped, 0);
}

// ---------------------------------------------------------------------------
// int64 safety: censuses no Dataset can hold
// ---------------------------------------------------------------------------

// One protected attribute of two values, plus a feature.
DataSchema OneAttributeSchema() {
  return DataSchema({AttributeSchema("f", {"f0", "f1"}),
                     AttributeSchema("x", {"x0", "x1"})},
                    {1});
}

TEST(PlanRemedyDeltasInt64Test, BorderlinePlansOverBillionsOfInstances) {
  // 3 * 10^9 instances in one leaf: past Dataset's int row index, so no
  // materialization exists. The neighborhood is empty (all-positive by
  // Def. 3), so the whole negative class has to go. In the second census
  // preferential sampling duplicates its one positive 3 * 10^9 times.
  const DataSchema schema = OneAttributeSchema();
  for (const RegionCounts& leaf :
       {RegionCounts{2'000'000'000, 1'000'000'000},
        RegionCounts{1, 3'000'000'000}}) {
    const NodeTable counts({{0, leaf}});
    for (RemedyTechnique technique : {RemedyTechnique::kPreferentialSampling,
                                      RemedyTechnique::kMassaging}) {
      const std::string context = TechniqueName(technique) + " with " +
                                  std::to_string(leaf.positives) +
                                  " positives";
      StatusOr<RemedyDeltaPlan> plan =
          PlanRemedyDeltas(schema, counts, BiasedParams(technique, 23, 1));
      ASSERT_TRUE(plan.ok()) << plan.status() << " " << context;
      ASSERT_EQ(plan.value().deltas.size(), 1u) << context;
      EXPECT_EQ(plan.value().deltas[0].delta_positives, leaf.negatives)
          << context;
      EXPECT_EQ(plan.value().deltas[0].delta_negatives, -leaf.negatives)
          << context;
      const RemedyStats& stats = plan.value().stats;
      EXPECT_EQ(stats.regions_processed, 1) << context;
      if (technique == RemedyTechnique::kMassaging) {
        EXPECT_EQ(stats.labels_flipped, leaf.negatives) << context;
      } else {
        EXPECT_EQ(stats.instances_added, leaf.negatives) << context;
        EXPECT_EQ(stats.instances_removed, leaf.negatives) << context;
      }
    }
  }
}

TEST(PlanRemedyDeltasInt64Test, RandomPicksPastIntRangeAreOutOfRange) {
  const DataSchema schema = OneAttributeSchema();
  // Undersampling must draw from 3 * 10^9 negatives.
  const NodeTable one_leaf({{0, {1'000'000'000, 3'000'000'000}}});
  // Oversampling duplicates negatives of leaf 0 (ratio 3) toward leaf 1's
  // ratio 0.01: a class of 3 * 10^9 to draw from.
  const NodeTable two_leaves(
      {{0, {9'000'000'000, 3'000'000'000}}, {1, {10, 1000}}});
  const std::pair<RemedyTechnique, const NodeTable*> cases[] = {
      {RemedyTechnique::kUndersample, &one_leaf},
      {RemedyTechnique::kOversample, &two_leaves}};
  for (const auto& [technique, counts] : cases) {
    StatusOr<RemedyDeltaPlan> plan =
        PlanRemedyDeltas(schema, *counts, BiasedParams(technique, 23, 1));
    ASSERT_FALSE(plan.ok()) << TechniqueName(technique);
    EXPECT_EQ(plan.status().code(), StatusCode::kOutOfRange)
        << plan.status();
  }
}

// The two row engines are row-faithful twins: same rows out, not just the
// same census (the PR 2 identity, through RemedyDataset).
TEST(RemedyBackendTest, BatchBackendsAreByteIdenticalOnRows) {
  Dataset data = GridDataset({{{80, 10}, {12, 40}},
                              {{30, 30}, {5, 60}},
                              {{90, 9}, {20, 20}}});
  RemedyParams params =
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 2);
  params.engine = RemedyEngine::kRebuild;
  StatusOr<Dataset> a = RemedyDataset(data, params);
  params.engine = RemedyEngine::kIncremental;
  StatusOr<Dataset> b = RemedyDataset(data, params);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectIdenticalRows(a.value(), b.value());
}

}  // namespace
}  // namespace remedy
