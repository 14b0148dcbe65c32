// RemedyBackend seam tests (docs/REMEDY.md).
//
// The load-bearing half is the randomized parity suite: the streaming
// backend's count-native delta plan, applied to the source leaf counts, must
// land on the exact FNV-1a counts digest — and the exact RemedyStats — of
// running the batch rebuild engine over the canonical materialization of
// those same counts, for every technique, every planning thread count, and
// censuses over 2-6 protected attributes. That identity is what lets the
// daemon commit remedies as WAL deltas and still claim byte-equivalence with
// the offline pipeline. The rest pins the Eq. 1 post-condition of the leaf
// visit, censuses too large to materialize, the registry (names, parse
// errors), the canonical materialization round-trip, and the DiffLeafCounts
// algebra.

#include "core/remedy_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
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
// Registry: names, parsing, construction
// ---------------------------------------------------------------------------

TEST(RemedyBackendRegistryTest, NamesRoundTripThroughParse) {
  for (RemedyBackendKind kind :
       {RemedyBackendKind::kRebuild, RemedyBackendKind::kIncremental,
        RemedyBackendKind::kStreaming}) {
    StatusOr<RemedyBackendKind> parsed =
        ParseRemedyBackend(RemedyBackendName(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value(), kind);
  }
}

TEST(RemedyBackendRegistryTest, UnknownNameListsTheValidOnes) {
  for (const std::string& bogus : {"", "Rebuild", "online", "stream"}) {
    StatusOr<RemedyBackendKind> parsed = ParseRemedyBackend(bogus);
    ASSERT_FALSE(parsed.ok()) << "'" << bogus << "' parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The message is the CLI's only hint; it must name every backend.
    const std::string& message = parsed.status().message();
    EXPECT_NE(message.find("rebuild"), std::string::npos) << message;
    EXPECT_NE(message.find("incremental"), std::string::npos) << message;
    EXPECT_NE(message.find("streaming"), std::string::npos) << message;
  }
}

TEST(RemedyBackendRegistryTest, CreateReturnsTheAskedForKind) {
  for (RemedyBackendKind kind :
       {RemedyBackendKind::kRebuild, RemedyBackendKind::kIncremental,
        RemedyBackendKind::kStreaming}) {
    auto backend = RemedyBackend::Create(kind);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
    EXPECT_STREQ(backend->name(), RemedyBackendName(kind));
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
// DiffLeafCounts algebra
// ---------------------------------------------------------------------------

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
    if (i > 0) EXPECT_LT(diff[i - 1].leaf_key, diff[i].leaf_key);
  }
  EXPECT_EQ(diff.size(), 3u);
}

TEST(DiffLeafCountsTest, EqualTablesDiffToNothing) {
  NodeTable counts({{1, {2, 2}}, {5, {0, 9}}});
  EXPECT_TRUE(DiffLeafCounts(counts, counts).empty());
}

// ---------------------------------------------------------------------------
// PlanDeltas edge cases
// ---------------------------------------------------------------------------

TEST(RemedyBackendTest, EmptySourcePlansNothing) {
  // The daemon may ask for a remedy before any batch arrived; that is a
  // no-op plan, not an error.
  const DataSchema schema = SmallSchema();
  NodeTable empty;
  RemedySource source;
  source.schema = &schema;
  source.leaf_counts = &empty;
  auto backend = RemedyBackend::Create(RemedyBackendKind::kStreaming);
  StatusOr<RemedyDeltaPlan> plan = backend->PlanDeltas(source, RemedyParams());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan.value().deltas.empty());
}

TEST(RemedyBackendTest, SourceValidationRejectsAmbiguityAndAbsence) {
  Dataset data = GridDataset({{{5, 5}}});
  const NodeTable counts = LeafCountsOf(data);
  auto backend = RemedyBackend::Create(RemedyBackendKind::kIncremental);

  RemedySource none;  // neither form set
  EXPECT_EQ(backend->Remedy(none, RemedyParams()).status().code(),
            StatusCode::kInvalidArgument);

  RemedySource both;  // both forms set
  both.dataset = &data;
  both.schema = &data.schema();
  both.leaf_counts = &counts;
  EXPECT_EQ(backend->Remedy(both, RemedyParams()).status().code(),
            StatusCode::kInvalidArgument);

  RemedySource counts_without_schema;
  counts_without_schema.leaf_counts = &counts;
  EXPECT_EQ(
      backend->Remedy(counts_without_schema, RemedyParams()).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Parity: streaming deltas == rebuild on the materialized dataset
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

class RemedyBackendParityTest
    : public ::testing::TestWithParam<std::tuple<RemedyTechnique, int>> {};

TEST_P(RemedyBackendParityTest, StreamingDeltasMatchRebuildOnMaterialized) {
  auto [technique, threads] = GetParam();
#ifdef REMEDY_TSAN_BUILD
  const int kDraws = 2;  // TSan is ~10x slower; the race surface is the same
#else
  const int kDraws = 8;
#endif
  auto streaming = RemedyBackend::Create(RemedyBackendKind::kStreaming);
  auto rebuild = RemedyBackend::Create(RemedyBackendKind::kRebuild);
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

      RemedySource count_source;
      count_source.schema = &census.schema;
      count_source.leaf_counts = &census.counts;
      StatusOr<RemedyDeltaPlan> plan =
          streaming->PlanDeltas(count_source, params);
      ASSERT_TRUE(plan.ok()) << plan.status() << " " << context;

      // Oracle: batch-rebuild the remedy over the canonical
      // materialization of the same counts, then census the remedied rows.
      Dataset materialized =
          MaterializeLeafCounts(census.schema, census.counts).value();
      RemedySource row_source;
      row_source.dataset = &materialized;
      RemedyStats oracle_stats;
      StatusOr<Dataset> remedied =
          rebuild->Remedy(row_source, params, &oracle_stats);
      ASSERT_TRUE(remedied.ok()) << remedied.status() << " " << context;

      EXPECT_EQ(LeafCountsDigest(Applied(census.counts, plan.value().deltas)),
                LeafCountsDigest(LeafCountsOf(remedied.value())))
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

TEST(RemedyBackendTest, SymmetricCensusTiesLeafScoresPerBiasValue) {
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
    TechniqueThreadSweep, RemedyBackendParityTest,
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

// The row form is the plan applied to the census, materialized once.
TEST(RemedyBackendTest, StreamingRowsMaterializeThePlannedCensus) {
  Rng rng(5);
  const Census census = WideCensus(rng, /*drained=*/true);
  RemedySource source;
  source.schema = &census.schema;
  source.leaf_counts = &census.counts;
  const RemedyParams params =
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 1);
  auto streaming = RemedyBackend::Create(RemedyBackendKind::kStreaming);
  StatusOr<RemedyDeltaPlan> plan = streaming->PlanDeltas(source, params);
  RemedyStats stats;
  StatusOr<Dataset> rows = streaming->Remedy(source, params, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(rows.ok()) << rows.status();
  ExpectIdenticalRows(
      rows.value(),
      MaterializeLeafCounts(census.schema,
                            Applied(census.counts, plan.value().deltas))
          .value());
  ExpectSameStats(stats, plan.value().stats, "row form");
}

TEST(RemedyBackendTest, StreamingPlanCrossesTheRemedyFaultPoint) {
  Rng rng(9);
  const Census census = SmallCensus(rng);
  RemedySource source;
  source.schema = &census.schema;
  source.leaf_counts = &census.counts;
  FaultInjector injector;
  injector.FailAlways("remedy/apply", StatusCode::kResourceExhausted);
  StatusOr<RemedyDeltaPlan> plan =
      RemedyBackend::Create(RemedyBackendKind::kStreaming)
          ->PlanDeltas(source, RemedyParams());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
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
  RemedySource source;
  source.schema = &schema;
  source.leaf_counts = &counts;
  StatusOr<RemedyDeltaPlan> plan =
      RemedyBackend::Create(RemedyBackendKind::kStreaming)
          ->PlanDeltas(source, params);
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

TEST(RemedyBackendEq1Test, LeafRegionsEndAtTheirEq1Counts) {
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

TEST(RemedyBackendEq1Test, UnreachableRegionsCountAsSkipped) {
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

TEST(RemedyBackendInt64Test, BorderlinePlansOverBillionsOfInstances) {
  // 3 * 10^9 instances in one leaf: past Dataset's int row index, so no
  // materialization exists. The neighborhood is empty (all-positive by
  // Def. 3), so the whole negative class has to go. In the second census
  // preferential sampling duplicates its one positive 3 * 10^9 times.
  const DataSchema schema = OneAttributeSchema();
  for (const RegionCounts& leaf :
       {RegionCounts{2'000'000'000, 1'000'000'000},
        RegionCounts{1, 3'000'000'000}}) {
    const NodeTable counts({{0, leaf}});
    RemedySource source;
    source.schema = &schema;
    source.leaf_counts = &counts;
    for (RemedyTechnique technique : {RemedyTechnique::kPreferentialSampling,
                                      RemedyTechnique::kMassaging}) {
      const std::string context = TechniqueName(technique) + " with " +
                                  std::to_string(leaf.positives) +
                                  " positives";
      StatusOr<RemedyDeltaPlan> plan =
          RemedyBackend::Create(RemedyBackendKind::kStreaming)
              ->PlanDeltas(source, BiasedParams(technique, 23, 1));
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

TEST(RemedyBackendInt64Test, RandomPicksPastIntRangeAreOutOfRange) {
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
    RemedySource source;
    source.schema = &schema;
    source.leaf_counts = counts;
    StatusOr<RemedyDeltaPlan> plan =
        RemedyBackend::Create(RemedyBackendKind::kStreaming)
            ->PlanDeltas(source, BiasedParams(technique, 23, 1));
    ASSERT_FALSE(plan.ok()) << TechniqueName(technique);
    EXPECT_EQ(plan.status().code(), StatusCode::kOutOfRange)
        << plan.status();
  }
}

// The two batch backends are row-faithful twins: same rows out, not just
// the same census (the PR 2 identity, restated through the seam).
TEST(RemedyBackendTest, BatchBackendsAreByteIdenticalOnRows) {
  Dataset data = GridDataset({{{80, 10}, {12, 40}},
                              {{30, 30}, {5, 60}},
                              {{90, 9}, {20, 20}}});
  RemedySource source;
  source.dataset = &data;
  const RemedyParams params =
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 2);
  StatusOr<Dataset> a =
      RemedyBackend::Create(RemedyBackendKind::kRebuild)
          ->Remedy(source, params);
  StatusOr<Dataset> b =
      RemedyBackend::Create(RemedyBackendKind::kIncremental)
          ->Remedy(source, params);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectIdenticalRows(a.value(), b.value());
}

}  // namespace
}  // namespace remedy
