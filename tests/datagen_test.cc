#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "core/ibs_identify.h"
#include "data/columnar.h"
#include "data/shard_file.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "datagen/generator.h"
#include "datagen/law_school.h"
#include "datagen/random_spec.h"

namespace remedy {
namespace {

TEST(GeneratorTest, ProducesRequestedRows) {
  SyntheticSpec spec = CompasSpec(500);
  Dataset data = GenerateSynthetic(spec, 1);
  EXPECT_EQ(data.NumRows(), 500);
  EXPECT_EQ(data.NumColumns(), 6);
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  Dataset a = MakeCompas(300, 9);
  Dataset b = MakeCompas(300, 9);
  for (int r = 0; r < a.NumRows(); ++r) {
    EXPECT_EQ(a.Row(r), b.Row(r));
    EXPECT_EQ(a.Label(r), b.Label(r));
  }
  Dataset c = MakeCompas(300, 10);
  int differences = 0;
  for (int r = 0; r < a.NumRows(); ++r) differences += a.Label(r) != c.Label(r);
  EXPECT_GT(differences, 0);
}

TEST(GeneratorTest, LabelLogitAddsTermsAndInjections) {
  SyntheticSpec spec = CompasSpec(100);
  // Afr-Am male with the strongest priors: base + priors>3 + age<25 +
  // juvenile + felony + (Afr-Am male) + (young Afr-Am).
  std::vector<int> values = {0, 0, 0, 2, 0, 1};
  double expected = -1.9 + 1.9 + 0.4 + 0.9 + 0.5 + 1.0 + 0.8;
  EXPECT_NEAR(LabelLogit(spec, values), expected, 1e-12);
  // Older Caucasian female, no priors, misdemeanor, no juvenile record.
  std::vector<int> benign = {2, 1, 1, 0, 1, 0};
  EXPECT_NEAR(LabelLogit(spec, benign), -1.9 - 0.35 - 0.9 - 0.7, 1e-12);
}

// One independent attribute with the given weights; the label is noise.
SyntheticSpec SingleAttributeSpec(std::vector<double> weights, int rows) {
  SyntheticSpec spec;
  spec.name = "single_attribute";
  std::vector<std::string> names;
  for (size_t v = 0; v < weights.size(); ++v) {
    names.push_back("v" + std::to_string(v));
  }
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("a", std::move(names)), std::move(weights)));
  spec.protected_indices = {0};
  spec.num_rows = rows;
  return spec;
}

TEST(GeneratorTest, CategoricalRespectsWeights) {
  const int rows = 30000;
  Dataset data = GenerateSynthetic(SingleAttributeSpec({1.0, 2.0, 1.0}, rows),
                                   5);
  std::vector<int> counts(3, 0);
  for (int r = 0; r < rows; ++r) ++counts[data.Value(r, 0)];
  EXPECT_NEAR(counts[0] / static_cast<double>(rows), 0.25, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(rows), 0.50, 0.02);
}

TEST(GeneratorTest, CategoricalSkipsZeroWeight) {
  Dataset data = GenerateSynthetic(SingleAttributeSpec({0.0, 1.0, 0.0}, 1000),
                                   6);
  for (int r = 0; r < data.NumRows(); ++r) EXPECT_EQ(data.Value(r, 0), 1);
}

TEST(GeneratorTest, ConditionalDependencyShowsInData) {
  Dataset data = MakeCompas(6172, 3);
  // P(priors > 3 | age > 45) should clearly exceed P(priors > 3 | age < 25).
  int old_count = 0, old_high = 0, young_count = 0, young_high = 0;
  for (int r = 0; r < data.NumRows(); ++r) {
    bool high = data.Value(r, 3) == 2;
    if (data.Value(r, 0) == 2) {
      ++old_count;
      old_high += high;
    } else if (data.Value(r, 0) == 0) {
      ++young_count;
      young_high += high;
    }
  }
  ASSERT_GT(old_count, 100);
  ASSERT_GT(young_count, 100);
  EXPECT_GT(static_cast<double>(old_high) / old_count,
            static_cast<double>(young_high) / young_count + 0.1);
}

TEST(CompasTest, MatchesPaperCharacteristics) {
  Dataset data = MakeCompas();
  EXPECT_EQ(data.NumRows(), 6172);
  EXPECT_EQ(data.NumColumns(), 6);
  EXPECT_EQ(data.schema().NumProtected(), 3);
  double base_rate = static_cast<double>(data.PositiveCount()) /
                     data.NumRows();
  EXPECT_NEAR(base_rate, 0.45, 0.1);
}

TEST(CompasTest, PlantsIbsInProtectedSpace) {
  Dataset data = MakeCompas();
  IbsParams params;
  params.imbalance_threshold = 0.3;
  std::vector<BiasedRegion> ibs = IdentifyIbs(data, params).value();
  EXPECT_FALSE(ibs.empty());
  // The canonical Afr-Am male region must surface somewhere in the IBS
  // (as itself or dominated by an injected ancestor).
  int race = 1, sex = 2;  // protected positions: age=0, race=1, sex=2
  // At least one Afr-Am-male region must be skewed toward positives.
  bool found = false;
  for (const BiasedRegion& region : ibs) {
    if (region.pattern.Value(race) == 0 && region.pattern.Value(sex) == 0 &&
        region.ratio > region.neighbor_ratio) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AdultTest, MatchesPaperCharacteristics) {
  Dataset data = MakeAdult();
  EXPECT_EQ(data.NumRows(), 45222);
  EXPECT_EQ(data.NumColumns(), 13);
  EXPECT_EQ(data.schema().NumProtected(), 6);
  double base_rate = static_cast<double>(data.PositiveCount()) /
                     data.NumRows();
  EXPECT_NEAR(base_rate, 0.25, 0.08);
}

TEST(AdultTest, ScalabilityProtectedWidensTo8) {
  Dataset data = MakeAdult(2000);
  std::vector<std::string> names = AdultScalabilityProtected(8);
  EXPECT_EQ(names.size(), 8u);
  data.SetProtected(names);
  EXPECT_EQ(data.schema().NumProtected(), 8);
  EXPECT_TRUE(data.schema().IsProtected(
      data.schema().AttributeIndex("education")));
  // Narrowing works too.
  data.SetProtected(AdultScalabilityProtected(3));
  EXPECT_EQ(data.schema().NumProtected(), 3);
}

TEST(LawSchoolTest, MatchesPaperCharacteristics) {
  Dataset data = MakeLawSchool();
  EXPECT_EQ(data.NumRows(), 4590);
  EXPECT_EQ(data.NumColumns(), 12);
  EXPECT_EQ(data.schema().NumProtected(), 4);
  // The paper balanced the labels ~1:1.
  double base_rate = static_cast<double>(data.PositiveCount()) /
                     data.NumRows();
  EXPECT_NEAR(base_rate, 0.5, 0.08);
}

TEST(SpecValidationTest, AllSpecsValidate) {
  AdultSpec().Validate();
  CompasSpec().Validate();
  LawSchoolSpec().Validate();
}

TEST(SpecValidationTest, SchemasExposeProtectedSets) {
  DataSchema adult = AdultSpec().MakeSchema();
  EXPECT_EQ(adult.NumProtected(), 6);
  EXPECT_TRUE(adult.IsProtected(adult.AttributeIndex("gender")));
  EXPECT_FALSE(adult.IsProtected(adult.AttributeIndex("education")));
}

TEST(AllDatasetsTest, EveryProtectedAttributeHasFullSupport) {
  // Every protected value occurs: otherwise lattice nodes would silently
  // shrink and paper comparisons would be apples-to-oranges.
  for (Dataset data : {MakeCompas(), MakeAdult(20000), MakeLawSchool()}) {
    for (int index : data.schema().protected_indices()) {
      std::vector<int> seen(data.schema().attribute(index).Cardinality(), 0);
      for (int r = 0; r < data.NumRows(); ++r) ++seen[data.Value(r, index)];
      for (size_t v = 0; v < seen.size(); ++v) {
        EXPECT_GT(seen[v], 0)
            << data.schema().attribute(index).name() << "=" << v;
      }
    }
  }
}

// --- Entry-point identity: every generator entry point emits the same
// rows, pinned to digests of the reference sampler (one categorical scan
// per attribute, then the label draw).

// FNV-1a over each row's attribute codes (two little-endian bytes each)
// followed by its label byte.
class RowDigest {
 public:
  void AddRow(const std::vector<int>& codes, int label) {
    for (int code : codes) {
      const uint8_t bytes[2] = {static_cast<uint8_t>(code),
                                static_cast<uint8_t>(code >> 8)};
      digest_ = Fnv1a64(bytes, 2, digest_);
    }
    const uint8_t label_byte = static_cast<uint8_t>(label);
    digest_ = Fnv1a64(&label_byte, 1, digest_);
  }
  void AddDataset(const Dataset& data) {
    std::vector<int> codes(data.NumColumns());
    for (int r = 0; r < data.NumRows(); ++r) {
      for (int c = 0; c < data.NumColumns(); ++c) codes[c] = data.Value(r, c);
      AddRow(codes, data.Label(r));
    }
  }
  // The store keeps only protected columns, so the caller generates it
  // from a spec whose protected set is every attribute, in order.
  void AddStore(const ColumnarShardStore& store) {
    std::vector<int> codes(store.NumProtected());
    for (int s = 0; s < store.NumShards(); ++s) {
      const ColumnarShardStore::ShardView view = store.View(s);
      for (int64_t r = 0; r < view.num_rows; ++r) {
        for (size_t p = 0; p < codes.size(); ++p) {
          const ColumnarShardStore::ShardView::Column& column =
              view.columns[p];
          codes[p] = column.narrow != nullptr ? column.narrow[r]
                                              : column.wide[r];
        }
        AddRow(codes, view.labels[r]);
      }
    }
  }
  uint64_t value() const { return digest_; }

 private:
  uint64_t digest_ = 0xcbf29ce484222325ull;
};

std::string DatagenTempPath(const std::string& name) {
  return ::testing::TempDir() + "datagen_" + name + "_" +
         std::to_string(::getpid());
}

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return Fnv1a64(reinterpret_cast<const uint8_t*>(bytes.data()),
                 bytes.size());
}

// The perfbench serving lattice's shape: eight 4-valued protected
// attributes with 4:3:2:1 marginals, plus one feature.
SyntheticSpec NarrowLikeSpec(int rows) {
  SyntheticSpec spec;
  spec.name = "narrow_like";
  for (int i = 0; i < 8; ++i) {
    const std::string name = "x" + std::to_string(i);
    spec.attributes.push_back(IndependentAttribute(
        AttributeSchema(name, {name + "_0", name + "_1", name + "_2",
                               name + "_3"}),
        {4.0, 3.0, 2.0, 1.0}));
    spec.protected_indices.push_back(i);
  }
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("f", {"f0", "f1"}), {1.0, 1.0}));
  spec.num_rows = rows;
  spec.base_logit = -0.4;
  spec.label_terms = {{0, 0, 0.8}, {1, 3, -0.6}, {2, 1, 0.4}};
  spec.injections = {{{0, 1, -1, -1, -1, -1, -1, -1, -1}, 1.2},
                     {{-1, -1, 2, 3, -1, -1, -1, -1, -1}, -1.0}};
  return spec;
}

// Zero weights in the marginal and in the conditional rows (a parent value
// that is never drawn keeps its own row), and value names that need CSV
// quoting.
SyntheticSpec ZeroWeightConditionalSpec(int rows) {
  SyntheticSpec spec;
  spec.name = "zero_weight_conditional";
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("g", {"g0", "g1", "g2"}), {2.0, 0.0, 1.0}));
  spec.attributes.push_back(ConditionalAttribute(
      AttributeSchema("h", {"h0", "h1", "h2", "h3"}), {1.0, 1.0, 1.0, 1.0},
      /*parent=*/0,
      {{0.0, 3.0, 0.0, 1.0}, {1.0, 1.0, 1.0, 1.0}, {0.5, 0.0, 0.25, 0.0}}));
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("note", {"plain", "with,comma", "say \"hi\""}),
      {1.0, 2.0, 1.0}));
  spec.protected_indices = {0, 1};
  spec.num_rows = rows;
  spec.base_logit = 0.2;
  spec.label_terms = {{1, 3, -0.7}, {2, 1, 0.5}};
  spec.injections = {{{2, 1, -1}, 1.1}, {{-1, 3, 2}, -0.8}};
  return spec;
}

struct PinnedSpec {
  SyntheticSpec spec;
  uint64_t seed;
  uint64_t rows_digest;  // RowDigest of GenerateSynthetic(spec, seed)
  uint64_t csv_digest;   // FNV-1a of its CSV bytes
};

std::vector<PinnedSpec> PinnedSpecs() {
  std::vector<PinnedSpec> specs = {
      {AdultSpec(20000), 202, 0x5c8da7036799034aull, 0xe4412ca5fded1fc0ull},
      {CompasSpec(), 17, 0xacd6c88e677834dcull, 0x78426a944cf2b7d5ull},
      {LawSchoolSpec(), 23, 0xc1304f75eb201ac5ull, 0x49f4082c97c7d458ull},
      {NarrowLikeSpec(20000), 3, 0x2abd4b55565d056cull, 0x418a6fca2de75eeaull},
      {ZeroWeightConditionalSpec(5000), 29, 0x48091142822d5715ull,
       0xf2ec79da28faac22ull},
  };
  const uint64_t random_digests[3][2] = {
      {0x015d025cb38bcdc2ull, 0x0de9131446d13c5eull},
      {0x6b5d4e223090dd83ull, 0xbe055e74cef76dabull},
      {0xb9f6bf218c0017a8ull, 0x1cebd153fa31820aull}};
  for (int draw = 0; draw < 3; ++draw) {
    Rng rng(300 + draw);
    RandomSpecOptions options;
    options.max_attributes = 8;
    options.max_cardinality = 7;
    options.num_rows = 5000;
    SyntheticSpec spec = RandomSpec(rng, options);
    spec.name = "random_" + std::to_string(draw);
    specs.push_back({std::move(spec), 41u + draw,
                     random_digests[draw][0], random_digests[draw][1]});
  }
  return specs;
}

TEST(GeneratorIdentityTest, EveryEntryPointEmitsThePinnedRows) {
  for (const PinnedSpec& pinned : PinnedSpecs()) {
    const SyntheticSpec& spec = pinned.spec;
    SCOPED_TRACE(spec.name);

    RowDigest whole;
    const Dataset data = GenerateSynthetic(spec, pinned.seed);
    whole.AddDataset(data);
    EXPECT_EQ(whole.value(), pinned.rows_digest);

    for (int64_t chunk_rows : {int64_t{1}, int64_t{7}, int64_t{65536}}) {
      RowDigest chunked;
      GenerateSyntheticChunks(
          spec, pinned.seed, chunk_rows,
          [&chunked](const Dataset& chunk) { chunked.AddDataset(chunk); });
      EXPECT_EQ(chunked.value(), pinned.rows_digest)
          << "chunk_rows " << chunk_rows;
    }

    SyntheticSpec all_protected = spec;
    all_protected.protected_indices.clear();
    for (int i = 0; i < static_cast<int>(spec.attributes.size()); ++i) {
      all_protected.protected_indices.push_back(i);
    }
    for (int64_t shard_rows :
         {int64_t{1000}, ColumnarShardStore::kDefaultShardRows}) {
      RowDigest stored;
      stored.AddStore(
          GenerateSyntheticStore(all_protected, pinned.seed, shard_rows));
      EXPECT_EQ(stored.value(), pinned.rows_digest)
          << "store shard_rows " << shard_rows;

      const std::string dir = DatagenTempPath("spill");
      RowDigest spilled;
      spilled.AddStore(GenerateSyntheticSpilledStore(all_protected,
                                                     pinned.seed, dir,
                                                     shard_rows)
                           .value());
      EXPECT_EQ(spilled.value(), pinned.rows_digest)
          << "spilled store shard_rows " << shard_rows;
      std::filesystem::remove_all(dir);
    }

    const std::string streamed = DatagenTempPath("streamed.csv");
    const std::string written = DatagenTempPath("written.csv");
    ASSERT_TRUE(GenerateSyntheticCsvFile(spec, pinned.seed, streamed).ok());
    ASSERT_TRUE(WriteCsvFile(written, data.ToCsv()).ok());
    EXPECT_EQ(FileDigest(streamed), pinned.csv_digest);
    EXPECT_EQ(FileDigest(written), pinned.csv_digest);
    std::remove(streamed.c_str());
    std::remove(written.c_str());
  }
}

}  // namespace
}  // namespace remedy
