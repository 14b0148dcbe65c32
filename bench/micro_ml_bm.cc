// Google-benchmark micro benchmarks for the model-training engine: the
// CSV-to-Dataset build, the EncodedMatrix cache, the deterministic parallel trainers (random forest
// bagging, blocked logistic-regression gradients, batch-accumulated neural
// network), the subgroup analysis behind the fairness index, forest
// prediction, and the bootstrap replicate loop. These quantify the constant
// factors behind the tradeoff benches' evaluation fan-out.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "data/encoding.h"
#include "data/loader.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "fairness/bootstrap.h"
#include "fairness/divergence.h"
#include "ml/logistic_regression.h"
#include "ml/neural_network.h"
#include "ml/random_forest.h"

namespace remedy {
namespace {

const Dataset& CompasData() {
  static const Dataset* data = new Dataset(MakeCompas(2000));
  return *data;
}

const EncodedMatrix& CompasEncoded() {
  static const EncodedMatrix* encoded = new EncodedMatrix(CompasData());
  return *encoded;
}

// Adult schema, 60k rows, 6 protected attributes: the size of the
// benchmark pipeline's test split.
const Dataset& AdultData() {
  static const Dataset* data = new Dataset(MakeAdult(60000, 5));
  return *data;
}

// A deliberately biased predictor so the subgroup analysis has signal.
std::vector<int> BiasedPredictions(const Dataset& data) {
  std::vector<int> predictions(data.NumRows());
  for (int r = 0; r < data.NumRows(); ++r) {
    predictions[r] = data.Value(r, 0) == 0 ? 1 : data.Label(r);
  }
  return predictions;
}

// 200k Adult rows as a parsed CSV table: the benchmark pipeline's input.
const CsvTable& AdultCsvTable() {
  static const CsvTable* table = new CsvTable(MakeAdult(200000, 5).ToCsv());
  return *table;
}

void BM_BuildDataset(benchmark::State& state) {
  const CsvTable& table = AdultCsvTable();
  LoaderOptions options;
  options.label_column = table.header.back();
  for (auto _ : state) {
    StatusOr<Dataset> built = BuildDataset(table, options);
    REMEDY_CHECK(built.ok()) << built.status().ToString();
    benchmark::DoNotOptimize(built.value().NumRows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.rows.size()));
}
BENCHMARK(BM_BuildDataset)->Unit(benchmark::kMillisecond);

void BM_EncodedMatrixBuild(benchmark::State& state) {
  const Dataset& data = CompasData();
  for (auto _ : state) {
    EncodedMatrix encoded(data);
    benchmark::DoNotOptimize(encoded.ActiveRow(0));
  }
  state.SetItemsProcessed(state.iterations() * CompasData().NumRows());
}
BENCHMARK(BM_EncodedMatrixBuild);

void BM_RandomForestFit(benchmark::State& state) {
  RandomForestParams params;
  params.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RandomForest forest(params);
    forest.Fit(CompasData());
    benchmark::DoNotOptimize(forest.NumTrees());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(1)->Arg(0);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset& data = AdultData();
  static const RandomForest* forest = [] {
    auto* model = new RandomForest();
    model->Fit(AdultData());
    return model;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest->PredictAll(data));
  }
  state.SetItemsProcessed(state.iterations() * data.NumRows());
}
BENCHMARK(BM_RandomForestPredict)->Unit(benchmark::kMillisecond);

void BM_LogisticRegressionFit(benchmark::State& state) {
  LogisticRegressionParams params;
  params.epochs = 50;
  params.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LogisticRegression model(params);
    model.FitEncoded(CompasEncoded());
    benchmark::DoNotOptimize(model.intercept());
  }
}
BENCHMARK(BM_LogisticRegressionFit)->Arg(1)->Arg(0);

void BM_NeuralNetworkFit(benchmark::State& state) {
  NeuralNetworkParams params;
  params.epochs = 5;
  params.batch_size = 256;  // several 64-row sub-blocks per batch
  params.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    NeuralNetwork model(params);
    model.FitEncoded(CompasEncoded());
    benchmark::DoNotOptimize(model.PredictProba(CompasData(), 0));
  }
}
BENCHMARK(BM_NeuralNetworkFit)->Arg(1)->Arg(0);

void BM_AnalyzeSubgroups(benchmark::State& state) {
  const Dataset& data = AdultData();
  const std::vector<int> predictions = BiasedPredictions(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AnalyzeSubgroups(data, predictions, Statistic::kFpr));
  }
  state.SetItemsProcessed(state.iterations() * data.NumRows());
}
BENCHMARK(BM_AnalyzeSubgroups)->Unit(benchmark::kMillisecond);

void BM_BootstrapFairnessIndex(benchmark::State& state) {
  const Dataset& data = CompasData();
  const std::vector<int> predictions = BiasedPredictions(data);
  BootstrapOptions options;
  options.replicates = 50;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BootstrapFairnessIndex(data, predictions, Statistic::kFpr, options));
  }
  state.SetItemsProcessed(state.iterations() * options.replicates);
}
BENCHMARK(BM_BootstrapFairnessIndex)->Arg(1)->Arg(0);

}  // namespace
}  // namespace remedy

// Custom main: peel off our --metrics-json flag before google-benchmark
// parses the command line (it rejects flags it does not know), run the
// suite, then snapshot the pipeline metrics the benchmarks incremented.
int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-json" && i + 1 < argc) {
      metrics_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty()) {
    remedy::Status written = remedy::WriteMetricsJsonFile(metrics_path);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics snapshot failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("pipeline metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
