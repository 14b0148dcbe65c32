#include "fairness/divergence.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/hierarchy.h"
#include "fairness/significance.h"

namespace remedy {
namespace {

struct GroupTally {
  int64_t size = 0;      // all rows in the subgroup
  int64_t relevant = 0;  // rows in the statistic's conditioning class
  int64_t errors = 0;    // misclassified relevant rows

  GroupTally& operator+=(const GroupTally& other) {
    size += other.size;
    relevant += other.relevant;
    errors += other.errors;
    return *this;
  }
};

// Calls emit(key, sum) once per distinct key_of(i), i < count, in ascending
// key order, with `sum` the total of tally_of(i) over the items of that key.
// Every item has size >= 1. The sums are integers, so how items are grouped
// cannot change them: dense buckets when the key space is at most 8x the
// item count, else a sort by key.
template <typename KeyOf, typename TallyOf, typename Emit>
void SumByKey(size_t count, uint64_t key_space, KeyOf key_of,
              TallyOf tally_of, Emit emit) {
  if (key_space <= 8 * static_cast<uint64_t>(count)) {
    std::vector<GroupTally> buckets(key_space);
    for (size_t i = 0; i < count; ++i) buckets[key_of(i)] += tally_of(i);
    for (uint64_t key = 0; key < key_space; ++key) {
      if (buckets[key].size > 0) emit(key, buckets[key]);
    }
    return;
  }
  std::vector<std::pair<uint64_t, size_t>> items(count);
  for (size_t i = 0; i < count; ++i) items[i] = {key_of(i), i};
  std::sort(items.begin(), items.end());
  for (size_t begin = 0; begin < count;) {
    GroupTally sum;
    size_t end = begin;
    for (; end < count && items[end].first == items[begin].first; ++end) {
      sum += tally_of(items[end].second);
    }
    emit(items[begin].first, sum);
    begin = end;
  }
}

}  // namespace

std::string StatisticName(Statistic statistic) {
  switch (statistic) {
    case Statistic::kFpr:
      return "FPR";
    case Statistic::kFnr:
      return "FNR";
    case Statistic::kStatisticalParity:
      return "SP";
    case Statistic::kErrorRate:
      return "ER";
  }
  REMEDY_CHECK(false) << "unknown statistic";
  return "";
}

namespace {

// Shared core of the dataset and view forms. `view` == nullptr analyzes
// every row of `test` in order; otherwise position i stands for test row
// (*view)[i]. `predictions` is always indexed by original test row.
SubgroupAnalysis AnalyzeImpl(const Dataset& test,
                             const std::vector<int>* view,
                             const std::vector<int>& predictions,
                             Statistic statistic, double min_support,
                             int64_t min_size) {
  REMEDY_CHECK(static_cast<int>(predictions.size()) == test.NumRows());
  REMEDY_CHECK(test.schema().NumProtected() > 0);

  SubgroupAnalysis analysis;
  analysis.statistic = statistic;

  // Per-position relevance/error indicators for the chosen statistic.
  const int n = view ? static_cast<int>(view->size()) : test.NumRows();
  std::vector<char> relevant(n), error(n);
  int64_t total_relevant = 0, total_errors = 0;
  for (int i = 0; i < n; ++i) {
    const int r = view ? (*view)[i] : i;
    bool in_class = false;
    bool event = false;
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

  // One pass tallies every leaf (all protected attributes deterministic);
  // each subgroup's tally is then the exact integer sum of its leaves'.
  Hierarchy hierarchy(test);
  const RegionCounter& counter = hierarchy.counter();
  const uint32_t leaf_mask = hierarchy.LeafMask();
  const int num_protected = counter.NumProtected();
  std::vector<GroupTally> leaves;
  std::vector<int> digits;  // per leaf, the KeyDigits of its key
  SumByKey(
      n, counter.KeySpace(leaf_mask),
      [&](size_t i) {
        return counter.RowKey(test, view ? (*view)[i] : static_cast<int>(i),
                              leaf_mask);
      },
      [&](size_t i) { return GroupTally{1, relevant[i], error[i]}; },
      [&](uint64_t key, const GroupTally& tally) {
        leaves.push_back(tally);
        digits.resize(digits.size() + num_protected);
        counter.KeyDigits(key, leaf_mask,
                          digits.data() + digits.size() - num_protected);
      });

  for (uint32_t mask : hierarchy.BottomUpMasks()) {
    SumByKey(
        leaves.size(), counter.KeySpace(mask),
        [&](size_t l) {
          return counter.PackDigits(&digits[l * num_protected], mask);
        },
        [&](size_t l) { return leaves[l]; },
        [&](uint64_t key, const GroupTally& tally) {
          if (tally.size < min_size) return;
          const double support = static_cast<double>(tally.size) / n;
          if (support < min_support) return;
          if (tally.relevant == 0) return;  // statistic undefined for group

          SubgroupReport report;
          report.pattern = counter.PatternFor(key, mask);
          report.size = tally.size;
          report.support = support;
          report.relevant = tally.relevant;
          report.errors = tally.errors;
          report.statistic =
              static_cast<double>(tally.errors) / tally.relevant;
          report.divergence = std::fabs(report.statistic - analysis.overall);
          report.p_value =
              WelchTTestBernoulli(tally.errors, tally.relevant,
                                  total_errors - tally.errors,
                                  total_relevant - tally.relevant)
                  .p_value;
          analysis.subgroups.push_back(std::move(report));
        });
  }
  return analysis;
}

}  // namespace

SubgroupAnalysis AnalyzeSubgroups(const Dataset& test,
                                  const std::vector<int>& predictions,
                                  Statistic statistic, double min_support,
                                  int64_t min_size) {
  return AnalyzeImpl(test, nullptr, predictions, statistic, min_support,
                     min_size);
}

SubgroupAnalysis AnalyzeSubgroupsView(const Dataset& test,
                                      const std::vector<int>& rows,
                                      const std::vector<int>& predictions,
                                      Statistic statistic, double min_support,
                                      int64_t min_size) {
  for (int row : rows) {
    REMEDY_DCHECK(row >= 0 && row < test.NumRows());
    (void)row;
  }
  return AnalyzeImpl(test, &rows, predictions, statistic, min_support,
                     min_size);
}

std::vector<SubgroupReport> FilterUnfair(const SubgroupAnalysis& analysis,
                                         double discrimination_threshold,
                                         double alpha) {
  std::vector<SubgroupReport> unfair;
  for (const SubgroupReport& report : analysis.subgroups) {
    if (report.divergence > discrimination_threshold &&
        report.p_value < alpha) {
      unfair.push_back(report);
    }
  }
  std::sort(unfair.begin(), unfair.end(),
            [](const SubgroupReport& a, const SubgroupReport& b) {
              if (a.divergence != b.divergence) {
                return a.divergence > b.divergence;
              }
              return a.pattern < b.pattern;
            });
  return unfair;
}

}  // namespace remedy
