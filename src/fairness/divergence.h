#ifndef REMEDY_FAIRNESS_DIVERGENCE_H_
#define REMEDY_FAIRNESS_DIVERGENCE_H_

#include <string>
#include <vector>

#include "core/pattern.h"
#include "data/dataset.h"

namespace remedy {

// Model statistics gamma supported by the subgroup-fairness notions.
//
// The paper's evaluation uses FPR (equalized-opportunity style) and FNR
// (equalized-odds style); Sec. VI additionally discusses statistical parity
// (P[h(x)=1], which ignores the true labels) and accuracy-based measures
// such as the error rate — the latter are sensitive to train/test
// distribution differences after a remedy, which is exactly the caveat the
// paper raises and the ablation bench demonstrates.
enum class Statistic {
  kFpr,               // Pr[h(x)=1 | y=0]
  kFnr,               // Pr[h(x)=0 | y=1]
  kStatisticalParity, // Pr[h(x)=1]
  kErrorRate,         // Pr[h(x) != y]
};

std::string StatisticName(Statistic statistic);

// One subgroup's behaviour under a statistic, in the sense of DivExplorer:
// gamma_g, its divergence from gamma_D, and the significance of that
// divergence (Welch t-test of the error indicator, subgroup vs complement).
struct SubgroupReport {
  Pattern pattern;
  int64_t size = 0;       // |g| in the evaluation set
  double support = 0.0;   // |g| / |D|
  int64_t relevant = 0;   // class-conditional population (y=0 for FPR)
  int64_t errors = 0;     // false positives (FPR) or false negatives (FNR)
  double statistic = 0.0;   // gamma_g
  double divergence = 0.0;  // |gamma_g - gamma_D|
  double p_value = 1.0;
};

struct SubgroupAnalysis {
  Statistic statistic = Statistic::kFpr;
  double overall = 0.0;  // gamma_D
  std::vector<SubgroupReport> subgroups;
};

// Enumerates every intersectional subgroup over the protected attributes
// (all hierarchy levels, leaf to top) with at least `min_size` instances and
// support at least `min_support`, and reports its statistic, divergence and
// significance. This is the library's DivExplorer-equivalent; the paper's
// attribute domains are small enough for exhaustive enumeration to be exact.
// One pass over the rows tallies each leaf (every protected attribute
// fixed); every subgroup's counts are the exact integer sums of its
// leaves'. Reported per node (leaf to top), in ascending region-key order.
SubgroupAnalysis AnalyzeSubgroups(const Dataset& test,
                                  const std::vector<int>& predictions,
                                  Statistic statistic,
                                  double min_support = 0.0,
                                  int64_t min_size = 1);

// View form: analyzes the row multiset `rows` (indices into `test`, repeats
// allowed — e.g. a bootstrap resample) without materializing a resampled
// Dataset. `predictions` stays indexed by original test row. Bitwise
// identical to AnalyzeSubgroups(test.Select(rows), predictions gathered
// through `rows`, ...): every tally is an integer count, so the evaluation
// order cannot perturb the statistics.
SubgroupAnalysis AnalyzeSubgroupsView(const Dataset& test,
                                      const std::vector<int>& rows,
                                      const std::vector<int>& predictions,
                                      Statistic statistic,
                                      double min_support = 0.0,
                                      int64_t min_size = 1);

// Subgroups that violate tau_d-fairness (Def. 1) at significance `alpha`,
// sorted by descending divergence.
std::vector<SubgroupReport> FilterUnfair(const SubgroupAnalysis& analysis,
                                         double discrimination_threshold,
                                         double alpha = 0.05);

}  // namespace remedy

#endif  // REMEDY_FAIRNESS_DIVERGENCE_H_
