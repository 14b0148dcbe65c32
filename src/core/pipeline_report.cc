#include "core/pipeline_report.h"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/table_printer.h"
#include "common/trace.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/imbalance.h"

namespace remedy {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out << std::setprecision(6) << value;
  return out.str();
}

// Display form of an imbalance score; the all-positive sentinel reads as
// "inf" rather than its internal -1 encoding.
std::string ScoreString(double score) {
  if (score == kAllPositiveRatio) return "inf";
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << score;
  return out.str();
}

// Distance of a score from its target, treating the all-positive sentinel
// as larger than any finite score.
double ScoreGap(double score, double target) {
  const bool score_inf = score == kAllPositiveRatio;
  const bool target_inf = target == kAllPositiveRatio;
  if (score_inf && target_inf) return 0.0;
  if (score_inf || target_inf) return std::numeric_limits<double>::infinity();
  return std::abs(score - target);
}

}  // namespace

std::string PipelineReport::ToJson() const {
  std::ostringstream out;
  out << "{\"technique\": \"" << JsonEscape(technique) << "\", \"engine\": \""
      << JsonEscape(engine) << "\", \"seed\": " << seed
      << ", \"rows_before\": " << rows_before
      << ", \"rows_after\": " << rows_after
      << ", \"regions_identified\": " << regions.size()
      << ", \"regions_processed\": " << stats.regions_processed
      << ", \"regions_skipped\": " << stats.regions_skipped
      << ", \"regions_improved\": " << regions_improved
      << ", \"residual_ibs_size\": " << residual_ibs_size
      << ", \"instances_added\": " << stats.instances_added
      << ", \"instances_removed\": " << stats.instances_removed
      << ", \"labels_flipped\": " << stats.labels_flipped
      << ", \"add_budget_exhausted\": "
      << (stats.add_budget_exhausted ? "true" : "false") << ", \"regions\": [";
  for (size_t i = 0; i < regions.size(); ++i) {
    const RegionReportEntry& r = regions[i];
    if (i > 0) out << ", ";
    out << "{\"region\": \"" << JsonEscape(r.region)
        << "\", \"node_mask\": " << r.node_mask
        << ", \"positives_before\": " << r.positives_before
        << ", \"negatives_before\": " << r.negatives_before
        << ", \"score_before\": " << JsonDouble(r.score_before)
        << ", \"neighbor_score\": " << JsonDouble(r.neighbor_score)
        << ", \"planned_delta_positives\": " << r.planned_delta_positives
        << ", \"planned_delta_negatives\": " << r.planned_delta_negatives
        << ", \"planned_flips\": " << r.planned_flips
        << ", \"reachable\": " << (r.reachable ? "true" : "false")
        << ", \"positives_after\": " << r.positives_after
        << ", \"negatives_after\": " << r.negatives_after
        << ", \"score_after\": " << JsonDouble(r.score_after)
        << ", \"improved\": " << (r.improved ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

void PrintPipelineReport(const PipelineReport& report, std::ostream& out) {
  out << "Remedy pipeline report\n"
      << "  technique: " << report.technique << " (" << report.engine
      << " engine, seed " << report.seed << ")\n"
      << "  rows: " << report.rows_before << " -> " << report.rows_after
      << " (+" << report.stats.instances_added << " / -"
      << report.stats.instances_removed << ", "
      << report.stats.labels_flipped << " labels flipped)\n"
      << "  regions: " << report.regions.size() << " identified, "
      << report.stats.regions_processed << " remedied, "
      << report.stats.regions_skipped << " skipped, " << report.regions_improved
      << " improved\n"
      << "  residual IBS after remedy: " << report.residual_ibs_size << "\n";
  if (report.stats.add_budget_exhausted) {
    out << "  NOTE: the oversampling row budget was exhausted; some regions "
           "received a truncated remedy\n";
  }
  if (report.regions.empty()) return;
  TablePrinter table({"region", "before (+/-)", "score", "target", "after (+/-)",
                      "score'", "improved"});
  for (const RegionReportEntry& r : report.regions) {
    table.AddRow({r.region,
                  std::to_string(r.positives_before) + "/" +
                      std::to_string(r.negatives_before),
                  ScoreString(r.score_before), ScoreString(r.neighbor_score),
                  std::to_string(r.positives_after) + "/" +
                      std::to_string(r.negatives_after),
                  ScoreString(r.score_after),
                  r.reachable ? (r.improved ? "yes" : "no") : "unreachable"});
  }
  table.Print(out);
}

StatusOr<PipelineReport> RunAuditedRemedy(const Dataset& train,
                                          const RemedyParams& params,
                                          Dataset* remedied_out) {
  REMEDY_TRACE_SPAN("report/audited_remedy");
  PipelineReport report;
  report.technique = TechniqueName(params.technique);
  report.engine = params.engine == RemedyEngine::kIncremental ? "incremental"
                                                              : "rebuild";
  report.seed = params.seed;
  report.rows_before = train.NumRows();

  // The identification the remedy's first pass will act on, with the
  // per-region plan it implies.
  ASSIGN_OR_RETURN(std::vector<PlannedAction> plan, PlanRemedy(train, params));

  ASSIGN_OR_RETURN(Dataset remedied,
                   RemedyDataset(train, params, &report.stats));
  report.rows_after = remedied.NumRows();

  // Exact recount of every identified region against the remedied data.
  // (The remedy re-identifies per node as it sweeps, so committed changes
  // can differ from the plan; the recount reports what actually happened.)
  Hierarchy after(remedied);
  report.regions.reserve(plan.size());
  for (const PlannedAction& action : plan) {
    const Pattern& pattern = action.region.pattern;
    const uint32_t mask = pattern.DeterministicMask();
    RegionReportEntry entry;
    entry.region = pattern.ToString(train.schema());
    entry.node_mask = mask;
    entry.positives_before = action.region.counts.positives;
    entry.negatives_before = action.region.counts.negatives;
    entry.score_before = action.region.ratio;
    entry.neighbor_score = action.region.neighbor_ratio;
    entry.planned_delta_positives = action.update.delta_positives;
    entry.planned_delta_negatives = action.update.delta_negatives;
    entry.planned_flips = action.update.flips;
    entry.reachable = action.update.reachable;

    const NodeTable& node = after.NodeCounts(mask);
    auto it = node.find(action.region.key);
    if (it != node.end()) {
      entry.positives_after = it->second.positives;
      entry.negatives_after = it->second.negatives;
    }
    entry.score_after =
        ImbalanceScore(entry.positives_after, entry.negatives_after);
    entry.improved = ScoreGap(entry.score_after, entry.neighbor_score) <
                     ScoreGap(entry.score_before, entry.neighbor_score);
    if (entry.improved) ++report.regions_improved;
    report.regions.push_back(std::move(entry));
  }

  ASSIGN_OR_RETURN(std::vector<BiasedRegion> residual,
                   IdentifyIbs(remedied, params.ibs));
  report.residual_ibs_size = static_cast<int64_t>(residual.size());

  if (remedied_out != nullptr) *remedied_out = std::move(remedied);
  return report;
}

}  // namespace remedy
