#include "core/imbalance.h"

#include <algorithm>

#include "common/check.h"

namespace remedy {
namespace {

// Slack on the squared distance budget, absorbing rounding in the
// per-attribute sums.
constexpr double kSquaredSlack = 1e-9;

// The squared-distance budget of threshold T: a region is within T of
// another when their squared distance is at most this. Every enumeration
// and both fast-path predicates read this one budget, so the strategies
// cannot disagree about which regions are neighbors.
double SquaredBudget(double distance_threshold) {
  return distance_threshold * distance_threshold + kSquaredSlack;
}

}  // namespace

double ImbalanceScore(int64_t positives, int64_t negatives) {
  if (negatives == 0) return kAllPositiveRatio;
  return static_cast<double>(positives) / static_cast<double>(negatives);
}

double ImbalanceScore(const RegionCounts& counts) {
  return ImbalanceScore(counts.positives, counts.negatives);
}

NeighborhoodCalculator::NeighborhoodCalculator(Hierarchy& hierarchy,
                                               double distance_threshold)
    : hierarchy_(hierarchy), distance_threshold_(distance_threshold) {
  REMEDY_CHECK(distance_threshold_ > 0.0);
  const DataSchema& schema = hierarchy_.schema();
  for (int i = 0; i < schema.NumProtected(); ++i) {
    const AttributeSchema& attr =
        schema.attribute(schema.protected_indices()[i]);
    const double max_d = attr.ordinal() ? attr.Cardinality() - 1 : 1.0;
    max_squared_distance_.push_back(max_d * max_d);
    ordinal_.push_back(attr.ordinal());
    for (int a = 0; a < attr.Cardinality(); ++a) {
      for (int b = 0; b < attr.Cardinality(); ++b) {
        const double d = attr.Distance(a, b);
        if (a != b) min_squared_step_ = std::min(min_squared_step_, d * d);
      }
    }
  }
}

RegionCounts NeighborhoodCalculator::NaiveNeighborCounts(
    const Pattern& pattern) {
  std::vector<int> det_positions;
  for (int i = 0; i < pattern.Arity(); ++i) {
    if (pattern.IsDeterministic(i)) det_positions.push_back(i);
  }
  REMEDY_CHECK(!det_positions.empty())
      << "the level-0 region has no neighboring region";
  RegionCounts total;
  Pattern current = pattern;
  AccumulateNeighbors(pattern, current, det_positions, 0, 0.0, &total);
  return total;
}

void NeighborhoodCalculator::AccumulateNeighbors(
    const Pattern& original, Pattern& current,
    const std::vector<int>& det_positions, size_t next_position,
    double squared_distance, RegionCounts* total) {
  if (next_position == det_positions.size()) {
    if (squared_distance <= 0.0) return;  // the region itself is not in r_n
    const auto& node = hierarchy_.NodeCounts(original.DeterministicMask());
    auto it =
        node.find(hierarchy_.counter().KeyFor(current,
                                              original.DeterministicMask()));
    if (it != node.end()) {
      total->positives += it->second.positives;
      total->negatives += it->second.negatives;
    }
    return;
  }

  const DataSchema& schema = hierarchy_.schema();
  const int position = det_positions[next_position];
  const AttributeSchema& attr =
      schema.attribute(schema.protected_indices()[position]);
  const int original_value = original.Value(position);
  const double budget = SquaredBudget(distance_threshold_);
  for (int value = 0; value < attr.Cardinality(); ++value) {
    double d = attr.Distance(original_value, value);
    double next_squared = squared_distance + d * d;
    if (next_squared > budget) continue;
    current.SetValue(position, value);
    AccumulateNeighbors(original, current, det_positions, next_position + 1,
                        next_squared, total);
  }
  current.SetValue(position, original_value);
}

double NeighborhoodCalculator::SquaredDiameter(uint32_t mask) const {
  double squared_diameter = 0.0;
  for (size_t i = 0; i < max_squared_distance_.size(); ++i) {
    if (mask & (1u << i)) squared_diameter += max_squared_distance_[i];
  }
  return squared_diameter;
}

int64_t NeighborhoodCalculator::FrontierBound(uint32_t mask) {
  if (steps_.empty()) {
    // First use: per position, each squared step within the budget with
    // the most values any one value has at it. Sweeps never get here.
    const DataSchema& schema = hierarchy_.schema();
    const double budget = SquaredBudget(distance_threshold_);
    steps_.resize(static_cast<size_t>(schema.NumProtected()));
    for (int i = 0; i < schema.NumProtected(); ++i) {
      const AttributeSchema& attr =
          schema.attribute(schema.protected_indices()[i]);
      std::vector<std::pair<double, int>>& steps = steps_[i];
      for (int a = 0; a < attr.Cardinality(); ++a) {
        std::vector<std::pair<double, int>> from_a;
        for (int b = 0; b < attr.Cardinality(); ++b) {
          const double d = attr.Distance(a, b);
          if (a == b || d * d > budget) continue;
          auto it = std::find_if(from_a.begin(), from_a.end(),
                                 [&](const auto& s) { return s.first == d * d; });
          if (it == from_a.end()) {
            from_a.emplace_back(d * d, 1);
          } else {
            ++it->second;
          }
        }
        for (const auto& [step, count] : from_a) {
          auto it = std::find_if(steps.begin(), steps.end(),
                                 [&](const auto& s) { return s.first == step; });
          if (it == steps.end()) {
            steps.emplace_back(step, count);
          } else {
            it->second = std::max(it->second, count);
          }
        }
      }
      std::sort(steps.begin(), steps.end());
    }
  }
  // Counted in doubles: a wide T makes the combinations grow fast, and the
  // bound only has to compare against entry counts.
  const double bound = BoundFrom(mask, 0, 0.0);
  return bound >= 0x1p62 ? int64_t{1} << 62 : static_cast<int64_t>(bound);
}

double NeighborhoodCalculator::BoundFrom(uint32_t mask, int position,
                                         double squared_distance) const {
  const int n = static_cast<int>(steps_.size());
  while (position < n && !(mask & (1u << position))) ++position;
  if (position == n) return 1.0;
  const double budget = SquaredBudget(distance_threshold_);
  double total = BoundFrom(mask, position + 1, squared_distance);  // kept
  for (const auto& [step, count] : steps_[position]) {
    if (squared_distance + step > budget) break;
    total += count * BoundFrom(mask, position + 1, squared_distance + step);
  }
  return total;
}

bool NeighborhoodCalculator::WholeNodeNeighborhood(uint32_t mask) const {
  return SquaredBudget(distance_threshold_) >= SquaredDiameter(mask);
}

void NeighborhoodCalculator::AppendNeighborKeys(uint32_t mask, uint64_t key,
                                                std::vector<uint64_t>* keys) {
  REMEDY_CHECK(mask != 0) << "the level-0 region has no neighboring region";
  const RegionCounter& counter = hierarchy_.counter();
  int digits[32];
  uint64_t weights[32];
  counter.KeyDigits(key, mask, digits);
  int det_positions[32];
  int num_positions = 0;
  uint64_t weight = 1;
  for (int i = counter.NumProtected() - 1; i >= 0; --i) {
    if (!(mask & (1u << i))) continue;
    weights[i] = weight;
    weight *= static_cast<uint64_t>(counter.Cardinality(i));
    det_positions[num_positions++] = i;
  }
  CollectNeighborKeys(digits, weights, det_positions, num_positions, 0, 0.0,
                      key, keys);
}

void NeighborhoodCalculator::CollectNeighborKeys(
    const int* digits, const uint64_t* weights, const int* det_positions,
    int num_positions, int next_position, double squared_distance,
    uint64_t key, std::vector<uint64_t>* keys) {
  const double budget = SquaredBudget(distance_threshold_);
  // Once no further value change fits the budget, every remaining position
  // keeps its value: the key is complete.
  if (next_position == num_positions ||
      squared_distance + min_squared_step_ > budget) {
    if (squared_distance <= 0.0) return;  // the region itself is not in r_n
    keys->push_back(key);
    return;
  }

  const DataSchema& schema = hierarchy_.schema();
  const int position = det_positions[next_position];
  const AttributeSchema& attr =
      schema.attribute(schema.protected_indices()[position]);
  const int original_value = digits[position];
  // The key with this position's digit zeroed; each value adds its stride.
  const uint64_t base =
      key - static_cast<uint64_t>(original_value) * weights[position];
  for (int value = 0; value < attr.Cardinality(); ++value) {
    double d = attr.Distance(original_value, value);
    double next_squared = squared_distance + d * d;
    if (next_squared > budget) continue;
    CollectNeighborKeys(
        digits, weights, det_positions, num_positions, next_position + 1,
        next_squared, base + static_cast<uint64_t>(value) * weights[position],
        keys);
  }
}

bool NeighborhoodCalculator::SupportsOptimized(uint32_t mask) const {
  if (WholeNodeNeighborhood(mask)) return true;  // T = |X| regime
  // The dominating-region identity holds for T = 1 in the unit-distance
  // setting: the distance-1 neighbors are exactly the regions that change
  // one attribute, which is what R_d sums (minus the over-counted r). T
  // counts as 1 when the budget admits a unit step and T^2 exceeds 1 by no
  // more than the slack, so the naive walk on the same budget enumerates
  // exactly those regions too.
  const double budget = SquaredBudget(distance_threshold_);
  if (budget < 1.0 || budget > 1.0 + 2 * kSquaredSlack) return false;
  for (size_t i = 0; i < ordinal_.size(); ++i) {
    if ((mask & (1u << i)) && ordinal_[i]) return false;
  }
  return true;
}

RegionCounts NeighborhoodCalculator::OptimizedNeighborCounts(
    const Pattern& pattern, const RegionCounts& region_counts) {
  const uint32_t mask = pattern.DeterministicMask();
  REMEDY_CHECK(mask != 0);
  REMEDY_CHECK(SupportsOptimized(mask))
      << "optimized neighbor counts require T = 1 on nominal attributes or "
         "the T = |X| regime";
  return OptimizedNeighborCounts(mask,
                                 hierarchy_.counter().KeyFor(pattern, mask),
                                 region_counts,
                                 NodeTableParents(hierarchy_, mask));
}

}  // namespace remedy
