#ifndef REMEDY_CORE_PATTERN_H_
#define REMEDY_CORE_PATTERN_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace remedy {

// A pattern over the protected attributes X: a conjunction of
// attribute-value assignments where each element is either deterministic
// (a = v) or non-deterministic (a = X, "don't care").
//
// Positions are aligned with DataSchema::protected_indices(); a value of
// Pattern::kWildcard marks a non-deterministic element. A pattern denotes the
// region/subgroup of instances matching all deterministic elements (Sec. II).
//
// The values live inline — an int16_t per position, for at most kMaxArity
// positions — next to the arity and the deterministic mask, which every
// mutation keeps in step. A Pattern is therefore trivially copyable and owns
// no heap memory: an identified subgroup set copies and frees as one block,
// and DeterministicMask() is a field read. The limits are RegionCounter's:
// at most 32 protected attributes (one mask bit each), each with at most
// kMaxValue + 1 values. Constructing or setting past them dies.
class Pattern {
 public:
  static constexpr int kWildcard = -1;
  static constexpr int kMaxArity = 32;
  static constexpr int kMaxValue = INT16_MAX;

  Pattern() = default;

  // All-wildcard pattern of the given arity (the level-0 "entire dataset").
  explicit Pattern(int arity);

  // Pattern with explicit values; use kWildcard for non-deterministic slots.
  explicit Pattern(const std::vector<int>& values);

  int Arity() const { return arity_; }
  int Value(int position) const {
    REMEDY_DCHECK(position >= 0 && position < arity_);
    return values_[position];
  }
  void SetValue(int position, int value);
  bool IsDeterministic(int position) const {
    return Value(position) != kWildcard;
  }

  // d: number of deterministic elements (the pattern's level).
  int NumDeterministic() const { return std::popcount(mask_); }

  // Bitmask with bit i set iff position i is deterministic. Identifies the
  // hierarchy node the pattern belongs to.
  uint32_t DeterministicMask() const { return mask_; }

  // True if `row` of `data` matches every deterministic element. Positions
  // map through data.schema().protected_indices().
  bool Matches(const Dataset& data, int row) const;

  // Dominance (Def. 2): true if `region` is dominated by this pattern, i.e.
  // this pattern can be obtained from region's by replacing deterministic
  // elements with wildcards. Every pattern dominates itself.
  bool Dominates(const Pattern& region) const;

  // True if both patterns have the same deterministic attribute set
  // (same hierarchy node).
  bool SameNode(const Pattern& other) const {
    return DeterministicMask() == other.DeterministicMask();
  }

  // Euclidean distance between two regions of the same node (Def. 4):
  // sqrt of the summed squared per-attribute distances. Dies if the patterns
  // are in different nodes (such regions are never neighbors).
  double Distance(const Pattern& other, const DataSchema& schema) const;

  // Human-readable form, e.g. "(age='25-45', race=Afr-Am)"; wildcards are
  // omitted as in the paper.
  std::string ToString(const DataSchema& schema) const;

  // Equal arity and equal values over it.
  friend bool operator==(const Pattern& a, const Pattern& b);

  // Lexicographic order over the values, a proper prefix first — the order
  // of the value sequences as std::vector<int>s; deterministic output.
  friend bool operator<(const Pattern& a, const Pattern& b);

 private:
  int16_t values_[kMaxArity] = {};  // positions past arity_ stay 0
  uint32_t mask_ = 0;
  uint8_t arity_ = 0;
};

}  // namespace remedy

#endif  // REMEDY_CORE_PATTERN_H_
