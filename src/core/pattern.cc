#include "core/pattern.h"

#include <algorithm>
#include <cmath>

namespace remedy {

Pattern::Pattern(int arity) {
  REMEDY_CHECK(arity >= 0 && arity <= kMaxArity)
      << "pattern arity " << arity << " outside [0, " << kMaxArity << "]";
  arity_ = static_cast<uint8_t>(arity);
  std::fill(values_, values_ + arity, static_cast<int16_t>(kWildcard));
}

Pattern::Pattern(const std::vector<int>& values)
    : Pattern(static_cast<int>(values.size())) {
  for (int i = 0; i < arity_; ++i) SetValue(i, values[i]);
}

void Pattern::SetValue(int position, int value) {
  REMEDY_DCHECK(position >= 0 && position < arity_);
  REMEDY_CHECK(value >= kWildcard && value <= kMaxValue)
      << "pattern value " << value << " outside [" << kWildcard << ", "
      << kMaxValue << "]";
  values_[position] = static_cast<int16_t>(value);
  const uint32_t bit = 1u << position;
  mask_ = value == kWildcard ? mask_ & ~bit : mask_ | bit;
}

bool operator==(const Pattern& a, const Pattern& b) {
  return a.arity_ == b.arity_ &&
         std::equal(a.values_, a.values_ + a.arity_, b.values_);
}

bool operator<(const Pattern& a, const Pattern& b) {
  return std::lexicographical_compare(a.values_, a.values_ + a.arity_,
                                      b.values_, b.values_ + b.arity_);
}

bool Pattern::Matches(const Dataset& data, int row) const {
  const std::vector<int>& protected_cols = data.schema().protected_indices();
  REMEDY_DCHECK(static_cast<int>(protected_cols.size()) == Arity());
  for (int i = 0; i < Arity(); ++i) {
    if (values_[i] != kWildcard &&
        data.Value(row, protected_cols[i]) != values_[i]) {
      return false;
    }
  }
  return true;
}

bool Pattern::Dominates(const Pattern& region) const {
  REMEDY_CHECK(Arity() == region.Arity());
  for (int i = 0; i < Arity(); ++i) {
    if (values_[i] != kWildcard && values_[i] != region.values_[i]) {
      return false;
    }
  }
  return true;
}

double Pattern::Distance(const Pattern& other,
                         const DataSchema& schema) const {
  REMEDY_CHECK(SameNode(other))
      << "distance is only defined within one hierarchy node";
  const std::vector<int>& protected_cols = schema.protected_indices();
  double squared = 0.0;
  for (int i = 0; i < Arity(); ++i) {
    if (values_[i] == kWildcard) continue;
    double d = schema.attribute(protected_cols[i])
                   .Distance(values_[i], other.values_[i]);
    squared += d * d;
  }
  return std::sqrt(squared);
}

std::string Pattern::ToString(const DataSchema& schema) const {
  const std::vector<int>& protected_cols = schema.protected_indices();
  std::string out = "(";
  bool first = true;
  for (int i = 0; i < Arity(); ++i) {
    if (values_[i] == kWildcard) continue;
    if (!first) out += ", ";
    first = false;
    const AttributeSchema& attr = schema.attribute(protected_cols[i]);
    out += attr.name() + "=" + attr.ValueName(values_[i]);
  }
  if (first) out += "*";  // level-0: the entire dataset
  out += ")";
  return out;
}

}  // namespace remedy
