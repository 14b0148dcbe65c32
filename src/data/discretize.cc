#include "data/discretize.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace remedy {

Bucketizer::Bucketizer(std::string attribute_name, std::vector<double> cuts)
    : attribute_name_(std::move(attribute_name)), cuts_(std::move(cuts)) {
  for (size_t i = 1; i < cuts_.size(); ++i) {
    REMEDY_CHECK(cuts_[i - 1] < cuts_[i])
        << "bucket cuts must be strictly increasing";
  }
}

Bucketizer Bucketizer::EqualWidth(std::string attribute_name,
                                  const std::vector<double>& values,
                                  int num_buckets) {
  REMEDY_CHECK(num_buckets >= 1);
  REMEDY_CHECK(!values.empty());
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  double lo = *min_it, hi = *max_it;
  std::vector<double> cuts;
  if (hi > lo) {
    double width = (hi - lo) / num_buckets;
    for (int i = 1; i < num_buckets; ++i) cuts.push_back(lo + width * i);
  }
  return Bucketizer(std::move(attribute_name), std::move(cuts));
}

Bucketizer Bucketizer::Quantile(std::string attribute_name,
                                const std::vector<double>& values,
                                int num_buckets) {
  REMEDY_CHECK(num_buckets >= 1);
  REMEDY_CHECK(!values.empty());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> cuts;
  for (int i = 1; i < num_buckets; ++i) {
    size_t rank = sorted.size() * static_cast<size_t>(i) / num_buckets;
    double cut = sorted[std::min(rank, sorted.size() - 1)];
    if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
  }
  // Drop a final cut equal to the maximum (it would create an empty bucket).
  if (!cuts.empty() && cuts.back() >= sorted.back()) cuts.pop_back();
  return Bucketizer(std::move(attribute_name), std::move(cuts));
}

int Bucketizer::Code(double value) const {
  // First cut point that is >= value; buckets are right-closed.
  auto it = std::lower_bound(cuts_.begin(), cuts_.end(), value);
  return static_cast<int>(it - cuts_.begin());
}

AttributeSchema Bucketizer::MakeSchema() const {
  std::vector<std::string> names;
  if (cuts_.empty()) {
    names.push_back("all");
  } else {
    names.push_back(std::string("<=").append(FormatDouble(cuts_.front(), 0)));
    for (size_t i = 1; i < cuts_.size(); ++i) {
      names.push_back(std::string("(")
                          .append(FormatDouble(cuts_[i - 1], 0))
                          .append("-")
                          .append(FormatDouble(cuts_[i], 0))
                          .append("]"));
    }
    names.push_back(std::string(">").append(FormatDouble(cuts_.back(), 0)));
  }
  return AttributeSchema(attribute_name_, std::move(names), /*ordinal=*/true);
}

}  // namespace remedy
