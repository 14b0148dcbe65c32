#include "datagen/synthetic_spec.h"

#include <cmath>

#include "common/check.h"

namespace remedy {
namespace {

// One categorical weight row must be drawable: non-negative weights with a
// positive, finite sum.
void CheckWeightRow(const std::string& spec_name,
                    const AttributeSpec& attribute,
                    const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    REMEDY_CHECK(w >= 0.0) << spec_name << ": attribute "
                           << attribute.schema.name()
                           << " has negative categorical weight " << w;
    total += w;
  }
  REMEDY_CHECK(total > 0.0) << spec_name << ": attribute "
                            << attribute.schema.name()
                            << " categorical weights sum to zero";
  REMEDY_CHECK(std::isfinite(total))
      << spec_name << ": attribute " << attribute.schema.name()
      << " categorical weights are not finite";
}

}  // namespace

AttributeSpec IndependentAttribute(AttributeSchema schema,
                                   std::vector<double> marginal) {
  AttributeSpec spec;
  spec.schema = std::move(schema);
  spec.marginal = std::move(marginal);
  return spec;
}

AttributeSpec ConditionalAttribute(
    AttributeSchema schema, std::vector<double> marginal, int parent,
    std::vector<std::vector<double>> conditional) {
  AttributeSpec spec;
  spec.schema = std::move(schema);
  spec.marginal = std::move(marginal);
  spec.parent = parent;
  spec.conditional = std::move(conditional);
  return spec;
}

DataSchema SyntheticSpec::MakeSchema() const {
  std::vector<AttributeSchema> schemas;
  schemas.reserve(attributes.size());
  for (const AttributeSpec& attribute : attributes) {
    schemas.push_back(attribute.schema);
  }
  return DataSchema(std::move(schemas), protected_indices);
}

void SyntheticSpec::Validate() const {
  REMEDY_CHECK(num_rows > 0) << name << ": num_rows must be positive";
  REMEDY_CHECK(!attributes.empty()) << name << ": no attributes";
  const int m = static_cast<int>(attributes.size());

  for (int i = 0; i < m; ++i) {
    const AttributeSpec& attribute = attributes[i];
    const int cardinality = attribute.schema.Cardinality();
    REMEDY_CHECK(static_cast<int>(attribute.marginal.size()) == cardinality)
        << name << ": attribute " << attribute.schema.name()
        << " marginal size mismatch";
    CheckWeightRow(name, attribute, attribute.marginal);
    if (attribute.parent >= 0) {
      REMEDY_CHECK(attribute.parent < i)
          << name << ": attribute " << attribute.schema.name()
          << " depends on a later attribute";
      const int parent_cardinality =
          attributes[attribute.parent].schema.Cardinality();
      REMEDY_CHECK(static_cast<int>(attribute.conditional.size()) ==
                   parent_cardinality)
          << name << ": conditional table rows mismatch for "
          << attribute.schema.name();
      for (const std::vector<double>& row : attribute.conditional) {
        REMEDY_CHECK(static_cast<int>(row.size()) == cardinality)
            << name << ": conditional table width mismatch for "
            << attribute.schema.name();
        CheckWeightRow(name, attribute, row);
      }
    }
  }

  for (int index : protected_indices) {
    REMEDY_CHECK(index >= 0 && index < m)
        << name << ": bad protected index " << index;
  }

  for (const LabelTerm& term : label_terms) {
    REMEDY_CHECK(term.attribute >= 0 && term.attribute < m)
        << name << ": label term attribute out of range";
    REMEDY_CHECK(term.value >= 0 &&
                 term.value < attributes[term.attribute].schema.Cardinality())
        << name << ": label term value out of range";
  }

  for (const BiasInjection& injection : injections) {
    REMEDY_CHECK(static_cast<int>(injection.pattern.size()) == m)
        << name << ": injection pattern arity mismatch";
    for (int i = 0; i < m; ++i) {
      REMEDY_CHECK(injection.pattern[i] >= -1 &&
                   injection.pattern[i] < attributes[i].schema.Cardinality())
          << name << ": injection value out of range at attribute " << i;
    }
  }
}

}  // namespace remedy
