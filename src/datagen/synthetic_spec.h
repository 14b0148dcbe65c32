#ifndef REMEDY_DATAGEN_SYNTHETIC_SPEC_H_
#define REMEDY_DATAGEN_SYNTHETIC_SPEC_H_

#include <string>
#include <vector>

#include "data/attribute.h"
#include "data/schema.h"

namespace remedy {

// Declarative specification of a synthetic tabular population.
//
// The real Adult / ProPublica / Law School datasets are not available in
// this environment, so the library simulates them: attribute marginals and
// pairwise dependencies reproduce the published schema and base rates, a
// logistic label model provides genuine signal for the classifiers, and
// *bias injections* plant the paper's core phenomenon — intersectional
// regions whose class ratio is skewed relative to their neighboring regions
// (Implicit Biased Sets). Train and test splits share the distribution, as
// with the real data, so remedying the training set trades test accuracy
// for subgroup fairness exactly as the paper describes.

struct AttributeSpec {
  AttributeSchema schema;
  // Unnormalized sampling weights per value (the marginal distribution).
  std::vector<double> marginal;
  // Optional dependence on a previously declared attribute: when parent >= 0
  // the value is drawn from conditional[parent_value] instead of marginal.
  int parent = -1;
  std::vector<std::vector<double>> conditional;
};

// Builders for the common spec shapes (keep dataset factories terse).
AttributeSpec IndependentAttribute(AttributeSchema schema,
                                   std::vector<double> marginal);
AttributeSpec ConditionalAttribute(AttributeSchema schema,
                                   std::vector<double> marginal, int parent,
                                   std::vector<std::vector<double>>
                                       conditional);

// Adds `coefficient` to the label logit when attribute `attribute` takes
// value `value`. This is the honest signal classifiers can learn.
struct LabelTerm {
  int attribute = 0;
  int value = 0;
  double coefficient = 0.0;
};

// Simulated biased data collection: rows matching `pattern` (one entry per
// attribute, -1 = don't care) get `logit_boost` added to their label logit,
// skewing the region's positive/negative ratio relative to its neighbors —
// i.e., planting an IBS.
struct BiasInjection {
  std::vector<int> pattern;
  double logit_boost = 0.0;
};

struct SyntheticSpec {
  std::string name;
  std::vector<AttributeSpec> attributes;
  std::vector<int> protected_indices;
  int num_rows = 1000;
  double base_logit = 0.0;  // controls the base positive rate
  std::vector<LabelTerm> label_terms;
  std::vector<BiasInjection> injections;

  // Schema view of the spec (attributes + protected set).
  DataSchema MakeSchema() const;

  // Dies with a message if the spec is internally inconsistent (bad parent
  // references, weight/cardinality mismatches, out-of-range terms...) or a
  // weight row — the marginal or any conditional row, drawn or not — has a
  // negative weight or a sum that is zero or not finite.
  void Validate() const;
};

}  // namespace remedy

#endif  // REMEDY_DATAGEN_SYNTHETIC_SPEC_H_
