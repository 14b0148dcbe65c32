#include "datagen/random_spec.h"

#include <string>

#include "common/check.h"

namespace remedy {

SyntheticSpec RandomSpec(Rng& rng, const RandomSpecOptions& options) {
  REMEDY_CHECK(options.min_attributes >= 1);
  REMEDY_CHECK(options.min_cardinality >= 2);
  REMEDY_CHECK(options.min_protected >= 1);

  SyntheticSpec spec;
  spec.name = "random";
  spec.num_rows = options.num_rows;

  const int num_attributes =
      rng.UniformRange(options.min_attributes, options.max_attributes);
  for (int a = 0; a < num_attributes; ++a) {
    int cardinality =
        rng.UniformRange(options.min_cardinality, options.max_cardinality);
    std::vector<std::string> values;
    std::vector<double> marginal;
    for (int v = 0; v < cardinality; ++v) {
      values.push_back(std::string("a")
                           .append(std::to_string(a))
                           .append("v")
                           .append(std::to_string(v)));
      marginal.push_back(0.2 + rng.Uniform());  // bounded away from zero
    }
    spec.attributes.push_back(IndependentAttribute(
        AttributeSchema("attr" + std::to_string(a), std::move(values)),
        std::move(marginal)));
  }

  // Random protected subset.
  int num_protected = rng.UniformRange(
      options.min_protected,
      std::min(options.max_protected, num_attributes));
  spec.protected_indices =
      rng.SampleWithoutReplacement(num_attributes, num_protected);

  // Mild signal on a couple of attributes so classifiers have traction.
  spec.base_logit = -0.3 + 0.6 * rng.Uniform();
  for (int t = 0; t < 2; ++t) {
    int attribute = rng.UniformInt(num_attributes);
    int value = rng.UniformInt(
        spec.attributes[attribute].schema.Cardinality());
    spec.label_terms.push_back(
        {attribute, value, rng.Normal(0.0, 0.6)});
  }

  // Random intersectional bias injections over the protected subset.
  for (int i = 0; i < options.num_injections; ++i) {
    std::vector<int> pattern(num_attributes, -1);
    int arity = 1 + rng.UniformInt(
                        static_cast<int>(spec.protected_indices.size()));
    std::vector<int> positions = rng.SampleWithoutReplacement(
        static_cast<int>(spec.protected_indices.size()), arity);
    for (int position : positions) {
      int attribute = spec.protected_indices[position];
      pattern[attribute] =
          rng.UniformInt(spec.attributes[attribute].schema.Cardinality());
    }
    double boost = (rng.Bernoulli(0.5) ? 1.0 : -1.0) *
                   (0.3 + rng.Uniform() * (options.max_injection - 0.3));
    spec.injections.push_back({std::move(pattern), boost});
  }

  spec.Validate();
  return spec;
}

}  // namespace remedy
