#ifndef REMEDY_COMMON_RNG_H_
#define REMEDY_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace remedy {

// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. The
// library's standard way of deriving decorrelated seeds from a base seed
// plus a key (region, tree, replicate, ...) without sharing RNG state.
uint64_t SplitMix64(uint64_t x);

// Seed of the `index`-th parallel stream derived from `seed`. Deterministic
// parallel phases (random-forest bagging, bootstrap replicates, the remedy
// planner) give every task its own stream keyed by a stable task index, so
// the drawn sequences are independent of scheduling and thread count.
uint64_t StreamSeed(uint64_t seed, uint64_t index);

// Uniform double in [0, 1) from one 64-bit engine word: the word times
// 2^-64, rounded once to nearest, clamped below 1. Splitting the word into
// exact 32-bit halves keeps the conversion branch-free; the result equals
// std::generate_canonical<double, 53> over std::mt19937_64, which is what
// std::uniform_real_distribution<double>(0, 1) draws.
inline double UniformFromBits(uint64_t bits) {
  const double value =
      (static_cast<double>(static_cast<uint32_t>(bits >> 32)) * 0x1p32 +
       static_cast<double>(static_cast<uint32_t>(bits))) *
      0x1p-64;
  return std::min(value, 0x1.fffffffffffffp-1);
}

// Deterministic random number generator used across the library.
//
// Every stochastic component (dataset generators, samplers, classifiers,
// baselines) takes an explicit seed so experiments are reproducible
// run-to-run. Rng wraps a Mersenne Twister with convenience draws for the
// patterns the library needs. Uniform() and Bernoulli() consume exactly one
// engine word per call and return what uniform_real_distribution<double>
// over the same engine would; the synthetic generator's row layout (see
// datagen/generator.h) is built on that one-word-per-draw guarantee.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  // Uniform integer in [0, n). Requires n > 0.
  int UniformInt(int n);

  // Uniform integer in [lo, hi].
  int UniformRange(int lo, int hi);

  // Uniform real in [0, 1).
  double Uniform() { return UniformFromBits(engine_()); }

  // Standard normal draw.
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // k distinct indices sampled uniformly without replacement from [0, n).
  // Requires 0 <= k <= n. The result order is random.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (int i = static_cast<int>(values.size()) - 1; i > 0; --i) {
      std::swap(values[i], values[UniformInt(i + 1)]);
    }
  }

  // Forks a child generator with a decorrelated seed; used to hand
  // independent randomness to sub-components without sharing state.
  Rng Fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace remedy

#endif  // REMEDY_COMMON_RNG_H_
