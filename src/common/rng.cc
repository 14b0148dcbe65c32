#include "common/rng.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace remedy {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t index) {
  // Advance by the golden gamma per stream, then finalize: the standard
  // SplitMix64 sequence starting at `seed`, sampled at position `index`.
  return SplitMix64(seed + 0x9e3779b97f4a7c15ull * index);
}

int Rng::UniformInt(int n) {
  REMEDY_CHECK(n > 0) << "UniformInt needs a positive bound, got " << n;
  std::uniform_int_distribution<int> dist(0, n - 1);
  return dist(engine_);
}

int Rng::UniformRange(int lo, int hi) {
  REMEDY_CHECK(lo <= hi);
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal() { return Normal(0.0, 1.0); }

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return Uniform() < p;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  REMEDY_CHECK(k >= 0 && k <= n)
      << "cannot sample " << k << " of " << n << " without replacement";
  std::vector<int> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  // Partial Fisher-Yates: after i swaps the first i entries are the sample.
  for (int i = 0; i < k; ++i) {
    std::swap(indices[i], indices[UniformRange(i, n - 1)]);
  }
  indices.resize(k);
  return indices;
}

Rng Rng::Fork() {
  // SplitMix64 scramble of a fresh draw decorrelates parent and child
  // (bit-identical to the historical inline mix).
  return Rng(SplitMix64(engine_()));
}

}  // namespace remedy
