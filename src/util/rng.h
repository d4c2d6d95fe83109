// Deterministic pseudo-random number generation for all stochastic
// components (initialization, dropout, sampling, error injection).
//
// Every experiment in this repository is seeded explicitly; two runs with
// the same seed produce bit-identical results, which the test suite relies
// on. The engine is xoshiro256**, a small, fast, high-quality generator.

#ifndef GALE_UTIL_RNG_H_
#define GALE_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gale::util {

// xoshiro256** engine plus the distribution helpers GALE needs.
// Copyable so components can fork an independent stream via Fork().
class Rng {
 public:
  // Seeds the state via splitmix64 so that nearby seeds give unrelated
  // streams.
  explicit Rng(uint64_t seed = 0);

  // Next raw 64-bit output. Inline, with Uniform and Bernoulli, because
  // per-element draws (dropout masks, noise) are hot loops.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): 53 high-quality bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  // Standard normal via Box-Muller (cached second value).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return Uniform() < p;
  }

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Non-positive weights are treated as zero; if all weights are zero the
  // choice is uniform.
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  // Samples `k` distinct indices from [0, n) (k > n returns all of [0, n)).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  // Returns an independent generator derived from this one's stream.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace gale::util

#endif  // GALE_UTIL_RNG_H_
