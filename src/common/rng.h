// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (dataset generation, sampling,
// training initialization, NNDescent) draw from Rng so that a fixed seed
// reproduces an entire experiment bit-for-bit.

#ifndef KPEF_COMMON_RNG_H_
#define KPEF_COMMON_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kpef {

/// SplitMix64-style finalizer deriving an independent RNG seed for one
/// (stream, index) pair from a single user-visible seed. Parallel phases
/// give every work item (NNDescent node, sampling seed paper) its own
/// Rng(MixSeed(seed, stream, index)) stream, which makes their combined
/// output independent of scheduling and thread count.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1) +
               0xBF58476D1CE4E5B9ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG seeded via SplitMix64.
///
/// Fast, high-quality, and deterministic across platforms (unlike
/// std::mt19937 + std::uniform_*_distribution, whose distribution
/// implementations vary between standard libraries).
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal variate (Marsaglia polar method).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// True with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Zipf-distributed integer in [1, n] with exponent `s` (s > 0).
  /// Implemented by inverse-CDF over precomputed weights is too costly per
  /// call, so this uses the rejection method of Devroye.
  uint64_t Zipf(uint64_t n, double s);

  /// Samples an index according to the (unnormalized, non-negative) weights.
  /// Requires a non-empty vector; when every weight is zero it returns the
  /// last index (k-means++ seeding reaches that once every point coincides
  /// with a chosen centre). Consumes one draw either way.
  size_t Discrete(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = Uniform(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `count` distinct indices from [0, n) (count <= n), in
  /// selection order. Uses Floyd's algorithm for small count relative to n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t count);

 private:
  uint64_t state_[4];
  // Cached second variate from the polar method.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace kpef

#endif  // KPEF_COMMON_RNG_H_
