#include "common/rng.h"

#include <cmath>
#include <unordered_set>

namespace kpef {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  has_cached_normal_ = false;
}

uint64_t Rng::Next() {
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

uint64_t Rng::Uniform(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  assert(n > 0 && s > 0.0);
  // Devroye's rejection method for the Zipf distribution.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = UniformDouble();
    const double v = UniformDouble();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-12)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<uint64_t>(x);
    }
  }
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  // All-zero weights fall through to the last index below, after the
  // same one draw as any other call.
  double r = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point slack.
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t count) {
  assert(count <= n);
  std::vector<size_t> out;
  out.reserve(count);
  if (count == 0) return out;
  if (count * 3 >= n) {
    // Dense case: shuffle a full index vector and take a prefix.
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    Shuffle(all);
    all.resize(count);
    return all;
  }
  // Sparse case: Floyd's algorithm.
  std::unordered_set<size_t> seen;
  seen.reserve(count * 2);
  for (size_t j = n - count; j < n; ++j) {
    size_t t = Uniform(j + 1);
    if (seen.count(t)) t = j;
    seen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace kpef
