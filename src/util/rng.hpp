#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace airfedga::util {

/// Seeded pseudo-random number generator used everywhere in the library.
///
/// All stochastic components (channel fading, noise, data synthesis, weight
/// initialization, heterogeneity factors) draw from an explicit `Rng` so
/// that every experiment is reproducible from a single master seed.
/// Independent sub-streams are derived with `fork`, which uses SplitMix64
/// on the parent seed so forked streams are decorrelated from the parent
/// and from each other.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent child generator. Calling `fork(tag)` twice with
  /// the same tag on the same parent yields identical child streams.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (optionally scaled/shifted).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Rayleigh-distributed magnitude with the given scale parameter.
  /// If X,Y ~ N(0, scale^2) then sqrt(X^2 + Y^2) ~ Rayleigh(scale).
  double rayleigh(double scale = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool coin(double p_true = 0.5);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(randint(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// `sample_without_replacement` into a reused vector (no allocation at
  /// steady capacity; identical draws to the allocating overload).
  void sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  /// Uniform integer in [0, range), range > 0: Lemire's unbiased
  /// multiply-shift method on raw engine words. Unlike the std
  /// distributions its output is specified here, so it is the same under
  /// every standard library.
  std::uint64_t bounded(std::uint64_t range);

  /// `k` distinct indices from [0, n), sorted ascending, by Floyd's
  /// algorithm: exactly k bounded() draws and O(k log k) work, independent
  /// of n. Throws std::invalid_argument when k > n.
  void sample_sorted(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  /// Seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// SplitMix64 mixing step; used for seed derivation.
std::uint64_t splitmix64(std::uint64_t x);

/// Counter-based draw: 64 random bits that are a pure function of
/// (key, counter). Values indexed by (worker, round) chain two calls, so
/// any one of them costs O(1) and needs no stream history.
inline std::uint64_t keyed_bits(std::uint64_t key, std::uint64_t counter) {
  return splitmix64(key ^ splitmix64(counter));
}

/// Maps 64 random bits to a double uniform on (0, 1] (the top 53 bits, so
/// the result is never 0 and a logarithm of it is always finite).
inline double unit_open0(std::uint64_t bits) {
  return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

}  // namespace airfedga::util
