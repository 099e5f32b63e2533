#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace airfedga::util {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng Rng::fork(std::uint64_t tag) const {
  return Rng(splitmix64(seed_ ^ splitmix64(tag + 0x517cc1b727220a95ull)));
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::rayleigh(double scale) {
  // Inverse-CDF sampling: F(x) = 1 - exp(-x^2 / (2 scale^2)).
  const double u = uniform(std::numeric_limits<double>::min(), 1.0);
  return scale * std::sqrt(-2.0 * std::log(u));
}

std::int64_t Rng::randint(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::coin(double p_true) { return uniform() < p_true; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  shuffle(p);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  std::vector<std::size_t> p;
  sample_without_replacement(n, k, p);
  return p;
}

void Rng::sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  shuffle(out);
  out.resize(k);
}

std::uint64_t Rng::bounded(std::uint64_t range) {
  if (range == 0) throw std::invalid_argument("Rng::bounded: empty range");
  using u128 = unsigned __int128;
  u128 m = static_cast<u128>(engine_()) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    // Reject the (2^64 mod range) low words that would over-weight some
    // results; the threshold costs a division only on this rare path.
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      m = static_cast<u128>(engine_()) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void Rng::sample_sorted(std::size_t n, std::size_t k, std::vector<std::size_t>& out) {
  if (k > n) throw std::invalid_argument("sample_sorted: k > n");
  // Floyd: for j = n-k .. n-1 draw t in [0, j]; take t unless already
  // taken, else take j (which no earlier step could have drawn). Every
  // k-subset comes out equally likely.
  std::unordered_set<std::size_t> taken;
  taken.reserve(k);
  out.clear();
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(bounded(static_cast<std::uint64_t>(j) + 1));
    const std::size_t pick = taken.contains(t) ? j : t;
    taken.insert(pick);
    out.push_back(pick);
  }
  std::sort(out.begin(), out.end());
}

}  // namespace airfedga::util
