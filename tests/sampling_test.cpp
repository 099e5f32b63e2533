// Statistical and determinism checks for the counter-keyed draws that keep
// per-round work O(cohort): FadingChannel::gain (Rayleigh inverse CDF on a
// keyed uniform), the substrate's keyed CSI error factor (Box-Muller on two
// keyed uniforms), and Floyd cohort sampling (Rng::sample_sorted on
// Lemire-bounded draws). Every test uses fixed seeds, so a failure is a
// reproducible property violation, not bad luck; thresholds sit at about
// the 0.1% tail of each test statistic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "channel/fading.hpp"
#include "sim/substrate.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace airfedga {
namespace {

/// Kolmogorov-Smirnov distance between the sample `u` and U(0, 1).
double ks_uniform(std::vector<double> u) {
  std::sort(u.begin(), u.end());
  const auto n = static_cast<double>(u.size());
  double d = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, u[i] - lo, hi - u[i]});
  }
  return d;
}

/// KS critical value at alpha = 0.001 for n samples.
double ks_critical(std::size_t n) { return 1.95 / std::sqrt(static_cast<double>(n)); }

/// Pearson correlation of two equal-length series.
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  util::RunningStat sa, sb;
  for (double x : a) sa.push(x);
  for (double x : b) sb.push(x);
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  cov /= static_cast<double>(a.size() - 1);
  return cov / (sa.stddev() * sb.stddev());
}

/// Rayleigh CDF with scale s.
double rayleigh_cdf(double x, double s) { return 1.0 - std::exp(-x * x / (2.0 * s * s)); }

/// Checks gains against the clamped Rayleigh law max(m, s_w * R): the atom
/// at m holds the expected mass, and above it the probability-integral
/// transform of the conditional CDF is uniform (KS).
void expect_truncated_rayleigh(const channel::FadingChannel& ch, std::size_t rounds) {
  const double m = ch.config().min_gain;
  std::vector<double> u;
  double atom_expected = 0.0;
  std::size_t atom = 0;
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t w = 0; w < ch.num_workers(); ++w) {
      const double s = ch.config().rayleigh_scale * ch.large_scale()[w];
      const double fm = rayleigh_cdf(m, s);
      atom_expected += fm;
      const double h = ch.gain(w, r);
      ASSERT_GE(h, m);
      if (h == m) {
        ++atom;
      } else {
        u.push_back((rayleigh_cdf(h, s) - fm) / (1.0 - fm));
      }
    }
  const double n = static_cast<double>(rounds * ch.num_workers());
  // The atom count is a sum of Bernoulli(F_w(m)); allow 4 standard deviations.
  EXPECT_NEAR(static_cast<double>(atom), atom_expected, 4.0 * std::sqrt(atom_expected) + 1.0);
  EXPECT_LT(ks_uniform(u), ks_critical(u.size())) << "n = " << n;
}

// ---------------------------------------------------------------- fading --

TEST(FadingDraws, GainFollowsTheTruncatedRayleighLaw) {
  channel::FadingChannel::Config cfg;  // default floor 0.15
  expect_truncated_rayleigh(channel::FadingChannel(400, cfg), 50);
  cfg.min_gain = 0.0;  // pure Rayleigh
  expect_truncated_rayleigh(channel::FadingChannel(400, cfg), 50);
}

TEST(FadingDraws, GainFollowsTheRayleighLawUnderPathLoss) {
  channel::FadingChannel::Config cfg;
  cfg.pathloss_exponent = 3.0;
  expect_truncated_rayleigh(channel::FadingChannel(400, cfg), 50);
  cfg.min_gain = 0.0;
  expect_truncated_rayleigh(channel::FadingChannel(400, cfg), 50);
}

TEST(FadingDraws, SingleGainEqualsTheRoundVector) {
  channel::FadingChannel::Config cfg;
  cfg.pathloss_exponent = 2.0;
  const channel::FadingChannel ch(257, cfg);
  for (std::size_t r : {0UL, 1UL, 17UL, 1000000UL}) {
    const auto all = ch.gains(r);
    // Any query order, including backwards, reads the same draw.
    for (std::size_t w = ch.num_workers(); w-- > 0;) EXPECT_EQ(ch.gain(w, r), all[w]);
  }
}

TEST(FadingDraws, DecorrelatedAcrossRoundsWorkersAndSeeds) {
  constexpr std::size_t kN = 20000;
  channel::FadingChannel::Config cfg;
  cfg.min_gain = 0.0;
  const channel::FadingChannel a(kN, cfg);
  cfg.seed += 1;
  const channel::FadingChannel b(kN, cfg);
  const double bound = 4.0 / std::sqrt(static_cast<double>(kN));
  // Consecutive and distant rounds.
  EXPECT_LT(std::abs(correlation(a.gains(3), a.gains(4))), bound);
  EXPECT_LT(std::abs(correlation(a.gains(3), a.gains(3 + 65536))), bound);
  // Same round, neighbouring seeds.
  EXPECT_LT(std::abs(correlation(a.gains(3), b.gains(3))), bound);
  // Neighbouring workers over rounds.
  std::vector<double> w0, w1;
  for (std::size_t r = 0; r < kN; ++r) {
    w0.push_back(a.gain(0, r));
    w1.push_back(a.gain(1, r));
  }
  EXPECT_LT(std::abs(correlation(w0, w1)), bound);
}

// ------------------------------------------------------------------ CSI --

std::unique_ptr<sim::Substrate> make_substrate(std::size_t n, bool csi, double std_dev) {
  sim::SubstrateOptions o;
  o.csi_error = csi;
  o.csi_error_std = std_dev;
  return sim::make_substrate(n, {}, {}, o, /*run_seed=*/11);
}

TEST(CsiDraws, FactorHasTheConfiguredMeanAndDeviation) {
  constexpr std::size_t kN = 1000;
  for (double sd : {0.05, 0.1}) {
    const auto noisy = make_substrate(kN, true, sd);
    const auto truth = make_substrate(kN, false, sd);
    util::RunningStat factor;
    std::vector<double> z;
    for (std::size_t r = 0; r < 100; ++r)
      for (std::size_t w = 0; w < kN; ++w) {
        const double f = noisy->gain(w, r) / truth->gain(w, r);
        factor.push(f);
        z.push_back(0.5 * std::erfc(-(f - 1.0) / (sd * std::sqrt(2.0))));  // Phi((f-1)/sd)
        EXPECT_NEAR(noisy->csi_scale(w, r), 1.0 / f, 1e-12);
      }
    // 1e5 draws: the mean's standard error is sd / 316.
    EXPECT_NEAR(factor.mean(), 1.0, 4.0 * sd / std::sqrt(1e5)) << "sd " << sd;
    EXPECT_NEAR(factor.stddev(), sd, 0.02 * sd) << "sd " << sd;
    // Normal, not merely the right two moments (the 0.1 clamp sits 9+ sd out).
    EXPECT_LT(ks_uniform(z), ks_critical(z.size())) << "sd " << sd;
  }
}

TEST(CsiDraws, KeyedPerWorkerAndRoundAndDecorrelated) {
  constexpr std::size_t kN = 20000;
  const auto s = make_substrate(kN, true, 0.1);
  const auto truth = make_substrate(kN, false, 0.1);
  auto factors = [&](std::size_t r) {
    std::vector<double> f(kN);
    for (std::size_t w = 0; w < kN; ++w) f[w] = s->gain(w, r) / truth->gain(w, r);
    return f;
  };
  const double bound = 4.0 / std::sqrt(static_cast<double>(kN));
  EXPECT_LT(std::abs(correlation(factors(5), factors(6))), bound);
  // The error is independent of the fading draw it multiplies.
  std::vector<double> h(kN);
  for (std::size_t w = 0; w < kN; ++w) h[w] = truth->gain(w, 5);
  EXPECT_LT(std::abs(correlation(factors(5), h)), bound);
  // Pure: the vector scan and single queries agree in any order.
  const auto all = s->gains(9);
  for (std::size_t w = kN; w-- > kN - 100;) EXPECT_EQ(s->gain(w, 9), all[w]);
}

// -------------------------------------------------------------- sampling --

TEST(FloydSampling, DistinctSortedInRangeAtEverySize) {
  for (std::size_t n : {1UL, 2UL, 7UL, 100UL, 3000UL}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n}) {
      util::Rng rng(n * 31 + k);
      std::vector<std::size_t> out{42};  // stale contents are replaced
      rng.sample_sorted(n, k, out);
      ASSERT_EQ(out.size(), k) << n << "/" << k;
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
      EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
      if (k > 0) {
        EXPECT_LT(out.back(), n);
      }
      if (k == n) {
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i);
      }
    }
  }
  util::Rng rng(3);
  std::vector<std::size_t> out;
  EXPECT_THROW(rng.sample_sorted(5, 6, out), std::invalid_argument);
}

TEST(FloydSampling, DeterministicPerStream) {
  std::vector<std::size_t> a, b, c;
  util::Rng(9).sample_sorted(1000000, 32, a);
  util::Rng(9).sample_sorted(1000000, 32, b);
  util::Rng(10).sample_sorted(1000000, 32, c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// Chi-square of per-index inclusion counts over `rounds` keyed samples
/// (one stream per round, as the scheduling loop keys its cohorts).
double inclusion_chi_square(std::size_t n, std::size_t k, std::size_t rounds) {
  std::vector<double> count(n, 0.0);
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    util::Rng(util::splitmix64(0xC04052ULL + r * 0x9E3779B1ULL)).sample_sorted(n, k, out);
    for (auto i : out) count[i] += 1.0;
  }
  const double expected = static_cast<double>(rounds * k) / static_cast<double>(n);
  double chi2 = 0.0;
  for (double c : count) chi2 += (c - expected) * (c - expected) / expected;
  return chi2;
}

TEST(FloydSampling, InclusionIsUniformAcrossWorkers) {
  // df = n - 1; the bounds are the 0.1% upper tail. (Sampling without
  // replacement makes the counts slightly under-dispersed, so the
  // binomial-based test is conservative.)
  EXPECT_LT(inclusion_chi_square(50, 10, 4000), 85.4);       // df 49
  EXPECT_LT(inclusion_chi_square(2000, 1500, 400), 2200.0);  // df 1999
}

TEST(FloydSampling, ConsecutiveRoundsOverlapAsIndependentDraws) {
  // Two independent k-subsets of n share k^2/n members on average.
  constexpr std::size_t kN = 1000, kK = 100, kRounds = 2000;
  std::vector<std::size_t> prev, cur;
  double shared = 0.0;
  util::Rng(util::splitmix64(0)).sample_sorted(kN, kK, prev);
  for (std::size_t r = 1; r <= kRounds; ++r) {
    util::Rng(util::splitmix64(r)).sample_sorted(kN, kK, cur);
    std::vector<std::size_t> both;
    std::set_intersection(prev.begin(), prev.end(), cur.begin(), cur.end(),
                          std::back_inserter(both));
    shared += static_cast<double>(both.size());
    prev.swap(cur);
  }
  // Hypergeometric mean 10, sd ~2.85 per round; the mean over 2000 rounds
  // has sd ~0.064.
  EXPECT_NEAR(shared / kRounds, 10.0, 0.3);
}

TEST(LemireBounded, CoversTheRangeUniformly) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
  std::vector<double> count(7, 0.0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) count[rng.bounded(7)] += 1.0;
  double chi2 = 0.0;
  for (double c : count) chi2 += (c - kDraws / 7.0) * (c - kDraws / 7.0) / (kDraws / 7.0);
  EXPECT_LT(chi2, 22.5);  // df 6, 0.1% tail
  // A range just past 2^63 rejects almost half of all words; results must
  // still land in range and above the midpoint about half the time.
  const std::uint64_t big = (std::uint64_t{1} << 63) + 1;
  int upper = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t x = rng.bounded(big);
    EXPECT_LT(x, big);
    upper += x >= big / 2 ? 1 : 0;
  }
  EXPECT_NEAR(upper, 2000, 200);
  EXPECT_THROW(rng.bounded(0), std::invalid_argument);
}

}  // namespace
}  // namespace airfedga
