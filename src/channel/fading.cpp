#include "channel/fading.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace airfedga::channel {

namespace {
// Fading draws key off the channel seed with this tag, apart from the
// path-loss stream (fork 0xD157).
constexpr std::uint64_t kFadingTag = 0xC0FFEE;
}  // namespace

FadingChannel::FadingChannel(std::size_t num_workers, Config cfg)
    : n_(num_workers), cfg_(cfg), key_(util::keyed_bits(cfg.seed, kFadingTag)) {
  if (num_workers == 0) throw std::invalid_argument("FadingChannel: zero workers");
  if (cfg.rayleigh_scale <= 0.0) throw std::invalid_argument("FadingChannel: scale must be > 0");
  if (cfg.min_gain < 0.0) throw std::invalid_argument("FadingChannel: min_gain must be >= 0");
  if (cfg.pathloss_exponent < 0.0)
    throw std::invalid_argument("FadingChannel: path-loss exponent must be >= 0");
  if (cfg.pathloss_exponent > 0.0 &&
      (cfg.distance_min <= 0.0 || cfg.distance_max < cfg.distance_min))
    throw std::invalid_argument("FadingChannel: bad distance range");

  large_scale_.assign(n_, 1.0);
  if (cfg.pathloss_exponent > 0.0) {
    util::Rng rng = util::Rng(cfg.seed).fork(0xD157);
    for (auto& s : large_scale_) {
      const double dist = rng.uniform(cfg.distance_min, cfg.distance_max);
      s = std::pow(dist, -cfg.pathloss_exponent / 2.0);
    }
  }
}

std::uint64_t FadingChannel::round_key(std::size_t round) const {
  return util::keyed_bits(key_, round);
}

double FadingChannel::gain_at(std::uint64_t round_key, std::size_t worker) const {
  // Rayleigh inverse CDF: F(x) = 1 - exp(-x^2 / (2 scale^2)), applied to a
  // keyed uniform on (0, 1] (u = 1 gives 0, which min_gain then lifts).
  const double u = util::unit_open0(util::keyed_bits(round_key, worker));
  const double rayleigh = cfg_.rayleigh_scale * std::sqrt(-2.0 * std::log(u));
  return std::max(cfg_.min_gain, large_scale_[worker] * rayleigh);
}

std::vector<double> FadingChannel::gains(std::size_t round) const {
  const std::uint64_t key = round_key(round);
  std::vector<double> h(n_);
  for (std::size_t i = 0; i < n_; ++i) h[i] = gain_at(key, i);
  return h;
}

double FadingChannel::gain(std::size_t worker, std::size_t round) const {
  if (worker >= n_) throw std::out_of_range("FadingChannel::gain: worker out of range");
  return gain_at(round_key(round), worker);
}

}  // namespace airfedga::channel
