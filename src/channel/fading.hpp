#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace airfedga::channel {

/// Block-fading wireless channel between each worker and the parameter
/// server: the gain h_i_t is constant within a communication round and
/// redrawn independently across rounds (paper §III-B4).
///
/// Gains are Rayleigh-distributed magnitudes (the standard rich-scattering
/// model) truncated below at `min_gain`: a worker in a deep fade would
/// otherwise force the common power scaling factor sigma_t towards zero
/// (Eq. 47) and blow up the denoising error. The paper does not model
/// deep-fade exclusion, so we truncate — the same practical fix used in the
/// AirComp literature it builds on.
///
/// Each gain is a counter-keyed draw: a pure function of (seed, round,
/// worker) computed in O(1) with no stream history, so a round's
/// aggregation reads only its members' gains however large the population.
class FadingChannel {
 public:
  struct Config {
    double rayleigh_scale = 0.7979;  ///< E[h] = scale * sqrt(pi/2) ~= 1.0
    double min_gain = 0.15;
    std::uint64_t seed = 7;

    /// Optional large-scale path loss: when `pathloss_exponent > 0`,
    /// worker i sits at a distance drawn from U[distance_min, distance_max]
    /// (relative units, 1 = reference distance) and its fading scale is
    /// multiplied by distance^(-pathloss_exponent/2), i.e. its *average*
    /// gain decays with distance as in the standard log-distance model.
    /// Distances are fixed for the lifetime of the channel (devices do not
    /// move between rounds). Default 0 = the paper's homogeneous setting.
    double pathloss_exponent = 0.0;
    double distance_min = 0.5;
    double distance_max = 2.0;
  };

  FadingChannel(std::size_t num_workers, Config cfg);

  /// Per-worker average-gain multipliers from the path-loss model (all 1.0
  /// when path loss is disabled).
  [[nodiscard]] const std::vector<double>& large_scale() const { return large_scale_; }

  /// Gains for all workers at the given round, `gains(round)[w] ==
  /// gain(w, round)`. O(N); only whole-population scans need it.
  [[nodiscard]] std::vector<double> gains(std::size_t round) const;

  /// Gain of a single worker at a round in O(1): max(min_gain,
  /// large_scale[w] * F^-1(u)) with F the Rayleigh CDF and u in (0, 1]
  /// keyed on (seed, round, worker).
  [[nodiscard]] double gain(std::size_t worker, std::size_t round) const;

  [[nodiscard]] std::size_t num_workers() const { return n_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  [[nodiscard]] std::uint64_t round_key(std::size_t round) const;
  [[nodiscard]] double gain_at(std::uint64_t round_key, std::size_t worker) const;

  std::size_t n_;
  Config cfg_;
  std::uint64_t key_;  ///< root of the per-(round, worker) draw keys
  std::vector<double> large_scale_;
};

}  // namespace airfedga::channel
