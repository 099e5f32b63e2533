// Channel-layer probe, at the first variant's sizes, single-threaded:
//  - channel.gains_ms: FadingChannel::gains(round) over the whole
//    population (median over 15 rounds);
//  - channel.aircomp_ms: AirCompChannel::aggregate of one group at the
//    model's parameter count, the group being the spec's cohort (or every
//    worker of the partition when it sets none), median of 15 calls.
//
//   probe_channel <study.json>...

#include <numeric>
#include <span>

#include "channel/aircomp.hpp"
#include "channel/fading.hpp"
#include "common.hpp"
#include "ml/zoo.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace airfedga;
  const auto variants = perfbench::load_variants({argv + 1, argv + argc});
  const scenario::ScenarioSpec& spec = variants.at(0);
  const scenario::BuiltScenario built = scenario::build(spec);
  const std::size_t population = spec.partition.workers;

  const channel::FadingChannel fading(population, built.cfg.fading);
  std::size_t round = 0;
  const double gains_s = perfbench::median_seconds(15, [&] { (void)fading.gains(round++); });

  const std::size_t group = spec.cohort_size > 0 ? spec.cohort_size : population;
  const std::size_t dim = ml::count_parameters(built.cfg.model_factory);
  util::Rng rng(spec.seed);
  std::vector<std::vector<float>> models(group, std::vector<float>(dim));
  for (auto& m : models)
    for (auto& w : m) w = static_cast<float>(rng.normal(0.0, 0.1));
  const std::vector<float> w_prev(dim, 0.0f);
  const std::vector<double> gains = fading.gains(0);

  channel::AirCompChannel::Input in;
  in.w_prev = w_prev;
  for (std::size_t i = 0; i < group; ++i) {
    in.local_models.emplace_back(models[i]);
    in.data_sizes.push_back(1.0);
    in.gains.push_back(gains[i]);
  }
  in.total_data = static_cast<double>(group);
  channel::AirCompChannel aircomp(built.cfg.aircomp);
  const double aircomp_s = perfbench::median_seconds(15, [&] { (void)aircomp.aggregate(in); });

  perfbench::print_metrics(
      {{"channel.gains_ms", gains_s * 1e3}, {"channel.aircomp_ms", aircomp_s * 1e3}});
  return 0;
}
