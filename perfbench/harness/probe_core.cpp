// Core-layer probe, at the first variant's sizes, single-threaded:
//  - core.grouping_ms: airfedga_grouping (Alg. 3) over the variant's data
//    shards (one per worker unless partition.shards is set — Alg. 3 is not
//    run over a sharded population), with the spec's first Air-FedGA
//    mechanism knobs when it has one; median of 3 calls;
//  - core.power_control_us: optimize_power (Alg. 2) for one group of the
//    spec's cohort size (every shard when it sets none); median of 201.
//
//   probe_core <study.json>...

#include "common.hpp"
#include "core/grouping.hpp"
#include "core/power_control.hpp"
#include "data/data_stats.hpp"
#include "ml/tensor.hpp"
#include "sim/cluster.hpp"

int main(int argc, char** argv) {
  using namespace airfedga;
  const auto variants = perfbench::load_variants({argv + 1, argv + argc});
  const scenario::ScenarioSpec& spec = variants.at(0);
  const scenario::BuiltScenario built = scenario::build(spec);
  const data::Partition& shards = built.cfg.partition;

  const data::DataStats stats(*built.cfg.train, shards);
  const std::vector<double> local_times =
      sim::ClusterModel(shards.size(), built.cfg.cluster).local_times();
  core::GroupingConfig gcfg;
  for (const auto& m : spec.mechanisms) {
    if (m.kind != "airfedga") continue;
    gcfg.xi = m.xi;
    gcfg.refine_passes = m.refine_passes;
    break;
  }
  gcfg.energy_cap = spec.energy_cap;
  gcfg.convergence.sigma0_sq = built.cfg.aircomp.sigma0_sq;
  const double grouping_s =
      perfbench::median_seconds(3, [&] { (void)core::airfedga_grouping(stats, local_times, gcfg); });

  const std::size_t group = spec.cohort_size > 0 ? std::min(spec.cohort_size, shards.size())
                                                 : shards.size();
  const std::vector<double> gains = channel::FadingChannel(shards.size(), built.cfg.fading).gains(0);
  util::Rng rng(spec.seed);
  ml::Model model = built.cfg.model_factory();
  model.init(rng);
  core::PowerControlInput in;
  in.model_bound_sq = std::max(1e-12, ml::squared_norm(model.parameters()));
  in.sigma0_sq = built.cfg.aircomp.sigma0_sq;
  in.group_data = 0.0;
  for (std::size_t i = 0; i < group; ++i) {
    in.gains.push_back(gains[i]);
    in.data_sizes.push_back(static_cast<double>(shards[i].size()));
    in.energy_caps.push_back(spec.energy_cap);
    in.group_data += in.data_sizes.back();
  }
  const double power_s = perfbench::median_seconds(201, [&] { (void)core::optimize_power(in); });

  perfbench::print_metrics(
      {{"core.grouping_ms", grouping_s * 1e3}, {"core.power_control_us", power_s * 1e6}});
  return 0;
}
