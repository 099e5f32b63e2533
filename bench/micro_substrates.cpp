// Google-benchmark microbenchmarks of the substrates: over-the-air
// aggregation, power control, the grouping algorithm, the ML kernels and
// the event queue. These quantify the cost of the simulator itself (the
// figure benches above measure *virtual* time; these measure wall time).

#include <benchmark/benchmark.h>

#include "channel/aircomp.hpp"
#include "channel/fading.hpp"
#include "core/grouping.hpp"
#include "core/power_control.hpp"
#include "data/partition.hpp"
#include "ml/zoo.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace airfedga;

void BM_AirCompAggregate(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  channel::AirCompChannel ch({.sigma0_sq = 1.0, .seed = 1});
  util::Rng rng(2);
  std::vector<std::vector<float>> models(m);
  for (auto& w : models) {
    w.resize(q);
    for (auto& v : w) v = static_cast<float>(rng.normal());
  }
  std::vector<float> w_prev(q, 0.1f);
  channel::AirCompChannel::Input in;
  in.w_prev = w_prev;
  for (auto& w : models) in.local_models.push_back(w);
  in.data_sizes.assign(m, 100.0);
  in.gains.assign(m, 1.0);
  in.sigma = 1e-3;
  in.eta = 1e-6;
  in.total_data = 10000.0;
  for (auto _ : state) {
    auto out = ch.aggregate(in);
    benchmark::DoNotOptimize(out.w_next.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q * m));
}
BENCHMARK(BM_AirCompAggregate)->Args({10000, 10})->Args({100000, 10})->Args({100000, 30});

void BM_PowerControl(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  core::PowerControlInput in;
  in.model_bound_sq = 600.0;
  in.sigma0_sq = 1.0;
  in.group_data = 100.0 * static_cast<double>(m);
  for (std::size_t i = 0; i < m; ++i) {
    in.gains.push_back(rng.rayleigh(0.8) + 0.1);
    in.data_sizes.push_back(100.0);
    in.energy_caps.push_back(10.0);
  }
  for (auto _ : state) {
    auto res = core::optimize_power(in);
    benchmark::DoNotOptimize(res.sigma);
  }
}
BENCHMARK(BM_PowerControl)->Arg(10)->Arg(100);

void BM_GroupingAlgorithm(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  auto ds = data::make_synthetic_flat(8, {workers * 20, 10, 1.0, 0.3, 4});
  util::Rng rng(4);
  auto part = data::partition_label_skew(ds, workers, rng);
  data::DataStats stats(ds, part);
  sim::ClusterModel cluster(workers, {});
  const auto lt = cluster.local_times();
  core::GroupingConfig cfg;
  cfg.aircomp_upload_seconds = 0.01;
  for (auto _ : state) {
    auto res = core::airfedga_grouping(stats, lt, cfg);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_GroupingAlgorithm)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_MlpTrainStep(benchmark::State& state) {
  auto model = ml::make_mlp(784, 10, static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  model.init(rng);
  ml::Tensor x = ml::Tensor::randn({32, 784}, rng);
  std::vector<int> y(32);
  for (std::size_t i = 0; i < 32; ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) benchmark::DoNotOptimize(model.train_step(x, y, 0.01f));
}
BENCHMARK(BM_MlpTrainStep)->Arg(64)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_CnnTrainStep(benchmark::State& state) {
  auto model = ml::make_cnn_mnist(static_cast<double>(state.range(0)) / 100.0, 28);
  util::Rng rng(6);
  model.init(rng);
  ml::Tensor x = ml::Tensor::randn({16, 1, 28, 28}, rng);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < 16; ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) benchmark::DoNotOptimize(model.train_step(x, y, 0.01f));
}
BENCHMARK(BM_CnnTrainStep)->Arg(15)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_FadingGains(benchmark::State& state) {
  channel::FadingChannel ch(static_cast<std::size_t>(state.range(0)), {});
  std::size_t round = 0;
  for (auto _ : state) {
    auto g = ch.gains(round++);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_FadingGains)->Arg(100);

// One aggregation's worth of gain lookups: a 32-member cohort drawn from a
// population of state.range(0) workers. Counter-keyed gains make this
// independent of the population size.
void BM_FadingGain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  channel::FadingChannel ch(n, {});
  std::size_t round = 0;
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t i = 0; i < 32; ++i) sum += ch.gain((i * 31337) % n, round);
    ++round;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_FadingGain)->Arg(1000000);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < 1000; ++i)
      q.schedule(static_cast<double>((i * 7919) % 1000), 0, i);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().actor);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueue);

}  // namespace
