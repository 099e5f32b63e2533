// ML-layer probe: times one Model::train_step of the first variant's model
// on a batch of its configured size, single-threaded (the global GEMM pool
// is not involved below the cooperative-GEMM FLOP floor). Prints
// ml.train_step_ms, the median of 30 steps after 3 warm-up steps.
//
//   probe_ml <study.json>...

#include <numeric>

#include "common.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace airfedga;
  const auto variants = perfbench::load_variants({argv + 1, argv + argc});
  const scenario::ScenarioSpec& spec = variants.at(0);
  const scenario::BuiltScenario built = scenario::build(spec);

  ml::Model model = built.cfg.model_factory();
  util::Rng rng(spec.seed);
  model.init(rng);
  const std::size_t batch = spec.batch_size > 0 ? spec.batch_size : 32;
  std::vector<std::size_t> idx = rng.sample_without_replacement(built.cfg.train->size(), batch);
  const ml::Tensor x = ml::gather_rows(built.cfg.train->xs, idx);
  std::vector<int> y;
  for (auto i : idx) y.push_back(built.cfg.train->ys[i]);
  const auto lr = static_cast<float>(spec.learning_rate);

  for (int i = 0; i < 3; ++i) model.train_step(x, y, lr);
  const double s = perfbench::median_seconds(30, [&] { model.train_step(x, y, lr); });
  perfbench::print_metrics({{"ml.train_step_ms", s * 1e3}});
  return 0;
}
