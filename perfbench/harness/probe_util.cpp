// Util-layer probe: times Rng::sample_without_replacement over the first
// variant's whole population, drawing its cohort size (half the population
// when the spec sets no cohort) — the draw SchedulingLoop::sample_cohort
// makes every round. Prints util.cohort_sample_ms, the median of 15 draws.
//
//   probe_util <study.json>...

#include <algorithm>

#include "common.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace airfedga;
  const auto variants = perfbench::load_variants({argv + 1, argv + argc});
  const scenario::ScenarioSpec& spec = variants.at(0);
  const std::size_t n = spec.partition.workers;
  const std::size_t k = spec.cohort_size > 0 ? spec.cohort_size : std::max<std::size_t>(1, n / 2);

  util::Rng rng(spec.seed);
  std::vector<std::size_t> out;
  const double s = perfbench::median_seconds(15, [&] { rng.sample_without_replacement(n, k, out); });
  perfbench::print_metrics({{"util.cohort_sample_ms", s * 1e3}});
  return 0;
}
