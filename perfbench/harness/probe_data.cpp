// Data-layer probe: times dataset generation (data::make_*) and
// partitioning (data::partition_*) for every variant of the given studies,
// single-threaded, exactly as scenario::build calls them. Prints
// data.generate_s and data.partition_s, each the median over three passes
// of the sum over variants.
//
//   probe_data <study.json>...

#include <stdexcept>

#include "common.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"

namespace {

using namespace airfedga;

data::TrainTest generate(const scenario::DatasetSpec& d) {
  if (d.kind == "mnist_like") return data::make_mnist_like(d.train_samples, d.test_samples, d.seed);
  if (d.kind == "mnist_image_like")
    return data::make_mnist_image_like(d.train_samples, d.test_samples, d.seed);
  if (d.kind == "cifar10_like") return data::make_cifar10_like(d.train_samples, d.test_samples, d.seed);
  if (d.kind == "imagenet100_like")
    return data::make_imagenet100_like(d.train_samples, d.test_samples, d.seed);
  throw std::invalid_argument("probe_data: unknown dataset kind " + d.kind);
}

data::Partition partition(const scenario::PartitionSpec& p, const data::Dataset& train,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t shards = p.shards > 0 ? p.shards : p.workers;
  if (p.kind == "label_skew") return data::partition_label_skew(train, shards, rng);
  if (p.kind == "iid") return data::partition_iid(train, shards, rng);
  if (p.kind == "dirichlet") return data::partition_dirichlet(train, shards, p.alpha, rng);
  throw std::invalid_argument("probe_data: unknown partition kind " + p.kind);
}

}  // namespace

int main(int argc, char** argv) {
  const auto variants = perfbench::load_variants({argv + 1, argv + argc});
  std::vector<data::TrainTest> sets;
  const double generate_s = perfbench::median_seconds(3, [&] {
    sets.clear();
    for (const auto& v : variants) sets.push_back(generate(v.dataset));
  });
  const double partition_s = perfbench::median_seconds(3, [&] {
    for (std::size_t i = 0; i < variants.size(); ++i)
      partition(variants[i].partition, sets[i].train, variants[i].seed);
  });
  perfbench::print_metrics({{"data.generate_s", generate_s}, {"data.partition_s", partition_s}});
  return 0;
}
