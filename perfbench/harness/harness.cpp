// Workload harness of the repo benchmark (see perfbench/README.md).
//
//   perfbench_harness run [--trace=PATH] <study.json>...
//       For every variant: times scenario::build, then times each
//       mechanism's Mechanism::run. With --trace, turns on obs tracing and
//       writes the Chrome trace to PATH after the last run. Prints one JSON
//       object: build_s, variants, runs[] (digest, final loss/accuracy,
//       run_s, the run's obs registry snapshot) and dropped_events.
//
//   perfbench_harness setup <study.json>...
//       Times scenario::build for every variant and prints build_s (the sum),
//       variants and runs[] (the variant/mechanism pairs a farm of these
//       studies must report). Used where the runs go through the farm.
//
// A failing build or run is reported in its record ("error") and never
// aborts the remaining variants; run.py counts it as a failed run.

#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace {

using namespace airfedga;
using scenario::Json;

Json snapshot_json(const obs::MetricsSnapshot& snap) {
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, value);
  Json hists = Json::object();
  for (const auto& h : snap.histograms) {
    Json bounds = Json::array();
    for (double b : h.bounds) bounds.push_back(b);
    Json counts = Json::array();
    for (auto c : h.counts) counts.push_back(c);
    Json one = Json::object();
    one.set("bounds", std::move(bounds));
    one.set("counts", std::move(counts));
    one.set("count", h.count);
    one.set("sum", perfbench::json_number(h.sum));
    hists.set(h.name, std::move(one));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("histograms", std::move(hists));
  return out;
}

Json run_record(const std::string& variant, const std::string& mechanism) {
  Json r = Json::object();
  r.set("variant", variant);
  r.set("mechanism", mechanism);
  return r;
}

int cmd_setup(const std::vector<std::string>& files) {
  const auto variants = perfbench::load_variants(files);
  double build_s = 0.0;
  Json runs = Json::array();
  for (const auto& v : variants) {
    const auto t0 = perfbench::Clock::now();
    const scenario::BuiltScenario built = scenario::build(v);
    build_s += perfbench::seconds_since(t0);
    for (const auto& name : built.mechanism_names) runs.push_back(run_record(v.name, name));
  }
  Json out = Json::object();
  out.set("build_s", build_s);
  out.set("variants", variants.size());
  out.set("runs", std::move(runs));
  perfbench::print_json(out);
  return 0;
}

int cmd_run(const std::vector<std::string>& files, const std::string& trace_path) {
  const auto variants = perfbench::load_variants(files);
  if (!trace_path.empty()) obs::enable();

  double build_s = 0.0;
  Json runs = Json::array();
  for (const auto& v : variants) {
    scenario::BuiltScenario built;
    try {
      const auto t0 = perfbench::Clock::now();
      built = scenario::build(v);
      build_s += perfbench::seconds_since(t0);
    } catch (const std::exception& e) {
      for (const auto& m : v.mechanisms) {
        Json r = run_record(v.name, m.display_name());
        r.set("error", e.what());
        runs.push_back(std::move(r));
      }
      continue;
    }
    for (std::size_t i = 0; i < built.mechanisms.size(); ++i) {
      Json r = run_record(v.name, built.mechanism_names[i]);
      try {
        const auto t0 = perfbench::Clock::now();
        const fl::Metrics m = built.mechanisms[i]->run(built.cfg);
        r.set("run_s", perfbench::seconds_since(t0));
        r.set("digest", m.digest());
        r.set("final_loss", perfbench::json_number(m.final_loss()));
        r.set("final_accuracy", perfbench::json_number(m.final_accuracy()));
        r.set("metrics", snapshot_json(m.obs_snapshot()));
      } catch (const std::exception& e) {
        r.set("error", e.what());
      }
      runs.push_back(std::move(r));
    }
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::trunc);
    obs::write_chrome_json(out);
    if (!out) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  Json out = Json::object();
  out.set("build_s", build_s);
  out.set("variants", variants.size());
  out.set("runs", std::move(runs));
  out.set("dropped_events", obs::dropped_events());
  perfbench::print_json(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_harness run [--trace=PATH] <study.json>...\n"
                         "       perfbench_harness setup <study.json>...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::string trace_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0)
      trace_path = argv[i] + 8;
    else
      files.emplace_back(argv[i]);
  }
  try {
    if (cmd == "run") return cmd_run(files, trace_path);
    if (cmd == "setup") return cmd_setup(files);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_harness: unknown command %s\n", cmd.c_str());
  return 2;
}
