#pragma once

// Helpers shared by the benchmark harness and the per-layer probes: study
// loading through the scenario CLI's public loader, a steady clock, a
// median timer and one-line JSON output for run.py to parse.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/json.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every variant of the study files `paths` (sweeps expanded), in order.
inline std::vector<airfedga::scenario::ScenarioSpec> load_variants(
    const std::vector<std::string>& paths) {
  std::vector<airfedga::scenario::ScenarioSpec> out;
  for (const auto& p : paths) {
    const auto study = airfedga::scenario::cli::load_study(p);
    for (auto& v : airfedga::scenario::expand_sweeps(study.spec, study.sweeps))
      out.push_back(std::move(v));
  }
  return out;
}

/// Median wall seconds of `reps` calls of `fn`; stops early, after at least
/// one call, once the calls took `budget_s` in total.
template <class F>
double median_seconds(std::size_t reps, F&& fn, double budget_s = 2.0) {
  std::vector<double> t;
  double total = 0.0;
  for (std::size_t i = 0; i < reps && (i == 0 || total < budget_s); ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
    total += t.back();
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// A JSON number, or null when `v` is not finite (a diverged run's loss).
inline airfedga::scenario::Json json_number(double v) {
  return std::isfinite(v) ? airfedga::scenario::Json(v) : airfedga::scenario::Json();
}

/// Prints `j` as one line for run.py to parse.
inline void print_json(const airfedga::scenario::Json& j) { std::printf("%s\n", j.dump().c_str()); }

/// Prints {"name": value, ...} as one line: a probe's metrics.
inline void print_metrics(std::initializer_list<std::pair<const char*, double>> metrics) {
  airfedga::scenario::Json out = airfedga::scenario::Json::object();
  for (const auto& [name, value] : metrics) out.set(name, json_number(value));
  print_json(out);
}

}  // namespace perfbench
