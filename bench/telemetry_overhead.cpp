// Bench: the telemetry plane's zero-cost-when-off contract, measured.
//
//   $ ./bench_telemetry_overhead [scenario] [epochs]
//
// Runs one scenario four times from identical seeds — telemetry off,
// telemetry on with the watchdog off, telemetry on with the full
// watchdog (recording rules + alerts), and telemetry on with the full
// watchdog plus the profiler's work-accounting channel armed — and
//
//   1. byte-compares the ScenarioMetrics JSON of all four runs: every
//      document must equal the telemetry-off baseline exactly
//      (instrumentation may never perturb market behavior — not the
//      watchdog, and not the profiler counting work on the hot paths),
//      exiting 1 on any divergence;
//   2. checks the watchdog-off registry document carries no `derived:`
//      series and no `fed_work_` series — "off" must mean bit-identical
//      exports, not just quiet alerts (exit 1 otherwise), and likewise
//      that the profiler-off watchdog arm carries no `fed_work_` or
//      `derived:work_` series (the profiler gate must not leak);
//   3. reports all four wall times, so the overhead of the enabled
//      plane (span emission, registry ingest, ring rotation), of the
//      watchdog on top (rule evaluation, alert state machine), and of
//      the profiler (counter copies at epoch barriers, never in auction
//      loops) is visible in CI logs.
//
// The bench-smoke ctest entry runs this at a tiny size; a nonzero exit
// fails the suite, which makes all three contracts a gate, not a hope.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "telemetry/telemetry.h"
#include "common/bench_meta.h"

namespace {

struct RunResult {
  std::string metrics_json;
  std::string registry_json;  // Empty when telemetry is off.
  double wall_seconds = 0.0;
};

RunResult RunOnce(const std::string& scenario, int epochs, bool telemetry,
                  bool watchdog, bool profiler, unsigned num_threads) {
  pm::scenario::ScenarioSpec spec = pm::scenario::FindScenario(scenario);
  spec.federation.telemetry.enabled = telemetry;
  spec.federation.telemetry.watchdog.recording_rules = watchdog;
  spec.federation.telemetry.watchdog.alerts = watchdog;
  spec.federation.telemetry.profiler.work_accounting = profiler;
  // Alert SLO assertions render into the metrics JSON (and need the
  // engine armed); strip them from every arm so the byte comparison is
  // market outcomes only.
  spec.slo.expect_alerts.clear();
  spec.slo.forbid_alerts.clear();
  pm::scenario::RunnerConfig config;
  config.num_threads = num_threads;
  config.epochs = epochs;
  pm::scenario::ScenarioRunner runner(std::move(spec), config);
  const auto start = std::chrono::steady_clock::now();
  pm::scenario::ScenarioMetrics metrics = runner.Run();
  const auto stop = std::chrono::steady_clock::now();
  RunResult result;
  result.metrics_json = metrics.ToJson();
  if (const pm::telemetry::Telemetry* t = runner.exchange().telemetry()) {
    result.registry_json = t->MetricsJson();
  }
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  const std::string scenario = argc > 1 ? argv[1] : "flash-crowd";
  const int epochs = pm::ParseOrExit(pm::kUsageExit, [&] {
    return argc > 2 ? pm::ParseNumberArg("epochs", argv[2], 1) : 4;
  });

  const RunResult off =
      RunOnce(scenario, epochs, /*telemetry=*/false, /*watchdog=*/false,
              /*profiler=*/false, threads);
  const RunResult on =
      RunOnce(scenario, epochs, /*telemetry=*/true, /*watchdog=*/false,
              /*profiler=*/false, threads);
  const RunResult watch =
      RunOnce(scenario, epochs, /*telemetry=*/true, /*watchdog=*/true,
              /*profiler=*/false, threads);
  const RunResult prof =
      RunOnce(scenario, epochs, /*telemetry=*/true, /*watchdog=*/true,
              /*profiler=*/true, threads);

  if (off.metrics_json != on.metrics_json) {
    std::cerr << "FAIL: telemetry-on run diverged from the telemetry-off "
                 "baseline (scenario "
              << scenario << ", " << epochs
              << " epochs) — instrumentation perturbed market behavior\n";
    return 1;
  }
  if (off.metrics_json != watch.metrics_json) {
    std::cerr << "FAIL: watchdog-on run diverged from the telemetry-off "
                 "baseline (scenario "
              << scenario << ", " << epochs
              << " epochs) — the watchdog perturbed market behavior\n";
    return 1;
  }
  if (off.metrics_json != prof.metrics_json) {
    std::cerr << "FAIL: profiler-armed run diverged from the "
                 "telemetry-off baseline (scenario "
              << scenario << ", " << epochs
              << " epochs) — work accounting perturbed market behavior\n";
    return 1;
  }
  if (on.registry_json.find("derived:") != std::string::npos) {
    std::cerr << "FAIL: watchdog-off registry document carries derived: "
                 "series (scenario "
              << scenario << ", " << epochs
              << " epochs) — the watchdog gate leaks\n";
    return 1;
  }
  if (watch.registry_json.find("fed_work_") != std::string::npos ||
      watch.registry_json.find("derived:work_") != std::string::npos) {
    std::cerr << "FAIL: profiler-off registry document carries work "
                 "series (scenario "
              << scenario << ", " << epochs
              << " epochs) — the profiler gate leaks\n";
    return 1;
  }
  if (prof.registry_json.find("fed_work_") == std::string::npos) {
    std::cerr << "FAIL: profiler-armed registry document carries no "
                 "fed_work_ series (scenario "
              << scenario << ", " << epochs
              << " epochs) — work accounting never reached the registry\n";
    return 1;
  }

  std::cout << "telemetry overhead: scenario=" << scenario
            << " epochs=" << epochs << "\n"
            << "  off:      " << off.wall_seconds << " s\n"
            << "  on:       " << on.wall_seconds << " s\n"
            << "  watchdog: " << watch.wall_seconds << " s\n"
            << "  profiler: " << prof.wall_seconds << " s\n"
            << "  metrics JSON byte-identical: yes\n"
            << "  watchdog-off derived-series leak: none\n"
            << "  profiler-off work-series leak: none\n";
  return 0;
}
