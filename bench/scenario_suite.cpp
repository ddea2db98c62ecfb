// Scenario suite: sweep every registered scenario at the default epoch
// count, record wall time, headline metrics and SLO verdicts, and write
// them to --out (default BENCH_scenario_suite.json in the working
// directory, with machine-collected host metadata). A git-tracked --out
// is refused with exit 73 before any work.
//
// The per-scenario metrics JSON is deterministic (docs/scenarios.md);
// only the wall-time numbers and the host block vary across machines.
//
//   $ ./bench_scenario_suite [--epochs E] [--seed S] [--threads T]
//                            [--out FILE]
//   defaults: scenario::kDefaultEpochs (8) epochs, seed 20090425
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_meta.h"
#include "common/table.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

int main(int argc, char** argv) {
  pm::scenario::RunnerConfig config;
  config.num_threads = pm::ParseOrExit(
      2, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  std::string out_path = "BENCH_scenario_suite.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--epochs" && i + 1 < argc) {
      config.epochs = pm::ParseOrExit(
          2, [&] { return pm::ParseNumberArg(arg, argv[++i], 1); });
    } else if (arg == "--seed" && i + 1 < argc) {
      config.seed = pm::ParseOrExit(2, [&] {
        return pm::ParseNumberArg<std::uint64_t>(arg, argv[++i]);
      });
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_scenario_suite [--epochs E] [--seed S] "
                   "[--threads T] [--out FILE]\n";
      return 2;
    }
  }
  if (pm::RefuseTrackedOutput(out_path)) return pm::kRefusedOutputExit;

  struct Row {
    pm::scenario::ScenarioMetrics metrics;
    double wall_ms = 0.0;
  };
  std::vector<Row> rows;
  for (const pm::scenario::ScenarioSpec& spec :
       pm::scenario::ScenarioLibrary()) {
    pm::scenario::ScenarioRunner runner(spec, config);
    const auto start = std::chrono::steady_clock::now();
    Row row;
    row.metrics = runner.Run();
    row.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    rows.push_back(std::move(row));
  }

  pm::TextTable table({"scenario", "epochs", "wall ms", "refunds",
                       "failures", "peak spread", "slo"});
  bool all_pass = true;
  for (const Row& row : rows) {
    const pm::scenario::ScenarioMetrics& m = row.metrics;
    all_pass = all_pass && m.slo_pass;
    table.AddRow({m.scenario, std::to_string(m.epochs),
                  pm::FormatF(row.wall_ms, 1),
                  "$" + pm::FormatF(m.refund_total, 2),
                  std::to_string(m.placement_failures),
                  pm::FormatF(m.peak_clearing_spread, 4),
                  m.slos_evaluated ? (m.slo_pass ? "pass" : "FAIL")
                                   : "skipped"});
  }
  std::cout << table.Render();

  std::ofstream json(out_path);
  json << "{\n  \"benchmark\": \"scenario_suite\",\n";
  json << "  \"metadata\": {\n"
       << "    \"seed\": " << config.seed << ",\n"
       << "    \"epochs_override\": " << config.epochs << ",\n"
       << "    \"scenarios\": " << rows.size() << ",\n"
       << "    \"host\": " << pm::HostMetadataJson() << "\n  },\n";
  json << "  \"all_slos_pass\": " << (all_pass ? "true" : "false")
       << ",\n";
  json << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"wall_ms\": " << pm::FormatF(row.wall_ms, 2)
         << ", \"metrics\": ";
    // Indent the nested metrics document to keep the file readable.
    const std::string metrics = row.metrics.ToJson();
    for (char c : metrics.substr(0, metrics.size() - 1)) {  // Trim "\n".
      json << c;
      if (c == '\n') json << "    ";
    }
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return all_pass ? 0 : 1;
}
