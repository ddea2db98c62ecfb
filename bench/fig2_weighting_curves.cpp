// Reproduces Figure 2: "Example utilization-weighted pricing curves."
//
// Prints the three weighting functions the paper plots —
// φ1(x) = exp(2(x−0.5)), φ2(x) = exp(x−0.5), φ3(x) = 1/(1.5−x) —
// sampled over normalized utilization 0–100 %, verifies the §IV.A
// properties for each, and renders the curves as an ASCII chart.
//
// Paper shape to match: all curves pass through 1.0 at 50 % utilization;
// φ1 is steepest (0.37 → 2.72), φ3 bends hardest near full utilization
// (reaching 2.0), φ2 is the gentle middle curve.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "common/ascii_chart.h"
#include "common/table.h"
#include "reserve/weighting.h"
#include "common/bench_meta.h"

int main(int argc, char** argv) {
  const unsigned threads = pm::ParseOrExit(
      pm::kUsageExit, [&] { return pm::ParseThreadsFlag(&argc, argv, 0); });
  if (threads > 1) {
    std::cerr << "note: --threads accepted for bench-interface "
                 "uniformity; the weighting-curve sweep is pure "
                 "math with no parallel path\n";
  }
  using pm::reserve::WeightingFunction;
  std::vector<std::unique_ptr<WeightingFunction>> curves;
  curves.push_back(pm::reserve::MakeExp2Weighting());
  curves.push_back(pm::reserve::MakeExpWeighting());
  curves.push_back(pm::reserve::MakeReciprocalWeighting());

  std::cout << "=== Figure 2: utilization-weighted pricing curves ===\n\n";

  pm::TextTable table({"utilization", "phi1 = exp(2(x-0.5))",
                       "phi2 = exp(x-0.5)", "phi3 = 1/(1.5-x)"});
  for (int pct = 0; pct <= 100; pct += 10) {
    const double x = pct / 100.0;
    table.AddRow({std::to_string(pct) + "%",
                  pm::FormatF((*curves[0])(x), 4),
                  pm::FormatF((*curves[1])(x), 4),
                  pm::FormatF((*curves[2])(x), 4)});
  }
  std::cout << table.Render() << '\n';

  // §IV.A property audit for every curve.
  pm::TextTable props({"curve", "properties 1-5", "dynamic range k"});
  for (const auto& curve : curves) {
    const std::string failure =
        pm::reserve::CheckWeightingProperties(*curve);
    props.AddRow({std::string(curve->Name()),
                  failure.empty() ? "all hold" : failure,
                  pm::FormatF(curve->DynamicRange(), 3)});
  }
  std::cout << props.Render() << '\n';

  // ASCII rendering of the figure itself.
  std::vector<pm::ChartSeries> series;
  const char glyphs[] = {'1', '2', '3'};
  for (std::size_t c = 0; c < curves.size(); ++c) {
    pm::ChartSeries s;
    s.label = std::string("phi") + glyphs[c] + " (" +
              std::string(curves[c]->Name()) + ")";
    s.glyph = glyphs[c];
    for (int pct = 0; pct <= 100; ++pct) {
      s.xs.push_back(pct);
      s.ys.push_back((*curves[c])(pct / 100.0));
    }
    series.push_back(std::move(s));
  }
  pm::ChartOptions options;
  options.title = "weighted price multiple vs normalized resource "
                  "utilization (%)";
  options.width = 72;
  options.height = 18;
  std::cout << RenderLineChart(series, options);
  return 0;
}
