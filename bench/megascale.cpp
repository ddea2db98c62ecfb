// Megascale federation benchmark (ROADMAP: "1M bidders, 100+ shards, as
// fast as the hardware allows").
//
// Two sections, written to --out (default BENCH_megascale.json in the
// working directory):
//   1. thread_scaling — epoch wall time across shard-pool sizes, with
//      the telemetry registry's deterministic metrics JSON asserted
//      byte-identical across thread counts. Stamped
//      invalid_on_single_vcpu (bench_meta.h).
//   2. megascale_epoch — the headline run: B bidders split over S shards
//      (defaults 1,000,000 x 100) clear one epoch; every shard must
//      converge, every award must conserve units (awarded = placed +
//      refunded under refund_unplaced), and a rerun must reproduce the
//      metrics JSON byte for byte.
//
// Usage:
//   bench_megascale [--smoke] [--threads N] [--bidders B] [--shards S]
//                   [--epochs E] [--chrome-trace-out FILE] [--out FILE]
//
// --smoke shrinks every section to CI size and turns the correctness
// gates into the exit code: 2 = a byte-identity gate failed,
// 3 = the megascale epoch failed convergence/conservation. The full run
// applies the same gates (a broken artifact should not look healthy).
// A --smoke run refuses (exit 73, before any work) to overwrite an --out
// file that holds a full-size document, so a smoke run from the repo
// root cannot clobber the committed full-size baseline.
//
// --chrome-trace-out arms the profiler's wall-clock channel on the first
// federation of section 1 and writes its chrome://tracing JSON (one
// track per shard plus the federation track with the epoch, route and
// barrier spans). The wall channel never touches the deterministic
// metrics documents, so the cross-thread byte-identity gate runs
// unchanged with it armed — which is itself part of the contract.
// Exit 64 is a usage error and 74 an unwritable output file.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_meta.h"
#include "federation/federated_exchange.h"
#include "telemetry/telemetry.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ------------------------------------------- federation build helpers --

pm::federation::FederatedExchange BuildFederation(
    std::size_t shards, int bidders_per_shard, std::size_t num_threads,
    bool wall_profiler = false) {
  std::vector<pm::federation::ShardSpec> specs;
  for (std::size_t k = 0; k < shards; ++k) {
    pm::federation::ShardSpec spec;
    spec.name = "shard-" + std::to_string(k);
    spec.workload.num_teams = bidders_per_shard;
    // Paper-like team-per-cluster density ~3, capped to bound
    // world-generation time at megascale.
    spec.workload.num_clusters =
        std::min(200, std::max(4, bidders_per_shard / 3));
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    spec.market.auction.max_rounds = 30000;
    // Unit conservation per award: awarded = placed + refunded exactly.
    spec.market.settlement.refund_unplaced = true;
    specs.push_back(std::move(spec));
  }
  pm::federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = num_threads;
  config.telemetry.enabled = true;
  // Wall channel only: spans + chrome trace, never the deterministic
  // metrics document (the cross-thread byte-identity gate proves it).
  config.telemetry.profiler.wall_clock = wall_profiler;
  return pm::federation::FederatedExchange(std::move(specs), config);
}

std::string MetricsOf(const pm::federation::FederatedExchange& fed) {
  return fed.telemetry() != nullptr ? fed.telemetry()->MetricsJson() : "";
}

/// Runs `epochs` epochs and returns the mean wall time per epoch.
double MsPerEpoch(pm::federation::FederatedExchange& fed, int epochs) {
  const auto t0 = Clock::now();
  for (int e = 0; e < epochs; ++e) fed.RunEpoch();
  return MillisSince(t0) / epochs;
}

/// True when `path` holds a full-size megascale document
/// (`metadata.smoke` false) — a baseline a smoke run must not replace.
bool HoldsFullSizeDocument(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string doc = contents.str();
  const std::size_t meta = doc.find("\"metadata\"");
  if (meta == std::string::npos) return false;
  std::size_t at = doc.find("\"smoke\":", meta);
  if (at == std::string::npos) return false;
  at = doc.find_first_not_of(" \t\n", at + std::strlen("\"smoke\":"));
  return at != std::string::npos && doc.compare(at, 5, "false") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads_flag = pm::ParseThreadsFlag(&argc, argv, 0);
  bool smoke = false;
  std::string chrome_trace_out;
  std::string out_path = "BENCH_megascale.json";
  long long bidders = 1000000;
  std::size_t shards = 100;
  int epochs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--bidders" && i + 1 < argc) {
      bidders = std::atoll(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(
          std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--epochs" && i + 1 < argc) {
      epochs = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--chrome-trace-out" && i + 1 < argc) {
      chrome_trace_out = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_megascale [--smoke] [--threads N] "
                   "[--bidders B] [--shards S] [--epochs E] "
                   "[--chrome-trace-out FILE] [--out FILE]\n");
      return 64;
    }
  }
  if (smoke && HoldsFullSizeDocument(out_path)) {
    std::fprintf(stderr,
                 "refusing to overwrite full-size document %s with smoke "
                 "output; pass --out elsewhere\n",
                 out_path.c_str());
    return 73;
  }
  if (smoke) {
    bidders = std::min<long long>(bidders, 1000);
    shards = std::min<std::size_t>(shards, 4);
  }
  const int per_shard = std::max(
      1, static_cast<int>(bidders / static_cast<long long>(shards)));
  const std::size_t pool_threads =
      threads_flag > 0 ? threads_flag : std::min<std::size_t>(shards, 8);
  int exit_code = 0;

  // 1. Thread scaling of the epoch loop, metrics asserted
  //    byte-identical across thread counts. The chrome trace rides the
  //    first run on purpose: only that federation arms the wall channel,
  //    so a wall channel that perturbed deterministic exports would
  //    break the cross-thread gate.
  const std::size_t gate_shards = smoke ? 4 : std::min<std::size_t>(shards, 16);
  const int gate_bidders = smoke ? 100 : std::min(per_shard, 500);
  const int gate_epochs = smoke ? 2 : std::max(epochs, 3);
  std::printf("thread scaling: %zu shards x %d bidders, %d epochs...\n",
              gate_shards, gate_bidders, gate_epochs);
  std::vector<std::pair<std::size_t, double>> scaling;
  {
    std::vector<std::size_t> counts = {1, 2, 4, 8};
    if (threads_flag > 0) counts = {threads_flag};
    if (smoke) counts.resize(std::min<std::size_t>(counts.size(), 2));
    std::string metrics_first;
    for (const std::size_t t : counts) {
      const bool trace = scaling.empty() && !chrome_trace_out.empty();
      pm::federation::FederatedExchange fed = BuildFederation(
          gate_shards, gate_bidders, t, trace);
      scaling.emplace_back(t, MsPerEpoch(fed, gate_epochs));
      if (trace) {
        const std::string json =
            fed.telemetry()->profiler()->ChromeTraceJson();
        std::FILE* tf = std::fopen(chrome_trace_out.c_str(), "w");
        if (tf == nullptr ||
            std::fwrite(json.data(), 1, json.size(), tf) != json.size()) {
          std::fprintf(stderr, "cannot write %s\n",
                       chrome_trace_out.c_str());
          if (tf != nullptr) std::fclose(tf);
          return 74;
        }
        std::fclose(tf);
        std::printf("  wrote %s (%zu bytes)\n", chrome_trace_out.c_str(),
                    json.size());
      }
      const std::string metrics = MetricsOf(fed);
      if (metrics_first.empty()) {
        metrics_first = metrics;
      } else if (metrics != metrics_first) {
        std::fprintf(stderr,
                     "FAIL: metrics JSON diverged across thread counts "
                     "(%zu threads)\n",
                     t);
        exit_code = 2;
      }
    }
  }
  for (const auto& [t, ms] : scaling) {
    std::printf("  threads=%zu epoch %.1f ms\n", t, ms);
  }

  // 2. The megascale epoch itself.
  std::printf("megascale epoch: %lld bidders over %zu shards "
              "(%d per shard)...\n",
              static_cast<long long>(per_shard) * shards, shards,
              per_shard);
  double mega_epoch_ms = 0.0;
  bool mega_converged = true;
  bool mega_conserved = true;
  bool mega_reproducible = true;
  long long mega_rounds = 0;
  std::string mega_metrics;
  {
    pm::federation::FederatedExchange fed =
        BuildFederation(shards, per_shard, pool_threads);
    mega_epoch_ms = MsPerEpoch(fed, epochs);
    const pm::federation::FederationReport& report = fed.History().back();
    for (const pm::federation::ShardEpochSummary& shard : report.shards) {
      mega_converged = mega_converged && shard.report.converged;
      mega_rounds += shard.report.rounds;
      for (const pm::exchange::AwardRecord& award : shard.report.awards) {
        if (award.outcome.quota_only) continue;
        const double gap = std::abs(award.outcome.awarded_units -
                                    (award.outcome.placed_units +
                                     award.outcome.refunded_units));
        mega_conserved = mega_conserved && gap <= 1e-6;
      }
    }
    mega_metrics = MetricsOf(fed);
  }
  {
    // Rerun at a different pool size, after the first federation is
    // freed so peak memory holds one planet: byte-identical metrics or
    // bust.
    pm::federation::FederatedExchange fed = BuildFederation(
        shards, per_shard, pool_threads == 1 ? 2 : 1);
    MsPerEpoch(fed, epochs);
    mega_reproducible = MetricsOf(fed) == mega_metrics;
  }
  if (!mega_converged || !mega_conserved || !mega_reproducible) {
    std::fprintf(stderr,
                 "FAIL: megascale epoch converged=%d conserved=%d "
                 "reproducible=%d\n",
                 mega_converged ? 1 : 0, mega_conserved ? 1 : 0,
                 mega_reproducible ? 1 : 0);
    exit_code = 3;
  }
  std::printf("  epoch %.0f ms, %lld auction rounds, converged=%s, "
              "conserved=%s, reproducible=%s\n",
              mega_epoch_ms, mega_rounds, mega_converged ? "yes" : "NO",
              mega_conserved ? "yes" : "NO",
              mega_reproducible ? "yes" : "NO");

  // ------------------------------------------------------------- JSON --
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return exit_code != 0 ? exit_code : 74;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"megascale\",\n"
               "  \"metadata\": {\n"
               "    \"smoke\": %s,\n"
               "    \"bidders\": %lld,\n"
               "    \"shards\": %zu,\n"
               "    \"bidders_per_shard\": %d,\n"
               "    \"epochs\": %d,\n"
               "    \"host\": %s\n  },\n",
               smoke ? "true" : "false",
               static_cast<long long>(per_shard) * shards, shards,
               per_shard, epochs, pm::HostMetadataJson().c_str());
  std::fprintf(f, "  \"thread_scaling_meta\": %s,\n",
               pm::SectionHostJson(/*needs_parallelism=*/true).c_str());
  std::fprintf(f, "  \"thread_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(f, "    {\"threads\": %zu, \"epoch_ms\": %.3f}%s\n",
                 scaling[i].first, scaling[i].second,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"megascale_epoch\": {\n"
               "    \"bidders\": %lld,\n"
               "    \"shards\": %zu,\n"
               "    \"epoch_ms\": %.1f,\n"
               "    \"auction_rounds\": %lld,\n"
               "    \"all_converged\": %s,\n"
               "    \"conservation_ok\": %s,\n"
               "    \"metrics_reproducible\": %s\n  }\n}\n",
               static_cast<long long>(per_shard) * shards, shards,
               mega_epoch_ms, mega_rounds,
               mega_converged ? "true" : "false",
               mega_conserved ? "true" : "false",
               mega_reproducible ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return exit_code;
}
