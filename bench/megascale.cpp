// Megascale demand-engine / federation benchmark (ROADMAP: "1M bidders,
// 100+ shards, as fast as the hardware allows").
//
// Three sections, written to --out (default BENCH_megascale.json in the
// working directory):
//   1. kernel_sweep — dense-bundle full-collection microbench across
//      every kernel compiled into this binary (auction/kernels.h).
//      Decisions must be identical to the scalar oracle; end-to-end
//      settled prices must agree within the pairwise-summation error
//      bound. Records the speedup of each kernel over scalar.
//   2. thread_scaling — epoch wall time across shard-pool sizes, with
//      the telemetry registry's deterministic metrics JSON asserted
//      byte-identical across thread counts. Stamped
//      invalid_on_single_vcpu (bench_meta.h).
//   3. megascale_epoch — the headline run: B bidders split over S shards
//      (defaults 1,000,000 x 100) clear one epoch; every shard must
//      converge, every award must conserve units (awarded = placed +
//      refunded under refund_unplaced), and a rerun must reproduce the
//      metrics JSON byte for byte.
//
// Usage:
//   bench_megascale [--smoke] [--threads N] [--kernel K]
//                   [--bidders B] [--shards S] [--epochs E]
//                   [--chrome-trace-out FILE] [--out FILE]
//
// --smoke shrinks every section to CI size and turns the correctness
// gates into the exit code: 1 = a vectorized kernel ran slower than
// scalar on the dense microbench, 2 = a byte-identity gate failed,
// 3 = the megascale epoch failed convergence/conservation. The full run
// applies the same gates (a broken artifact should not look healthy).
// A --smoke run refuses (exit 73, before any work) to overwrite an --out
// file that holds a full-size document, so a smoke run from the repo
// root cannot clobber the committed full-size baseline.
//
// --chrome-trace-out arms the profiler's wall-clock channel on the first
// federation of section 2 and writes its chrome://tracing JSON (one
// track per shard plus the federation track with the epoch, route and
// barrier spans). The wall channel never touches the deterministic
// metrics documents, so the cross-thread byte-identity gate runs
// unchanged with it armed — which is itself part of the contract.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "auction/clock_auction.h"
#include "auction/demand_engine.h"
#include "auction/kernels.h"
#include "common/bench_meta.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "federation/federated_exchange.h"
#include "telemetry/telemetry.h"

namespace {

using pm::auction::ClockAuction;
using pm::auction::ClockAuctionConfig;
using pm::auction::ClockAuctionResult;
using pm::auction::DemandEngine;
using pm::auction::DemandEngineConfig;
using pm::auction::Kernel;

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

template <typename Fn>
double MedianMs(Fn&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(MillisSince(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Dense market: every bidder holds several dense bundles, so full
/// collection cost is dominated by the q·p dot sweeps the kernels
/// vectorize (the arena hot loop, not the bisection bookkeeping).
ClockAuction MakeDenseMarket(int users, int pools, int bundles_per_user,
                             int items_per_bundle, std::uint64_t seed,
                             DemandEngineConfig engine_config) {
  pm::RandomStream rng(seed);
  std::vector<double> supply(static_cast<std::size_t>(pools), 10.0);
  std::vector<double> reserve(static_cast<std::size_t>(pools), 1.0);
  std::vector<pm::bid::Bid> bids;
  bids.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    pm::bid::Bid b;
    b.user = static_cast<pm::UserId>(u);
    b.name = "u" + std::to_string(u);
    for (int k = 0; k < bundles_per_user; ++k) {
      std::vector<pm::bid::BundleItem> items;
      for (int j = 0; j < items_per_bundle; ++j) {
        items.push_back(pm::bid::BundleItem{
            static_cast<pm::PoolId>(rng.UniformInt(0, pools - 1)),
            rng.Uniform(0.5, 4.0)});
      }
      pm::bid::Bundle bundle(std::move(items));
      if (bundle.Empty()) continue;
      b.bundles.push_back(std::move(bundle));
    }
    if (b.bundles.empty()) {
      b.bundles.push_back(pm::bid::Bundle({pm::bid::BundleItem{0, 1.0}}));
    }
    b.limit = rng.Uniform(50.0, 500.0);
    bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(bids);
  return ClockAuction(std::move(bids), std::move(supply),
                      std::move(reserve), engine_config);
}

// ------------------------------------------------------- kernel sweep --

struct KernelResult {
  std::string name;
  double dot_ms = 0.0;           // Raw DotBlockFn over the CSR arena.
  double dot_speedup = 0.0;      // vs the scalar kernel's dot_ms.
  double full_collect_ms = 0.0;  // Whole CollectDemand (Amdahl view).
  double collect_speedup = 0.0;
  bool decisions_identical = true;
  double max_price_diff = 0.0;  // End-to-end settled prices vs scalar.
  double price_bound = 0.0;     // Pairwise error bound at that size.
};

/// Times each kernel's raw block-dot function over a synthetic CSR arena
/// shaped like the dense market's bundles. This isolates the kernel from
/// CollectDemand's argmin/bookkeeping, so it is the number the
/// SIMD-slower-than-scalar regression gate runs on (the full-collection
/// timing is reported too, but it is Amdahl-limited by the scalar
/// bookkeeping around the dot).
std::vector<double> RawDotMs(const std::vector<Kernel>& kernels,
                             std::uint32_t bundles, int items, int pools,
                             int reps) {
  pm::RandomStream rng(7);
  std::vector<std::uint32_t> begin(bundles + 1);
  std::vector<pm::PoolId> pool(static_cast<std::size_t>(bundles) * items);
  std::vector<double> qty(pool.size());
  std::vector<double> price(static_cast<std::size_t>(pools), 2.5);
  std::vector<double> cost(bundles);
  for (std::uint32_t b = 0; b <= bundles; ++b) {
    begin[b] = b * static_cast<std::uint32_t>(items);
  }
  for (auto& p : pool) {
    p = static_cast<pm::PoolId>(rng.UniformInt(0, pools - 1));
  }
  for (auto& q : qty) q = rng.Uniform(0.5, 4.0);
  std::vector<double> out;
  for (const Kernel k : kernels) {
    const pm::auction::DotBlockFn fn = pm::auction::ResolveKernel(k);
    out.push_back(MedianMs(
        [&] {
          fn(begin.data(), pool.data(), qty.data(), price.data(), 0,
             bundles, cost.data());
        },
        reps));
  }
  return out;
}

std::vector<KernelResult> RunKernelSweep(int users, int pools, int reps,
                                         const std::string& only_kernel) {
  ClockAuctionConfig run_config;
  run_config.alpha = 0.4;
  run_config.delta = 0.08;
  run_config.max_rounds = 2000;

  std::vector<Kernel> sweep_kernels;
  for (const Kernel kernel : pm::auction::CompiledKernels()) {
    const std::string name(pm::auction::ToString(kernel));
    if (!only_kernel.empty() && name != only_kernel &&
        kernel != Kernel::kScalar) {
      continue;  // Scalar always runs: it is the oracle and the baseline.
    }
    sweep_kernels.push_back(kernel);
  }
  const std::vector<double> dot_ms = RawDotMs(
      sweep_kernels, /*bundles=*/100000, /*items=*/64, pools, reps);

  std::vector<KernelResult> results;
  std::vector<pm::auction::ProxyDecision> scalar_decisions;
  std::vector<double> scalar_prices;
  double scalar_dot_ms = 0.0;
  double scalar_ms = 0.0;
  double abs_dot_sum = 0.0;
  std::size_t max_items = 0;

  for (std::size_t ki = 0; ki < sweep_kernels.size(); ++ki) {
    const Kernel kernel = sweep_kernels[ki];
    const std::string name(pm::auction::ToString(kernel));
    DemandEngineConfig engine_config;
    engine_config.kernel = kernel;
    // Dense bundles (64 items, most of the pool space) are where the
    // vector kernels earn their keep: the 8-element gather stride runs
    // several full iterations per bundle instead of one.
    const ClockAuction market = MakeDenseMarket(
        users, pools, /*bundles_per_user=*/4, /*items_per_bundle=*/64,
        /*seed=*/20090425, engine_config);
    DemandEngine::Workspace ws;
    const std::vector<double> prices(market.NumPools(), 1.0);
    KernelResult r;
    r.name = name;
    r.dot_ms = dot_ms[ki];
    r.full_collect_ms = MedianMs(
        [&] {
          ws.Reset();
          market.engine().CollectDemand(prices, nullptr, ws);
        },
        reps);
    const ClockAuctionResult run = market.Run(run_config);
    if (kernel == Kernel::kScalar) {
      scalar_dot_ms = r.dot_ms;
      scalar_ms = r.full_collect_ms;
      scalar_decisions = ws.decisions();
      scalar_prices = run.prices;
      // Error-bound inputs: the worst per-bundle |q·p| sum at reserve
      // prices and the largest bundle length.
      for (const pm::bid::Bid& b : market.bids()) {
        for (const pm::bid::Bundle& bundle : b.bundles) {
          double abs_sum = 0.0;
          for (const pm::bid::BundleItem& item : bundle.items()) {
            abs_sum += std::abs(item.qty) * prices[item.pool];
          }
          abs_dot_sum = std::max(abs_dot_sum, abs_sum);
          max_items = std::max(max_items, bundle.items().size());
        }
      }
    } else {
      for (std::size_t u = 0; u < ws.decisions().size(); ++u) {
        r.decisions_identical =
            r.decisions_identical && ws.decisions()[u].bundle_index ==
                                         scalar_decisions[u].bundle_index;
      }
      for (std::size_t p = 0; p < run.prices.size(); ++p) {
        r.max_price_diff = std::max(
            r.max_price_diff, std::abs(run.prices[p] - scalar_prices[p]));
      }
    }
    r.dot_speedup = scalar_dot_ms > 0.0 && r.dot_ms > 0.0
                        ? scalar_dot_ms / r.dot_ms
                        : 1.0;
    r.collect_speedup = scalar_ms > 0.0 && r.full_collect_ms > 0.0
                            ? scalar_ms / r.full_collect_ms
                            : 1.0;
    // Price divergence between kernels comes from bisection thresholds
    // crossed by dot-product rounding; a generous multiple of the
    // per-dot pairwise bound (scaled by the auction's price step) covers
    // the amplification through the clock without hiding real bugs.
    r.price_bound =
        std::max(run_config.delta,
                 1e6 * pm::auction::PairwiseErrorBound(max_items,
                                                       abs_dot_sum));
    results.push_back(std::move(r));
  }
  return results;
}

// ------------------------------------------- federation build helpers --

pm::federation::FederatedExchange BuildFederation(
    std::size_t shards, int bidders_per_shard, std::size_t num_threads,
    const std::string& kernel, bool wall_profiler = false) {
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
    if (!kernel.empty()) {
      spec.market.demand_engine.kernel =
          *pm::auction::ParseKernel(kernel);
    }
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

// ------------------------------------------------------------- JSON --

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads_flag = pm::ParseThreadsFlag(&argc, argv, 0);
  bool smoke = false;
  std::string kernel_flag;
  std::string chrome_trace_out;
  std::string out_path = "BENCH_megascale.json";
  long long bidders = 1000000;
  std::size_t shards = 100;
  int epochs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--kernel" && i + 1 < argc) {
      kernel_flag = argv[++i];
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
                   "[--kernel K] [--bidders B] [--shards S] "
                   "[--epochs E] [--chrome-trace-out FILE] "
                   "[--out FILE]\n");
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
  if (!kernel_flag.empty() &&
      !pm::auction::ParseKernel(kernel_flag).has_value()) {
    std::fprintf(stderr, "unknown --kernel '%s'\n", kernel_flag.c_str());
    return 64;
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

  // 1. Kernel sweep. Smoke keeps the dense problem large enough that a
  //    vectorized kernel's win clears timer noise on one run.
  const int sweep_users = smoke ? 4000 : 20000;
  const int sweep_reps = smoke ? 5 : 15;
  std::printf("kernel sweep: %d dense bidders x 100 pools...\n",
              sweep_users);
  const std::vector<KernelResult> kernels =
      RunKernelSweep(sweep_users, 100, sweep_reps, kernel_flag);
  double best_vector_speedup = 0.0;
  std::string best_vector_kernel;
  for (const KernelResult& r : kernels) {
    std::printf("  %-8s dot %7.3f ms (%5.2fx)  collect %7.3f ms "
                "(%5.2fx)%s%s\n",
                r.name.c_str(), r.dot_ms, r.dot_speedup,
                r.full_collect_ms, r.collect_speedup,
                r.decisions_identical ? "" : "  DECISIONS DIVERGED",
                r.max_price_diff <= r.price_bound ? ""
                                                  : "  PRICES DIVERGED");
    if (r.name != "scalar" && r.name != "unrolled" &&
        r.dot_speedup > best_vector_speedup) {
      best_vector_speedup = r.dot_speedup;
      best_vector_kernel = r.name;
    }
    if (!r.decisions_identical || r.max_price_diff > r.price_bound) {
      exit_code = 2;
    }
  }
  if (!best_vector_kernel.empty() && best_vector_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: vectorized kernel %s is SLOWER than scalar "
                 "(%.2fx) on the dense-bundle dot microbench\n",
                 best_vector_kernel.c_str(), best_vector_speedup);
    exit_code = 1;
  }

  // 2. Thread scaling of the epoch loop, metrics asserted
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
          gate_shards, gate_bidders, t, kernel_flag, trace);
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

  // 3. The megascale epoch itself.
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
        BuildFederation(shards, per_shard, pool_threads, kernel_flag);
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
        shards, per_shard, pool_threads == 1 ? 2 : 1, kernel_flag);
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
  std::fprintf(f, "  \"kernel_sweep\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& r = kernels[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"dot_ms\": %.4f, "
                 "\"dot_speedup_vs_scalar\": %.3f, "
                 "\"full_collect_ms\": %.4f, "
                 "\"collect_speedup_vs_scalar\": %.3f, "
                 "\"decisions_identical\": %s, "
                 "\"max_price_diff\": %.3e, \"price_bound\": %.3e}%s\n",
                 JsonEscape(r.name).c_str(), r.dot_ms, r.dot_speedup,
                 r.full_collect_ms, r.collect_speedup,
                 r.decisions_identical ? "true" : "false",
                 r.max_price_diff, r.price_bound,
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
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
