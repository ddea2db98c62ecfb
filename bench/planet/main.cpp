// planetbench: the epoch benchmark's load generator.
//
// One process runs one workload as a closed loop with one client (the
// next op starts when the previous one returns) and prints one JSON
// document of raw samples on stdout; bench/planet/run.py turns samples
// into metrics, pools processes and checks digests across them.
//
//   planetbench --workload market-1k --seed 20090425 --seconds 25
//   planetbench --workload clock-dense --seed 7 --ops 30 --trace
//   planetbench --workload planet-economy --seed 7 --ops 120 --trace
//       --trace-out DIR
//
// Workloads (bench/planet/README.md says why each exists):
//   market-1k       one exchange::Market, 1,000 teams over 200 clusters
//   big-clusters    one Market, 300 teams over 20 clusters of 200-400
//                   machines with small task shapes (placement-bound)
//   clock-dense     a synthetic 20,000-bidder book cleared by
//                   auction::ClockAuction (demand-engine-bound)
//   planet-economy  federation::FederatedExchange, 8 shards x 200 teams
//                   with treasury, arbitrage, rebalancer, supervisor and
//                   telemetry on
//
// The seed generates a few independent worlds (WorldsFor); a pass runs
// one deterministic episode on each, and passes repeat until the budget
// is spent, so every pass does identical work and must yield identical
// outcome digests. With --trace each op is additionally broken down by
// layer from the outside: the market workloads replay RunAuction's steps
// on a twin world (which must reproduce the market byte for byte),
// clock-dense alternates untraced and phase-timed ops, and planet-economy
// runs a twin federation with the profiler's wall channel armed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agents/workload_gen.h"
#include "auction/clock_auction.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "bid/bid.h"
#include "common/phase_span.h"
#include "common/rng.h"
#include "exchange/accounts.h"
#include "exchange/endowment.h"
#include "exchange/ledger.h"
#include "exchange/market.h"
#include "exchange/settlement_pipeline.h"
#include "federation/federated_exchange.h"
#include "reserve/reserve_pricer.h"
#include "reserve/weighting.h"

namespace {

using pm::PhaseNowNs;

double MsBetween(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

// ------------------------------------------------------------- options --

struct Options {
  std::string workload;
  std::uint64_t seed = 20090425;
  double seconds = 0.0;  // Measure whole passes for about this long...
  int ops = 0;           // ...or until at least this many ops ran.
  bool trace = false;
  bool smoke = false;    // Every workload at ~1/20 size.
  std::string trace_out; // Directory for the outside-span trace (--trace).
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "planetbench: " << problem << "\n"
            << "usage: planetbench --workload NAME --seed S "
               "(--seconds T | --ops N) [--trace] [--smoke] "
               "[--trace-out DIR]\n";
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--ops") {
      o.ops = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if ((o.seconds > 0.0) == (o.ops > 0)) {
    Usage("give exactly one of --seconds and --ops");
  }
  return o;
}

// -------------------------------------------------------------- digest --

/// FNV-1a over the raw bytes of an outcome: equal digests mean
/// bit-identical prices and awards.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void Double(double v) { Bytes(&v, sizeof v); }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(double));
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Prices, awards with their placement outcomes, and the fleet after the
/// round: everything a replay must reproduce.
void DigestReport(Digest& d, const pm::exchange::AuctionReport& r) {
  d.U64(static_cast<std::uint64_t>(r.auction_index));
  d.U64(r.num_bids);
  d.U64(r.converged ? 1 : 0);
  d.Doubles(r.reserve_prices);
  d.Doubles(r.settled_prices);
  d.U64(r.awards.size());
  for (const pm::exchange::AwardRecord& a : r.awards) {
    d.Str(a.team);
    d.Str(a.bid_name);
    d.U64(static_cast<std::uint64_t>(a.bundle_index));
    d.Double(a.payment);
    d.Double(a.outcome.awarded_units);
    d.Double(a.outcome.placed_units);
    d.Double(a.outcome.refunded_units);
    d.Double(a.outcome.refund);
  }
  d.U64(r.trades.size());
  for (const pm::exchange::TradeSample& t : r.trades) {
    d.Double(t.util_percentile);
    d.Double(t.qty);
  }
  d.U64(r.moves.size());
  d.U64(r.jobs_added);
  d.U64(r.jobs_removed);
  d.U64(r.placement_failures);
  d.Doubles(r.post_utilization);
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------ recorder --

/// Per-op layer samples plus the outside spans behind them. Time() wraps
/// one call into a layer: it adds the call's milliseconds to the layer's
/// `<name>_ms` sample for the current op and, when spans are kept,
/// records one span. EndOp() closes the op: every metric seen so far
/// gets one sample (zero when the layer was not called this op).
class Recorder {
 public:
  struct SpanRecord {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    int op = 0;
  };

  explicit Recorder(bool keep_spans) : keep_spans_(keep_spans) {}

  template <typename Fn>
  auto Time(const std::string& layer, Fn&& fn) -> decltype(fn()) {
    const std::uint64_t begin = PhaseNowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(layer, begin, PhaseNowNs());
    } else {
      auto result = fn();
      Close(layer, begin, PhaseNowNs());
      return result;
    }
  }

  /// Adds an externally measured span (e.g. one of the program's own
  /// phase spans) to the layer's op sample.
  void Close(const std::string& layer, std::uint64_t begin_ns,
             std::uint64_t end_ns) {
    current_[layer + "_ms"] += MsBetween(begin_ns, end_ns);
    if (keep_spans_) spans_.push_back({layer, begin_ns, end_ns, op_});
  }

  void Add(const std::string& metric, double value) {
    current_[metric] += value;
  }

  void Span(const std::string& name, std::uint64_t begin_ns,
            std::uint64_t end_ns) {
    if (keep_spans_) spans_.push_back({name, begin_ns, end_ns, op_});
  }

  void EndOp() {
    for (auto& [name, samples] : per_op_) {
      auto it = current_.find(name);
      samples.push_back(it == current_.end() ? 0.0 : it->second);
    }
    for (const auto& [name, value] : current_) {
      auto [it, inserted] = per_op_.try_emplace(name);
      if (inserted) {
        it->second.assign(static_cast<std::size_t>(op_), 0.0);
        it->second.push_back(value);
      }
    }
    current_.clear();
    ++op_;
  }

  void Episode(const std::string& metric, double value) {
    per_episode_[metric].push_back(value);
  }

  /// The current op's value of `metric` so far.
  double Current(const std::string& metric) const {
    auto it = current_.find(metric);
    return it == current_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, std::vector<double>>& per_op() const {
    return per_op_;
  }
  const std::map<std::string, std::vector<double>>& per_episode() const {
    return per_episode_;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool keep_spans_;
  int op_ = 0;
  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> per_op_;
  std::map<std::string, std::vector<double>> per_episode_;
  std::vector<SpanRecord> spans_;
};

// -------------------------------------------------------------- result --

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// What one process reports: raw samples, counts and checks.
struct Result {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  double bids = 0.0;
  int failed_ops = 0;
  double awarded_units = 0.0;
  double placed_units = 0.0;
  long peak_rss_kb = 0;
  /// One digest per world, per pass over the worlds.
  std::vector<std::vector<std::uint64_t>> pass_digests;
  std::vector<Check> checks;
  std::string program_trace;  // planet-economy's own ChromeTraceJson().

  /// Records a check once per name; a later failure overwrites a pass.
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    for (Check& c : checks) {
      if (c.name != name) continue;
      if (c.ok && !ok) {
        c.ok = false;
        c.detail = detail;
      }
      return;
    }
    checks.push_back({name, ok, ok ? std::string() : detail});
  }
};

/// awarded == placed + refunded on every award (relative error <= 1e-9)
/// when unplaced units are refunded; placed <= awarded otherwise.
void CheckAwards(Result& out, const pm::exchange::AuctionReport& r,
                 bool refund_unplaced) {
  for (const pm::exchange::AwardRecord& a : r.awards) {
    const pm::exchange::PlacementOutcome& o = a.outcome;
    out.awarded_units += o.awarded_units;
    out.placed_units += o.placed_units;
    const double scale = std::max(1.0, std::abs(o.awarded_units));
    if (refund_unplaced) {
      const double err =
          std::abs(o.awarded_units - o.placed_units - o.refunded_units);
      out.Expect("awarded == placed + refunded", err <= 1e-9 * scale,
                 a.bid_name + ": awarded " + std::to_string(o.awarded_units) +
                     ", placed " + std::to_string(o.placed_units) +
                     ", refunded " + std::to_string(o.refunded_units));
    } else {
      out.Expect("placed <= awarded",
                 o.placed_units <= o.awarded_units + 1e-9 * scale,
                 a.bid_name + ": placed more than awarded");
    }
  }
}

double AuditTolerance(const pm::auction::ClockAuctionConfig& config) {
  // The SYSTEM audit must tolerate the configured demand tolerance, as
  // Market::RunAuction's own audit does.
  return std::max(1e-6, config.demand_eps);
}

/// Independent worlds per process. One world's handful of epochs is a
/// small sample of its market's dynamics, so medians taken over a single
/// world swing with the seed (big-clusters: 25% between seeds); pooling
/// the epochs of several worlds generated from the seed steadies them.
int WorldsFor(const Options& opt) {
  if (opt.smoke) return 2;
  if (opt.workload == "market-1k") return 4;
  if (opt.workload == "big-clusters") return 12;
  return 3;  // clock-dense, planet-economy
}

/// World k's seed, derived from the run's seed.
std::uint64_t WorldSeed(std::uint64_t seed, int world) {
  return pm::SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL *
                                (static_cast<std::uint64_t>(world) + 1)))
      .Next();
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Runs passes over every world until the op or time budget is spent.
/// `pass(k)` runs pass k, appends one digest per world to
/// out.pass_digests and returns its op count. Under --seconds another
/// pass starts only if the last one would still fit, so a run measures
/// about the budget and every world equally often. Peak memory is read
/// after the first pass: by then every world is built and has run, and
/// the reading is free of the allocator drift of a long loop.
template <typename PassFn>
void RunPasses(const Options& opt, Result& out, PassFn&& pass) {
  const std::uint64_t start = PhaseNowNs();
  int ops = 0;
  for (int k = 0;; ++k) {
    const std::uint64_t begin = PhaseNowNs();
    out.pass_digests.emplace_back();
    ops += pass(k);
    if (k == 0) out.peak_rss_kb = PeakRssKb();
    const double last_ms = MsBetween(begin, PhaseNowNs());
    if (opt.ops > 0) {
      if (ops >= opt.ops) break;
    } else if (MsBetween(start, PhaseNowNs()) + last_ms >
               opt.seconds * 1000.0) {
      break;
    }
  }
  bool same = true;
  for (const std::vector<std::uint64_t>& digests : out.pass_digests) {
    same = same && digests == out.pass_digests.front();
  }
  out.Expect("every pass yields the same digests", same,
             "a world's outcome changed between passes");
}

/// Untimed ops before measuring: the first ops of a process run slower
/// while the allocator and page tables fill (about 10% over the first
/// half second). A fixed count, not a time, keeps the heap, and so the
/// peak-memory reading, the same from run to run.
template <typename OpFn>
void WarmUp(const Options& opt, int count, OpFn&& op) {
  for (int i = 0; i < (opt.smoke ? 1 : count); ++i) op();
}

// ------------------------------------------------------ market workloads --

struct MarketSpec {
  pm::agents::WorkloadConfig workload;
  pm::exchange::MarketConfig market;
  int episode_len = 5;
};

MarketSpec MarketSpecFor(const Options& opt, int world) {
  MarketSpec spec;
  spec.workload.seed = WorldSeed(opt.seed, world);
  if (opt.workload == "market-1k") {
    spec.workload.num_teams = opt.smoke ? 50 : 1000;
    spec.workload.num_clusters = opt.smoke ? 10 : 200;
  } else {  // big-clusters
    spec.workload.num_teams = opt.smoke ? 15 : 300;
    spec.workload.num_clusters = opt.smoke ? 2 : 20;
    spec.workload.min_machines_per_cluster = opt.smoke ? 100 : 200;
    spec.workload.max_machines_per_cluster = opt.smoke ? 200 : 400;
    spec.market.max_task_shape = pm::cluster::TaskShape{1.0, 4.0, 0.5};
    spec.market.settlement.refund_unplaced = true;
  }
  spec.market.seed = spec.workload.seed ^ 0x6d61726b6574ULL;
  return spec;
}

struct MarketWorld {
  std::unique_ptr<pm::agents::World> world;
  std::unique_ptr<pm::exchange::Market> market;
};

MarketWorld BuildMarketWorld(const MarketSpec& spec) {
  MarketWorld w;
  w.world = std::make_unique<pm::agents::World>(
      pm::agents::GenerateWorld(spec.workload));
  w.market = std::make_unique<pm::exchange::Market>(
      &w.world->fleet, &w.world->agents, w.world->fixed_prices, spec.market);
  return w;
}

/// The replay's top-level steps, in RunAuction's order; their times plus
/// replay.unattributed_ms make up the replayed epoch. (auction.collect
/// and auction.bisect are phases inside auction.run.)
constexpr const char* kReplaySteps[] = {
    "cluster.fleet_vectors",  "reserve.price",
    "exchange.endow",         "agents.make_bids",
    "bid.validate",           "auction.compile",
    "auction.run",            "auction.system_check",
    "auction.settle",         "cluster.utilization_percentile",
    "exchange.settlement_pipeline", "exchange.refresh_profiles",
    "agents.observe_outcome"};

/// Market::RunAuction rebuilt from its public layer calls, each timed
/// from outside, on a twin world. The holder market over the twin world
/// is used only to restore fleet and agents from the setup snapshot and
/// for its quota bootstrap; ledger, accounts and quota are the replay's
/// own, exactly as the market keeps them privately.
class LayerReplay {
 public:
  explicit LayerReplay(const MarketSpec& spec)
      : spec_(spec),
        twin_(BuildMarketWorld(spec)),
        pricer_(spec.market.weighting != nullptr
                    ? spec.market.weighting
                    : std::shared_ptr<const pm::reserve::WeightingFunction>(
                          pm::reserve::MakeExp2Weighting())) {}

  // accounts_ points at ledger_.
  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  /// Rewinds to the setup snapshot (taken before the first auction); must
  /// precede the first RunEpoch.
  void Reset(const std::vector<std::uint8_t>& snapshot) {
    twin_.market->Restore(snapshot);
    ledger_ = pm::exchange::Ledger();
    accounts_ = std::make_unique<pm::exchange::MarketAccounts>(&ledger_);
    quota_ = twin_.market->quota();
    next_job_id_ = kFirstMarketJobId;
    endowed_ = false;
    auction_index_ = 0;
  }

  pm::exchange::AuctionReport RunEpoch(Recorder& rec);

 private:
  /// The first id Market hands to jobs it creates (market.h).
  static constexpr pm::cluster::JobId kFirstMarketJobId = 1'000'000;

  struct Origin {
    std::size_t agent = 0;
    std::size_t local = 0;
  };

  const MarketSpec& spec_;
  MarketWorld twin_;
  pm::reserve::ReservePricer pricer_;
  pm::exchange::Ledger ledger_;
  std::unique_ptr<pm::exchange::MarketAccounts> accounts_;
  pm::cluster::QuotaTable quota_;
  pm::cluster::JobId next_job_id_ = kFirstMarketJobId;
  bool endowed_ = false;
  int auction_index_ = 0;
};

pm::exchange::AuctionReport LayerReplay::RunEpoch(Recorder& rec) {
  namespace ex = pm::exchange;
  pm::cluster::Fleet& fleet = twin_.world->fleet;
  std::vector<pm::agents::TeamAgent>& agents = twin_.world->agents;
  const ex::MarketConfig& config = spec_.market;

  ex::AuctionReport report;
  report.auction_index = auction_index_;
  report.fixed_prices = twin_.market->fixed_prices();
  std::vector<double> cost;
  rec.Time("cluster.fleet_vectors", [&] {
    report.pre_utilization = fleet.UtilizationVector();
    cost = fleet.CostVector();
  });
  report.reserve_prices = rec.Time("reserve.price", [&] {
    return pricer_.Price(fleet.registry(), report.pre_utilization, cost);
  });

  if (!endowed_) {
    rec.Time("exchange.endow", [&] {
      const std::vector<pm::Money> endowments = ex::ComputeEndowments(
          fleet.registry(), agents, report.fixed_prices, config.endowment);
      for (std::size_t a = 0; a < agents.size(); ++a) {
        accounts_->Endow(agents[a].profile().name, endowments[a],
                         "initial endowment");
      }
    });
    endowed_ = true;
  }

  std::vector<double> supply =
      rec.Time("cluster.fleet_vectors", [&] { return fleet.FreeVector(); });
  for (double& s : supply) s *= config.supply_fraction;

  // Bid generation. Every agent bids before any bid is validated; the
  // market interleaves the two per agent, but validation reads only the
  // bid and the budget, so the collected book is the same.
  std::vector<double> budgets(agents.size());
  std::vector<std::vector<pm::bid::Bid>> made(agents.size());
  rec.Time("agents.make_bids", [&] {
    for (std::size_t a = 0; a < agents.size(); ++a) {
      pm::agents::MarketView view;
      view.registry = &fleet.registry();
      view.reserve_prices = report.reserve_prices;
      view.utilization = report.pre_utilization;
      view.free_capacity = supply;
      view.budget = accounts_->BudgetOf(agents[a].profile().name).ToDouble();
      view.auction_index = auction_index_;
      budgets[a] = view.budget;
      made[a] = agents[a].MakeBids(view);
    }
  });

  std::vector<pm::bid::Bid> bids;
  std::vector<Origin> origin;
  std::vector<std::size_t> per_agent(agents.size(), 0);
  rec.Time("bid.validate", [&] {
    for (std::size_t a = 0; a < agents.size(); ++a) {
      per_agent[a] = made[a].size();
      for (std::size_t i = 0; i < made[a].size(); ++i) {
        pm::bid::Bid& b = made[a][i];
        if (b.limit > budgets[a]) b.limit = budgets[a];
        for (double& limit : b.bundle_limits) {
          if (limit > budgets[a]) limit = budgets[a];
        }
        if (!pm::bid::ValidateBid(b, fleet.NumPools()).empty()) continue;
        origin.push_back(Origin{a, i});
        bids.push_back(std::move(b));
      }
    }
    pm::bid::AssignUserIds(bids);
  });
  report.num_bids = bids.size();
  rec.Add("agents.bids", static_cast<double>(bids.size()));

  std::optional<pm::auction::ClockAuction> auction;
  rec.Time("auction.compile", [&] {
    auction.emplace(bids, supply, report.reserve_prices,
                    config.demand_engine);
  });
  pm::auction::ClockAuctionConfig timed = config.auction;
  timed.collect_phase_timings = true;
  const pm::auction::ClockAuctionResult result =
      rec.Time("auction.run", [&] { return auction->Run(timed); });
  for (const pm::PhaseSpan& span : result.phases) {
    rec.Close("auction." + span.name, span.begin_ns, span.end_ns);
  }
  report.rounds = result.rounds;
  report.converged = result.converged;
  report.demand_evaluations = result.demand_evaluations;
  report.settled_prices = result.prices;
  rec.Add("auction.rounds", result.rounds);
  rec.Add("auction.demand_evaluations",
          static_cast<double>(result.demand_evaluations));
  rec.Add("auction.proxies_reevaluated",
          static_cast<double>(result.proxies_reevaluated));
  rec.Add("auction.bisection_probes",
          static_cast<double>(result.bisection_probes));
  rec.Add("auction.dot_blocks", static_cast<double>(result.dot_blocks));
  rec.Add("auction.dirty_bidders", static_cast<double>(result.dirty_bidders));
  rec.Add("auction.full_collections",
          static_cast<double>(result.full_collections));
  rec.Add("auction.incremental_collections",
          static_cast<double>(result.incremental_collections));

  if (config.audit_system && result.converged) {
    const pm::auction::SystemCheckResult audit =
        rec.Time("auction.system_check", [&] {
          return pm::auction::CheckSystemConstraints(
              *auction, result, AuditTolerance(config.auction));
        });
    PM_CHECK_MSG(audit.Feasible(),
                 "SYSTEM constraints violated: " << audit.ToString());
  }

  const pm::auction::Settlement settlement =
      rec.Time("auction.settle", [&] {
        pm::auction::Settlement s = pm::auction::Settle(*auction, result);
        report.premium = pm::auction::ComputePremiumStats(s);
        return s;
      });
  report.num_winners = settlement.awards.size();
  report.settled_fraction = settlement.settled_fraction;
  report.operator_revenue = settlement.operator_revenue;

  // Trade recording: one utilization-percentile lookup per traded item
  // (Figure 7's samples).
  rec.Time("cluster.utilization_percentile", [&] {
    const pm::PoolRegistry& registry = fleet.registry();
    double calls = 0.0;
    for (const pm::auction::Award& award : settlement.awards) {
      const pm::bid::Bid& b = bids[award.user];
      const pm::bid::Bundle& bundle =
          b.bundles[static_cast<std::size_t>(award.bundle_index)];
      for (const pm::bid::BundleItem& item : bundle.items()) {
        const pm::PoolKey& key = registry.KeyOf(item.pool);
        if (!fleet.HasCluster(key.cluster)) continue;
        ex::TradeSample sample;
        sample.kind = key.kind;
        sample.is_bid = item.qty > 0.0;
        sample.qty = std::abs(item.qty);
        sample.team = agents[origin[award.user].agent].profile().name;
        sample.util_percentile =
            fleet.UtilizationPercentile(key.cluster, key.kind);
        report.trades.push_back(std::move(sample));
        calls += 1.0;
      }
    }
    rec.Add("cluster.utilization_percentile_calls", calls);
  });

  rec.Time("exchange.settlement_pipeline", [&] {
    std::vector<ex::SettlementPipeline::AwardInput> inputs;
    inputs.reserve(settlement.awards.size());
    for (const pm::auction::Award& award : settlement.awards) {
      ex::SettlementPipeline::AwardInput input;
      input.bid = &bids[award.user];
      input.award = &award;
      input.team = agents[origin[award.user].agent].profile().name;
      input.agent = origin[award.user].agent;
      inputs.push_back(std::move(input));
    }
    ex::SettlementPipeline pipeline(&fleet, &agents, &quota_, accounts_.get(),
                                    config.settlement, config.max_task_shape,
                                    &next_job_id_);
    pipeline.Execute(inputs, report.settled_prices, report);
  });
  rec.Add("exchange.jobs_added", static_cast<double>(report.jobs_added));
  rec.Add("exchange.moves", static_cast<double>(report.moves.size()));
  rec.Add("exchange.placement_failures",
          static_cast<double>(report.placement_failures));

  // Profile refresh: footprints and home clusters from the fleet's jobs.
  rec.Time("exchange.refresh_profiles", [&] {
    std::unordered_map<std::string, pm::cluster::TaskShape> footprints;
    std::unordered_map<std::string, std::unordered_map<std::string, double>>
        cpu_by_cluster;
    for (const pm::cluster::JobLocation& loc : fleet.AllJobs()) {
      const pm::cluster::Job* job =
          fleet.ClusterByName(loc.cluster).FindJob(loc.job);
      PM_CHECK(job != nullptr);
      footprints[job->team] += job->TotalDemand();
      cpu_by_cluster[job->team][loc.cluster] += job->TotalDemand().cpu;
    }
    for (pm::agents::TeamAgent& agent : agents) {
      pm::agents::TeamProfile& profile = agent.mutable_profile();
      auto it = footprints.find(profile.name);
      if (it == footprints.end()) continue;
      profile.footprint = it->second;
      double best_cpu = 0.0;
      for (const auto& [cluster_name, cpu] : cpu_by_cluster[profile.name]) {
        if (cpu > best_cpu) {
          best_cpu = cpu;
          profile.home_cluster = cluster_name;
        }
      }
    }
  });

  rec.Time("agents.observe_outcome", [&] {
    std::vector<std::vector<pm::agents::BidOutcome>> outcomes(agents.size());
    for (std::size_t a = 0; a < agents.size(); ++a) {
      outcomes[a].resize(per_agent[a]);
    }
    for (std::size_t a = 0; a < settlement.awards.size(); ++a) {
      const pm::auction::Award& award = settlement.awards[a];
      const Origin& o = origin[award.user];
      pm::agents::BidOutcome outcome;
      outcome.won = true;
      outcome.bundle_index = award.bundle_index;
      outcome.payment = award.payment;
      if (config.outcome_feedback) {
        const ex::PlacementOutcome& placed = report.awards[a].outcome;
        outcome.awarded_units = placed.awarded_units;
        outcome.placed_units = placed.placed_units;
        for (const ex::PoolFill& fill : placed.fills) {
          if (fill.placed < fill.awarded) {
            outcome.unplaced_pools.push_back(fill.pool);
          }
        }
      }
      outcomes[o.agent][o.local] = std::move(outcome);
    }
    for (std::size_t a = 0; a < agents.size(); ++a) {
      agents[a].ObserveOutcome(report.settled_prices, outcomes[a]);
    }
  });

  rec.Time("cluster.fleet_vectors",
           [&] { report.post_utilization = fleet.UtilizationVector(); });
  ++auction_index_;
  return report;
}

Result RunMarketWorkload(const Options& opt, Recorder& rec) {
  const int worlds = WorldsFor(opt);
  std::vector<MarketSpec> specs;
  for (int w = 0; w < worlds; ++w) specs.push_back(MarketSpecFor(opt, w));
  const bool refund_unplaced = specs.front().market.settlement.refund_unplaced;
  const int episode_len = specs.front().episode_len;

  // Set-up: each world's generation, market construction and the snapshot
  // every episode restores.
  Result out;
  std::vector<MarketWorld> markets(static_cast<std::size_t>(worlds));
  std::vector<std::vector<std::uint8_t>> snapshots(markets.size());
  for (std::size_t w = 0; w < markets.size(); ++w) {
    const std::uint64_t begin = PhaseNowNs();
    markets[w] = BuildMarketWorld(specs[w]);
    snapshots[w] = markets[w].market->Snapshot();
    out.setup_s.push_back(MsBetween(begin, PhaseNowNs()) / 1000.0);
  }
  std::vector<std::unique_ptr<LayerReplay>> replays;
  if (opt.trace) {
    for (const MarketSpec& spec : specs) {
      replays.push_back(std::make_unique<LayerReplay>(spec));
    }
  }
  // One episode on the first world (about a second).
  WarmUp(opt, 1, [&] {
    markets[0].market->Restore(snapshots[0]);
    for (int e = 0; e < episode_len; ++e) markets[0].market->RunAuction();
  });

  bool replay_matches = true;
  RunPasses(opt, out, [&](int) {
    for (std::size_t w = 0; w < markets.size(); ++w) {
      pm::exchange::Market& market = *markets[w].market;
      const std::uint64_t restore_begin = PhaseNowNs();
      market.Restore(snapshots[w]);
      const std::uint64_t restore_end = PhaseNowNs();
      rec.Episode("exchange.restore_ms",
                  MsBetween(restore_begin, restore_end));
      rec.Span("exchange.restore", restore_begin, restore_end);
      if (opt.trace) replays[w]->Reset(snapshots[w]);
      Digest episode;
      for (int e = 0; e < episode_len; ++e) {
        const std::uint64_t begin = PhaseNowNs();
        const pm::exchange::AuctionReport report = market.RunAuction();
        const std::uint64_t end = PhaseNowNs();
        out.op_ms.push_back(MsBetween(begin, end));
        rec.Span("market.run_auction", begin, end);
        out.bids += static_cast<double>(report.num_bids);
        if (!report.converged) ++out.failed_ops;
        CheckAwards(out, report, refund_unplaced);
        Digest op;
        DigestReport(op, report);
        episode.U64(op.value());
        if (!opt.trace) continue;

        const std::uint64_t rbegin = PhaseNowNs();
        const pm::exchange::AuctionReport twin = replays[w]->RunEpoch(rec);
        const std::uint64_t rend = PhaseNowNs();
        rec.Span("replay.epoch", rbegin, rend);
        double stepped = 0.0;
        for (const char* step : kReplaySteps) {
          stepped += rec.Current(std::string(step) + "_ms");
        }
        rec.Add("replay.op_ms", MsBetween(rbegin, rend));
        rec.Add("replay.unattributed_ms", MsBetween(rbegin, rend) - stepped);
        rec.Add("market.op_ms", MsBetween(begin, end));
        rec.EndOp();
        Digest twin_digest;
        DigestReport(twin_digest, twin);
        replay_matches = replay_matches && twin_digest.value() == op.value();
      }
      out.pass_digests.back().push_back(episode.value());
    }
    return worlds * episode_len;
  });
  if (opt.trace) {
    out.Expect("layer replay reproduces the market byte for byte",
               replay_matches,
               "replayed prices/awards differ from Market::RunAuction");
  }
  out.Expect("SYSTEM audit is on", specs.front().market.audit_system,
             "MarketConfig::audit_system is off");
  return out;
}

// --------------------------------------------------------- clock-dense --

struct Book {
  std::vector<pm::bid::Bid> bids;
  std::vector<double> supply;
  std::vector<double> reserve;
};

/// 20,000 bidders, each an XOR of 4 bundles x 16 items over 600 pools.
Book GenerateBook(std::uint64_t seed, bool smoke) {
  const int users = smoke ? 1000 : 20000;
  const int pools = 600;
  const int bundles = 4;
  const int items = 16;
  pm::RandomStream rng(seed);
  Book book;
  // The operator sells 15% of the expected per-pool demand at reserve, so
  // prices must climb well above reserve (tens of rounds) to clear. Supply
  // scales with the book, so the clearing depth does not depend on the
  // smoke size.
  const double per_pool_demand = users * items * 2.25 / pools;
  book.supply.assign(pools, 0.15 * per_pool_demand);
  book.reserve.assign(pools, 1.0);
  book.bids.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    pm::bid::Bid b;
    b.name = "u" + std::to_string(u);
    for (int k = 0; k < bundles; ++k) {
      std::vector<pm::bid::BundleItem> bundle_items;
      bundle_items.reserve(items);
      for (int j = 0; j < items; ++j) {
        bundle_items.push_back(pm::bid::BundleItem{
            static_cast<pm::PoolId>(rng.UniformInt(0, pools - 1)),
            rng.Uniform(0.5, 4.0)});
      }
      b.bundles.emplace_back(std::move(bundle_items));
    }
    b.limit = rng.Uniform(40.0, 400.0);
    book.bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(book.bids);
  return book;
}

Result RunClockDense(const Options& opt, Recorder& rec) {
  Result out;
  std::vector<Book> books;
  for (int w = 0; w < WorldsFor(opt); ++w) {
    const std::uint64_t begin = PhaseNowNs();
    books.push_back(GenerateBook(WorldSeed(opt.seed, w), opt.smoke));
    out.setup_s.push_back(MsBetween(begin, PhaseNowNs()) / 1000.0);
  }
  const pm::auction::ClockAuctionConfig config =
      pm::exchange::DefaultMarketAuctionConfig();
  pm::auction::ClockAuctionConfig timed = config;
  timed.collect_phase_timings = true;

  // One op: compile the arena (construct) and run the clock. The bid copy
  // each op consumes is made before the clock starts. With `audit` the
  // result is checked against the SYSTEM constraints after the clock
  // stops.
  const auto run_op = [&](const Book& book, bool traced, bool audit,
                          Digest& digest) {
    std::vector<pm::bid::Bid> bids = book.bids;
    const std::uint64_t begin = PhaseNowNs();
    std::optional<pm::auction::ClockAuction> auction;
    pm::auction::ClockAuctionResult result;
    if (traced) {
      rec.Time("auction.compile", [&] {
        auction.emplace(std::move(bids), book.supply, book.reserve);
      });
      result = rec.Time("auction.run", [&] { return auction->Run(timed); });
      for (const pm::PhaseSpan& span : result.phases) {
        rec.Close("auction." + span.name, span.begin_ns, span.end_ns);
      }
    } else {
      auction.emplace(std::move(bids), book.supply, book.reserve);
      result = auction->Run(config);
    }
    const double ms = MsBetween(begin, PhaseNowNs());
    digest.Doubles(result.prices);
    for (const pm::auction::ProxyDecision& d : result.decisions) {
      digest.U64(static_cast<std::uint64_t>(d.bundle_index));
    }
    if (audit) {
      out.Expect("clock-dense converges", result.converged,
                 "the last op did not converge");
      const pm::auction::SystemCheckResult check =
          pm::auction::CheckSystemConstraints(*auction, result,
                                              AuditTolerance(config));
      out.Expect("SYSTEM audit passes on the last op", check.Feasible(),
                 check.ToString());
    }
    return std::make_pair(ms, std::move(result));
  };

  WarmUp(opt, 8, [&] {  // About a second.
    Digest unused;
    run_op(books.front(), false, false, unused);
  });

  RunPasses(opt, out, [&](int) {
    for (const Book& book : books) {
      Digest digest;
      const auto [ms, result] = run_op(book, false, false, digest);
      out.op_ms.push_back(ms);
      out.bids += static_cast<double>(book.bids.size());
      if (!result.converged) ++out.failed_ops;
      out.pass_digests.back().push_back(digest.value());
      if (!opt.trace) continue;

      // Alternate: the untraced op above, then the same op with phase
      // timings and outside spans, for the tracing-overhead ratio.
      Digest traced_digest;
      const auto [traced_ms, traced] =
          run_op(book, true, false, traced_digest);
      out.Expect("traced op matches the untraced op",
                 traced_digest.value() == digest.value(),
                 "phase timings changed the clearing outcome");
      rec.Add("untraced.op_ms", ms);
      rec.Add("traced.op_ms", traced_ms);
      rec.Add("agents.bids", static_cast<double>(book.bids.size()));
      rec.Add("auction.rounds", traced.rounds);
      rec.Add("auction.demand_evaluations",
              static_cast<double>(traced.demand_evaluations));
      rec.Add("auction.proxies_reevaluated",
              static_cast<double>(traced.proxies_reevaluated));
      rec.Add("auction.bisection_probes",
              static_cast<double>(traced.bisection_probes));
      rec.Add("auction.dot_blocks", static_cast<double>(traced.dot_blocks));
      rec.Add("auction.dirty_bidders",
              static_cast<double>(traced.dirty_bidders));
      rec.Add("auction.full_collections",
              static_cast<double>(traced.full_collections));
      rec.Add("auction.incremental_collections",
              static_cast<double>(traced.incremental_collections));
      rec.EndOp();
    }
    return static_cast<int>(books.size());
  });
  // The audited last op, outside the measurement: it must reproduce the
  // measured ops and land on a SYSTEM-feasible point.
  Digest last;
  run_op(books.back(), false, true, last);
  out.Expect("the audited op reproduces the measured ones",
             last.value() == out.pass_digests.front().back(),
             "the last book cleared differently when rerun");
  return out;
}

// ------------------------------------------------------ planet-economy --

constexpr int kPlanetShards = 8;
constexpr int kPlanetTeams = 16;

std::string PlanetTeam(int i) { return "planet-" + std::to_string(i); }

std::unique_ptr<pm::federation::FederatedExchange> BuildFederation(
    const Options& opt, std::uint64_t seed, bool wall_clock) {
  namespace fed = pm::federation;
  std::vector<fed::ShardSpec> specs;
  for (int k = 0; k < kPlanetShards; ++k) {
    fed::ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload.num_teams = opt.smoke ? 10 : 200;
    spec.workload.num_clusters = opt.smoke ? 4 : 34;
    // Alternate hot and cool regions so prices diverge across shards and
    // arbitrage and the rebalancer have work to do.
    if (k % 2 == 0) {
      spec.workload.min_target_utilization = 0.70;
      spec.workload.max_target_utilization = 0.95;
    } else {
      spec.workload.min_target_utilization = 0.10;
      spec.workload.max_target_utilization = 0.40;
    }
    spec.market.settlement.refund_unplaced = true;
    spec.market.outcome_feedback = true;
    specs.push_back(std::move(spec));
  }
  fed::FederationConfig config;
  config.seed = seed;
  config.num_threads = 4;
  config.router.policy = fed::RoutingPolicy::kHomeAffinity;
  config.economy.treasury = true;
  config.economy.arbitrage.enabled = true;
  config.economy.arbitrage.margin = pm::Money::FromDollars(1000000);
  config.economy.arbitrage.min_spread = 0.05;
  config.economy.arbitrage.buy_fraction = 0.20;
  config.economy.rebalance.enabled = true;
  config.economy.rebalance.spread_threshold = 0.25;
  config.economy.rebalance.consecutive_epochs = 2;
  config.supervisor.enabled = true;
  config.telemetry.enabled = true;
  config.telemetry.watchdog = pm::telemetry::WatchdogConfig{true, true};
  config.telemetry.profiler.work_accounting = true;
  config.telemetry.profiler.wall_clock = wall_clock;
  auto exchange =
      std::make_unique<fed::FederatedExchange>(std::move(specs), config);
  for (int i = 0; i < kPlanetTeams; ++i) {
    exchange->EndowFederatedTeam(PlanetTeam(i),
                                 pm::Money::FromDollars(200000));
  }
  return exchange;
}

void SubmitPlanetBids(pm::federation::FederatedExchange& exchange,
                      int epoch) {
  for (int i = 0; i < kPlanetTeams; ++i) {
    pm::federation::FederatedBid bid;
    bid.team = PlanetTeam(i);
    bid.tag = "e" + std::to_string(epoch);
    bid.quantity = pm::cluster::TaskShape{16.0, 64.0, 2.0};
    bid.limit = 40000.0;
    bid.home_shard = exchange.ShardName(static_cast<std::size_t>(i) %
                                        exchange.NumShards());
    exchange.SubmitFederatedBid(bid);
  }
}

/// Prices, awards, health and the planet ledger after one epoch.
std::uint64_t DigestEpoch(const pm::federation::FederationReport& report) {
  Digest d;
  for (const pm::federation::ShardEpochSummary& s : report.shards) {
    d.U64(s.participated ? 1 : 0);
    d.U64(s.failed ? 1 : 0);
    DigestReport(d, s.report);
  }
  d.U64(report.routed_parts);
  d.U64(report.rejected_parts);
  d.U64(report.migrations.size());
  d.Double(report.treasury.team_total);
  d.Double(report.treasury.shard_net_total);
  return d.value();
}

/// The treasury contract: conservation holds exactly, and between epochs
/// every shard float and every federated team's shard-local budget is 0.
void CheckTreasury(Result& out,
                   const pm::federation::FederatedExchange& exchange) {
  const pm::federation::FederationTreasury* t = exchange.treasury();
  const pm::Money residual =
      t->TotalMinted() - t->TotalBurned() - t->CirculatingSupply();
  out.Expect("treasury conservation residual is 0", residual.IsZero(),
             "residual " + residual.ToString());
  out.Expect("shard floats are 0 between epochs", t->FloatTotal().IsZero(),
             "float total " + t->FloatTotal().ToString());
  bool zero = true;
  for (std::size_t k = 0; k < exchange.NumShards(); ++k) {
    for (int i = 0; i < kPlanetTeams; ++i) {
      zero = zero && exchange.ShardMarket(k).TeamBudget(PlanetTeam(i)).IsZero();
    }
  }
  out.Expect("federated shard-local budgets are 0 between epochs", zero,
             "a planet team kept a shard-local balance");
}

/// Route and barrier span milliseconds of one epoch, read back from the
/// profiler's chrome-trace export (one event per line).
std::pair<double, double> RouteBarrierMs(const std::string& chrome_json,
                                         int epoch) {
  double route = 0.0;
  double barrier = 0.0;
  std::istringstream in(chrome_json);
  std::string line;
  const auto number_after = [&](const std::string& key) {
    const std::size_t at = line.find(key);
    return at == std::string::npos
               ? -1.0
               : std::atof(line.c_str() + at + key.size());
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    if (static_cast<int>(number_after("\"epoch\": ")) != epoch) continue;
    const double ms = number_after("\"dur\": ") / 1000.0;
    if (line.find("\"name\": \"route\"") != std::string::npos) route += ms;
    if (line.find("\"name\": \"barrier\"") != std::string::npos) {
      barrier += ms;
    }
  }
  return {route, barrier};
}

/// Per-layer samples of one profiled epoch: the shards' own collect,
/// bisect and settle spans, the federation's route and barrier spans, a
/// per-shard checkpoint timed from outside, and the work counters.
void RecordProfiledEpoch(Recorder& rec,
                         const pm::federation::FederatedExchange& exchange,
                         const pm::federation::FederationReport& report,
                         double epoch_ms) {
  // The supervisor's checkpoint, timed per shard after the epoch: the
  // same Snapshot() call it makes at the next epoch's start.
  for (std::size_t s = 0; s < exchange.NumShards(); ++s) {
    const std::vector<std::uint8_t> frame = rec.Time(
        "exchange.snapshot", [&] { return exchange.ShardMarket(s).Snapshot(); });
    rec.Add("exchange.snapshot_bytes", static_cast<double>(frame.size()));
  }
  const pm::telemetry::PhaseProfiler& profiler =
      *exchange.telemetry()->profiler();
  double critical = 0.0;
  for (const pm::federation::ShardEpochSummary& s : report.shards) {
    const pm::exchange::AuctionReport& r = s.report;
    double shard_ms = 0.0;
    for (const pm::PhaseSpan& span : r.phases) {
      const double ms = MsBetween(span.begin_ns, span.end_ns);
      shard_ms += ms;
      rec.Add("federation.shard_" + span.name + "_ms", ms);
    }
    critical = std::max(critical, shard_ms);
    rec.Add("federation.shard_sum_ms", shard_ms);
    rec.Add("exchange.jobs_added", static_cast<double>(r.jobs_added));
    rec.Add("exchange.moves", static_cast<double>(r.moves.size()));
    rec.Add("exchange.placement_failures",
            static_cast<double>(r.placement_failures));
    rec.Add("auction.demand_evaluations",
            static_cast<double>(r.demand_evaluations));
    rec.Add("auction.proxies_reevaluated",
            static_cast<double>(r.proxies_reevaluated));
    rec.Add("auction.bisection_probes",
            static_cast<double>(r.bisection_probes));
    rec.Add("auction.dot_blocks", static_cast<double>(r.dot_blocks));
    rec.Add("auction.dirty_bidders", static_cast<double>(r.dirty_bidders));
    rec.Add("auction.full_collections",
            static_cast<double>(r.full_collections));
    rec.Add("auction.incremental_collections",
            static_cast<double>(r.incremental_collections));
    if (const pm::telemetry::WorkCounters* w =
            profiler.FindWork(report.epoch, s.shard)) {
      rec.Add("federation.work_dot_blocks", static_cast<double>(w->dot_blocks));
      rec.Add("federation.work_dirty_bidders",
              static_cast<double>(w->dirty_bidders));
      rec.Add("federation.work_bisection_probes",
              static_cast<double>(w->bisection_probes));
      rec.Add("federation.work_full_collections",
              static_cast<double>(w->full_collections));
      rec.Add("federation.work_incremental_collections",
              static_cast<double>(w->incremental_collections));
      rec.Add("federation.work_refund_ops", static_cast<double>(w->refund_ops));
    }
  }
  const auto [route, barrier] =
      RouteBarrierMs(profiler.ChromeTraceJson(), report.epoch);
  rec.Add("federation.route_ms", route);
  rec.Add("federation.barrier_ms", barrier);
  rec.Add("federation.shard_critical_ms", critical);
  rec.Add("federation.unattributed_ms",
          epoch_ms - route - barrier - critical);
  rec.Add("auction.rounds", report.max_rounds);
  rec.Add("agents.bids", static_cast<double>(report.total_bids));
  rec.Add("federation.routed_parts", static_cast<double>(report.routed_parts));
  rec.Add("federation.rejected_parts",
          static_cast<double>(report.rejected_parts));
}

Result RunPlanetEconomy(const Options& opt, Recorder& rec) {
  const int episode_len = opt.smoke ? 10 : 40;
  Result out;
  bool twin_matches = true;
  RunPasses(opt, out, [&](int) {
    for (int w = 0; w < WorldsFor(opt); ++w) {
      // The federation has no restore, so every episode builds it anew;
      // each build is one set-up sample.
      const std::uint64_t seed = WorldSeed(opt.seed, w);
      const std::uint64_t build_begin = PhaseNowNs();
      std::unique_ptr<pm::federation::FederatedExchange> a =
          BuildFederation(opt, seed, /*wall_clock=*/false);
      out.setup_s.push_back(MsBetween(build_begin, PhaseNowNs()) / 1000.0);
      // The profiled twin: same seed, profiler wall channel armed.
      std::unique_ptr<pm::federation::FederatedExchange> b;
      if (opt.trace) b = BuildFederation(opt, seed, /*wall_clock=*/true);

      Digest episode;
      for (int e = 0; e < episode_len; ++e) {
        SubmitPlanetBids(*a, e);
        const std::uint64_t begin = PhaseNowNs();
        const pm::federation::FederationReport report = a->RunEpoch();
        const double ms = MsBetween(begin, PhaseNowNs());
        out.op_ms.push_back(ms);
        out.bids += static_cast<double>(report.total_bids);
        if (!report.all_converged || report.health.failed_shards > 0) {
          ++out.failed_ops;
        }
        for (const pm::federation::ShardEpochSummary& s : report.shards) {
          CheckAwards(out, s.report, /*refund_unplaced=*/true);
        }
        CheckTreasury(out, *a);
        const std::uint64_t digest = DigestEpoch(report);
        episode.U64(digest);
        if (!b) continue;

        SubmitPlanetBids(*b, e);
        const std::uint64_t tbegin = PhaseNowNs();
        const pm::federation::FederationReport twin = b->RunEpoch();
        const std::uint64_t tend = PhaseNowNs();
        rec.Span("federation.run_epoch", tbegin, tend);
        twin_matches = twin_matches && DigestEpoch(twin) == digest;
        rec.Add("untraced.op_ms", ms);
        rec.Add("traced.op_ms", MsBetween(tbegin, tend));
        RecordProfiledEpoch(rec, *b, twin, MsBetween(tbegin, tend));
        rec.EndOp();
      }
      if (b) {
        out.program_trace = b->telemetry()->profiler()->ChromeTraceJson();
      }
      out.pass_digests.back().push_back(episode.value());
    }
    return WorldsFor(opt) * episode_len;
  });
  if (opt.trace) {
    out.Expect("profiled twin federation matches the untraced one",
               twin_matches, "arming the wall-clock profiler changed outcomes");
  }
  return out;
}

// -------------------------------------------------------------- output --

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string NumArray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(v[i]);
  }
  return out + "]";
}

std::string SampleMap(const std::map<std::string, std::vector<double>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, samples] : m) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + ":" + NumArray(samples);
  }
  return out + "}";
}

/// The benchmark's outside spans as chrome://tracing JSON, one track
/// named after the workload.
void WriteOutsideTrace(const std::string& path, const std::string& workload,
                       const std::vector<Recorder::SpanRecord>& spans) {
  std::uint64_t t0 = spans.empty() ? 0 : spans.front().begin_ns;
  for (const Recorder::SpanRecord& s : spans) t0 = std::min(t0, s.begin_ns);
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
    << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"thread_name\", "
       "\"args\": {\"name\": "
    << Quote(workload) << "}}";
  for (const Recorder::SpanRecord& s : spans) {
    f << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": "
      << Quote(s.name) << ", \"ts\": " << Num((s.begin_ns - t0) / 1000.0)
      << ", \"dur\": " << Num((s.end_ns - s.begin_ns) / 1000.0)
      << ", \"args\": {\"op\": " << s.op << "}}";
  }
  f << "\n]}\n";
  PM_CHECK_MSG(f.good(), "could not write " << path);
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  PM_CHECK_MSG(f.good(), "could not write " << path);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  Recorder rec(opt.trace && !opt.trace_out.empty());
  Result out;
  try {
    if (opt.workload == "market-1k" || opt.workload == "big-clusters") {
      out = RunMarketWorkload(opt, rec);
    } else if (opt.workload == "clock-dense") {
      out = RunClockDense(opt, rec);
    } else if (opt.workload == "planet-economy") {
      out = RunPlanetEconomy(opt, rec);
    } else {
      Usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "planetbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (opt.trace && !opt.trace_out.empty()) {
    WriteOutsideTrace(opt.trace_out + "/" + opt.workload + ".outside.json",
                      opt.workload, rec.spans());
    if (!out.program_trace.empty()) {
      WriteFile(opt.trace_out + "/" + opt.workload + ".program.json",
                out.program_trace);
    }
  }

  Digest digest;  // Of every world's outcome in the first pass.
  for (std::uint64_t d : out.pass_digests.front()) digest.U64(d);
  std::string checks = "[";
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    if (i > 0) checks += ",";
    checks += "{\"name\":" + Quote(c.name) +
              ",\"ok\":" + (c.ok ? "true" : "false") +
              ",\"detail\":" + Quote(c.detail) + "}";
  }
  checks += "]";
  std::cout << "{\"schema\":\"planetbench-process/1\""
            << ",\"workload\":" << Quote(opt.workload)
            << ",\"seed\":" << opt.seed
            << ",\"trace\":" << (opt.trace ? "true" : "false")
            << ",\"smoke\":" << (opt.smoke ? "true" : "false")
            << ",\"ops\":" << out.op_ms.size()
            << ",\"digest\":" << Quote(Hex(digest.value()))
            << ",\"setup_s\":" << NumArray(out.setup_s)
            << ",\"op_ms\":" << NumArray(out.op_ms)
            << ",\"bids\":" << Num(out.bids)
            << ",\"failed_ops\":" << out.failed_ops
            << ",\"awarded_units\":" << Num(out.awarded_units)
            << ",\"placed_units\":" << Num(out.placed_units)
            << ",\"peak_rss_kb\":" << out.peak_rss_kb
            << ",\"checks\":" << checks
            << ",\"per_op\":" << SampleMap(rec.per_op())
            << ",\"per_episode\":" << SampleMap(rec.per_episode()) << "}\n";
  return 0;
}
