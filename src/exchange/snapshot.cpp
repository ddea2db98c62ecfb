// planetmarket: Market checkpoint/restore.
//
// Serializes the market's entire mutable state into one checksummed frame
// so a crashed shard can rejoin the federation bit-identically: every
// double is written as its raw bit pattern (accumulated float error in
// machine usage round-trips exactly), the fleet's pool-interning order is
// saved explicitly (PoolIds are append-only and can diverge from
// cluster-major order after migrations), RNG engine states resume the
// exact draw sequence, and the auction history is reduced to the digest
// the market actually feeds back into future behaviour (auction count and
// the placement-failure window).
//
// Snapshot() must be taken at an epoch boundary — no queued external bids
// (CHECKed) — which is where the federation's epoch supervisor takes it.
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exchange/market.h"
#include "net/serializer.h"

namespace pm::exchange {
namespace {

constexpr std::uint32_t kSnapshotVersion = 1;

/// The fleet section's placement byte: best fit, the only bin-packer.
/// Frames keep the byte so the layout stays fixed; a restore rejects any
/// other value.
constexpr std::uint8_t kBestFitPlacement = 1;

// The smallest encoding of one item of each counted section, field by
// field (a string is at least its u32 length). Restore reads every count
// through net::Deserializer::ReadCount, which refuses a count whose items
// cannot fit in the bytes left, so a corrupt count fails as truncation
// before anything is reserved for it.
constexpr std::size_t kMinPoolBytes = 4 + 1;             // name, kind
constexpr std::size_t kMinClusterBytes = 4 + 4 + 4;     // name, 2 counts
constexpr std::size_t kMinMachineBytes = 2 * 24;        // capacity, used
constexpr std::size_t kMinJobBytes = 8 + 4 + 24 + 4 + 4 + 4;
constexpr std::size_t kMinPlacementBytes = 4;           // i32 per machine
constexpr std::size_t kMinAccountBytes = 4 + 8 + 1;     // name, micros, flag
constexpr std::size_t kMinJournalBytes = 4 + 4 + 8 + 4 + 4;
constexpr std::size_t kMinQuotaRowBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kMinReportBytes = 4 + 4;          // index, awards
constexpr std::size_t kMinAwardBytes = 1 + 8 + 8;

template <typename T>
T Req(std::optional<T> v, const char* what) {
  PM_CHECK_MSG(v.has_value(), "market snapshot truncated at " << what);
  return std::move(*v);
}

void WriteShape(net::Serializer& s, const cluster::TaskShape& shape) {
  s.WriteDouble(shape.cpu);
  s.WriteDouble(shape.ram_gb);
  s.WriteDouble(shape.disk_tb);
}

cluster::TaskShape ReadShape(net::Deserializer& d) {
  cluster::TaskShape shape;
  shape.cpu = Req(d.ReadDouble(), "shape.cpu");
  shape.ram_gb = Req(d.ReadDouble(), "shape.ram_gb");
  shape.disk_tb = Req(d.ReadDouble(), "shape.disk_tb");
  return shape;
}

void WriteRngState(net::Serializer& s,
                   const std::array<std::uint64_t, 4>& state) {
  for (std::uint64_t word : state) s.WriteU64(word);
}

std::array<std::uint64_t, 4> ReadRngState(net::Deserializer& d) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = Req(d.ReadU64(), "rng state");
  return state;
}

}  // namespace

std::vector<std::uint8_t> Market::Snapshot(
    std::vector<std::uint8_t> reuse) const {
  PM_CHECK_MSG(external_.empty(),
               "snapshot with queued external bids — checkpoints are "
               "epoch-boundary only");
  net::Serializer s(std::move(reuse));
  s.WriteU32(kSnapshotVersion);

  // Market scalars.
  s.WriteDoubleVector(fixed_prices_);
  s.WriteU8(endowed_ ? 1 : 0);
  s.WriteU64(next_job_id_);
  WriteRngState(s, rng_.SaveState());

  // Fleet: unit costs, the placement byte, the exact pool-interning order,
  // then every cluster with machines (capacity + raw used bits) and placed
  // jobs.
  WriteShape(s, fleet_->unit_costs());
  s.WriteU8(kBestFitPlacement);
  const PoolRegistry& registry = fleet_->registry();
  s.WriteU32(static_cast<std::uint32_t>(registry.size()));
  for (PoolId r = 0; r < registry.size(); ++r) {
    const PoolKey& key = registry.KeyOf(r);
    s.WriteString(key.cluster);
    s.WriteU8(static_cast<std::uint8_t>(key.kind));
  }
  const std::vector<std::string> cluster_names = fleet_->ClusterNames();
  s.WriteU32(static_cast<std::uint32_t>(cluster_names.size()));
  for (const std::string& name : cluster_names) {
    const cluster::Cluster& cl = fleet_->ClusterByName(name);
    s.WriteString(name);
    s.WriteU32(static_cast<std::uint32_t>(cl.NumMachines()));
    for (const cluster::Machine& m : cl.machines()) {
      WriteShape(s, m.capacity());
      WriteShape(s, m.used());
    }
    const std::vector<cluster::Cluster::PlacedJobRecord> jobs =
        cl.ExportJobs();
    s.WriteU32(static_cast<std::uint32_t>(jobs.size()));
    for (const cluster::Cluster::PlacedJobRecord& rec : jobs) {
      s.WriteU64(rec.job.id);
      s.WriteString(rec.job.team);
      WriteShape(s, rec.job.shape);
      s.WriteI32(rec.job.tasks);
      s.WriteU32(static_cast<std::uint32_t>(rec.placement.tasks_placed.size()));
      for (int t : rec.placement.tasks_placed) s.WriteI32(t);
      s.WriteI32(rec.placement.tasks_failed);
    }
  }

  // Resident agents: identity is CHECK-matched on restore; learned state,
  // private RNG, holdings and placement memory are overwritten.
  s.WriteU32(static_cast<std::uint32_t>(agents_->size()));
  for (const agents::TeamAgent& agent : *agents_) {
    const agents::TeamProfile& profile = agent.profile();
    s.WriteString(profile.name);
    s.WriteU8(static_cast<std::uint8_t>(profile.strategy));
    s.WriteString(profile.home_cluster);
    WriteShape(s, profile.footprint);
    s.WriteDouble(profile.growth_rate);
    s.WriteDouble(profile.relocation_cost);
    s.WriteDouble(profile.value_multiplier);
    s.WriteDoubleVector(agent.learner().beliefs());
    s.WriteDouble(agent.learner().Markup());
    s.WriteI32(agent.learner().ObservationCount());
    WriteRngState(s, agent.rng().SaveState());
    s.WriteDoubleVector(agent.holdings());
    s.WriteDoubleVector(agent.placement_penalty());
  }

  // Ledger: accounts in id order with exact micro-dollar balances, then
  // the journal.
  s.WriteU32(accounts_.operator_account());
  s.WriteU32(static_cast<std::uint32_t>(ledger_.NumAccounts()));
  for (AccountId id = 0; id < ledger_.NumAccounts(); ++id) {
    s.WriteString(ledger_.NameOf(id));
    s.WriteI64(ledger_.Balance(id).micros());
    s.WriteU8(ledger_.AllowsNegative(id) ? 1 : 0);
  }
  const std::vector<JournalEntry>& journal = ledger_.Journal();
  s.WriteU32(static_cast<std::uint32_t>(journal.size()));
  for (const JournalEntry& e : journal) {
    s.WriteU32(e.from);
    s.WriteU32(e.to);
    s.WriteI64(e.amount.micros());
    s.WriteString(e.memo);
    s.WriteI32(e.sequence);
  }

  // Quota cells, deterministically flattened.
  const std::vector<cluster::QuotaTable::Row> rows = quota_.ExportRows();
  s.WriteU32(static_cast<std::uint32_t>(rows.size()));
  for (const cluster::QuotaTable::Row& row : rows) {
    s.WriteString(row.team);
    s.WriteU32(row.pool);
    s.WriteDouble(row.entitlement);
    s.WriteDouble(row.usage);
  }

  // History digest: only what feeds future behaviour — the auction count
  // and each award's placement outcome (the failure-rate window skips
  // quota-only awards, so that flag must survive the round trip).
  s.WriteU32(static_cast<std::uint32_t>(history_.size()));
  for (const AuctionReport& report : history_) {
    s.WriteI32(report.auction_index);
    s.WriteU32(static_cast<std::uint32_t>(report.awards.size()));
    for (const AwardRecord& award : report.awards) {
      s.WriteU8(award.outcome.quota_only ? 1 : 0);
      s.WriteDouble(award.outcome.awarded_units);
      s.WriteDouble(award.outcome.placed_units);
    }
  }

  return std::move(s).FinishWithChecksum();
}

void Market::Restore(const std::vector<std::uint8_t>& frame) {
  net::Deserializer d(frame);
  PM_CHECK_MSG(d.VerifyChecksum(), "market snapshot failed its checksum");
  const std::uint32_t version = Req(d.ReadU32(), "version");
  PM_CHECK_MSG(version == kSnapshotVersion,
               "market snapshot version " << version << " unsupported");

  fixed_prices_ = Req(d.ReadDoubleVector(), "fixed prices");
  endowed_ = Req(d.ReadU8(), "endowed") != 0;
  next_job_id_ = Req(d.ReadU64(), "next job id");
  rng_.RestoreState(ReadRngState(d));

  // Fleet.
  const cluster::TaskShape unit_costs = ReadShape(d);
  const std::uint8_t placement = Req(d.ReadU8(), "placement");
  PM_CHECK_MSG(placement == kBestFitPlacement,
               "market snapshot placement byte " << int{placement}
                                                 << " is not best fit");
  const std::uint32_t num_pools = Req(d.ReadCount(kMinPoolBytes), "pool count");
  std::vector<PoolKey> pool_order;
  pool_order.reserve(num_pools);
  for (std::uint32_t r = 0; r < num_pools; ++r) {
    PoolKey key;
    key.cluster = Req(d.ReadString(), "pool cluster");
    key.kind = static_cast<ResourceKind>(Req(d.ReadU8(), "pool kind"));
    pool_order.push_back(std::move(key));
  }
  const std::uint32_t num_clusters =
      Req(d.ReadCount(kMinClusterBytes), "cluster count");
  std::vector<cluster::Cluster> clusters;
  clusters.reserve(num_clusters);
  for (std::uint32_t c = 0; c < num_clusters; ++c) {
    std::string name = Req(d.ReadString(), "cluster name");
    const std::uint32_t num_machines =
        Req(d.ReadCount(kMinMachineBytes), "machine count");
    std::vector<cluster::Machine> machines;
    machines.reserve(num_machines);
    for (std::uint32_t m = 0; m < num_machines; ++m) {
      const cluster::TaskShape capacity = ReadShape(d);
      const cluster::TaskShape used = ReadShape(d);
      cluster::Machine machine(capacity);
      machine.RestoreUsed(used);
      machines.push_back(machine);
    }
    cluster::Cluster cl(std::move(name), std::move(machines));
    const std::uint32_t num_jobs = Req(d.ReadCount(kMinJobBytes), "job count");
    std::vector<cluster::Cluster::PlacedJobRecord> records;
    records.reserve(num_jobs);
    for (std::uint32_t j = 0; j < num_jobs; ++j) {
      cluster::Cluster::PlacedJobRecord rec;
      rec.job.id = Req(d.ReadU64(), "job id");
      rec.job.team = Req(d.ReadString(), "job team");
      rec.job.shape = ReadShape(d);
      rec.job.tasks = Req(d.ReadI32(), "job tasks");
      const std::uint32_t placed =
          Req(d.ReadCount(kMinPlacementBytes), "placement count");
      rec.placement.tasks_placed.reserve(placed);
      for (std::uint32_t t = 0; t < placed; ++t) {
        rec.placement.tasks_placed.push_back(
            Req(d.ReadI32(), "task placement"));
      }
      rec.placement.tasks_failed = Req(d.ReadI32(), "tasks failed");
      records.push_back(std::move(rec));
    }
    cl.RestoreJobs(std::move(records));
    clusters.push_back(std::move(cl));
  }
  *fleet_ = cluster::Fleet::FromState(std::move(clusters), pool_order,
                                      unit_costs);
  PM_CHECK_MSG(fixed_prices_.size() == fleet_->NumPools(),
               "restored fixed prices do not cover the restored pools");

  // Agents: the resident population is part of the market's construction,
  // so restore overwrites state in place and identity must match.
  const std::uint32_t num_agents = Req(d.ReadU32(), "agent count");
  PM_CHECK_MSG(num_agents == agents_->size(),
               "snapshot holds " << num_agents << " agents, market has "
                                 << agents_->size());
  for (agents::TeamAgent& agent : *agents_) {
    agents::TeamProfile& profile = agent.mutable_profile();
    const std::string name = Req(d.ReadString(), "agent name");
    PM_CHECK_MSG(name == profile.name,
                 "agent order mismatch: snapshot has '"
                     << name << "', market has '" << profile.name << "'");
    const auto strategy =
        static_cast<agents::StrategyKind>(Req(d.ReadU8(), "strategy"));
    PM_CHECK_MSG(strategy == profile.strategy,
                 "agent '" << name << "' changed strategy");
    profile.home_cluster = Req(d.ReadString(), "home cluster");
    profile.footprint = ReadShape(d);
    profile.growth_rate = Req(d.ReadDouble(), "growth rate");
    profile.relocation_cost = Req(d.ReadDouble(), "relocation cost");
    profile.value_multiplier = Req(d.ReadDouble(), "value multiplier");
    std::vector<double> beliefs = Req(d.ReadDoubleVector(), "beliefs");
    const double markup = Req(d.ReadDouble(), "markup");
    const int observations = Req(d.ReadI32(), "observations");
    agent.mutable_learner().RestoreState(std::move(beliefs), markup,
                                         observations);
    agent.rng().RestoreState(ReadRngState(d));
    agent.mutable_holdings() = Req(d.ReadDoubleVector(), "holdings");
    agent.RestorePlacementPenalty(
        Req(d.ReadDoubleVector(), "placement penalty"));
  }

  // Ledger: rebuilt from scratch (the member's address is stable, so the
  // accounts registry just rebinds to the restored contents).
  const AccountId operator_account = Req(d.ReadU32(), "operator account");
  const std::uint32_t num_accounts =
      Req(d.ReadCount(kMinAccountBytes), "account count");
  ledger_ = Ledger();
  for (std::uint32_t a = 0; a < num_accounts; ++a) {
    std::string name = Req(d.ReadString(), "account name");
    const std::int64_t micros = Req(d.ReadI64(), "account balance");
    const bool allow_negative = Req(d.ReadU8(), "overdraft flag") != 0;
    ledger_.RestoreAccount(std::move(name), Money::FromMicros(micros),
                           allow_negative);
  }
  const std::uint32_t num_entries =
      Req(d.ReadCount(kMinJournalBytes), "journal size");
  std::vector<JournalEntry> journal;
  journal.reserve(num_entries);
  for (std::uint32_t e = 0; e < num_entries; ++e) {
    JournalEntry entry;
    entry.from = Req(d.ReadU32(), "journal from");
    entry.to = Req(d.ReadU32(), "journal to");
    entry.amount = Money::FromMicros(Req(d.ReadI64(), "journal amount"));
    entry.memo = Req(d.ReadString(), "journal memo");
    entry.sequence = Req(d.ReadI32(), "journal sequence");
    journal.push_back(std::move(entry));
  }
  const int next_sequence = static_cast<int>(journal.size());
  ledger_.RestoreJournal(std::move(journal), next_sequence);
  accounts_.RebindForRestore(operator_account);

  // Quota.
  const std::uint32_t num_rows =
      Req(d.ReadCount(kMinQuotaRowBytes), "quota rows");
  std::vector<cluster::QuotaTable::Row> rows;
  rows.reserve(num_rows);
  for (std::uint32_t r = 0; r < num_rows; ++r) {
    cluster::QuotaTable::Row row;
    row.team = Req(d.ReadString(), "quota team");
    row.pool = Req(d.ReadU32(), "quota pool");
    row.entitlement = Req(d.ReadDouble(), "quota entitlement");
    row.usage = Req(d.ReadDouble(), "quota usage");
    rows.push_back(std::move(row));
  }
  quota_ = cluster::QuotaTable();
  quota_.RestoreRows(rows);

  // History digest.
  const std::uint32_t num_reports =
      Req(d.ReadCount(kMinReportBytes), "history size");
  history_.clear();
  history_.reserve(num_reports);
  for (std::uint32_t i = 0; i < num_reports; ++i) {
    AuctionReport report;
    report.auction_index = Req(d.ReadI32(), "history auction index");
    const std::uint32_t num_awards =
        Req(d.ReadCount(kMinAwardBytes), "history awards");
    report.awards.reserve(num_awards);
    for (std::uint32_t a = 0; a < num_awards; ++a) {
      AwardRecord award;
      award.outcome.quota_only = Req(d.ReadU8(), "award quota flag") != 0;
      award.outcome.awarded_units = Req(d.ReadDouble(), "award units");
      award.outcome.placed_units = Req(d.ReadDouble(), "placed units");
      report.awards.push_back(std::move(award));
    }
    history_.push_back(std::move(report));
  }

  PM_CHECK_MSG(d.Exhausted(), "market snapshot has trailing bytes");
  external_.clear();
}

}  // namespace pm::exchange
