// planetmarket: the federation treasury — one planet-wide currency pool.
//
// Without the treasury each shard mints its own money (EndowFederatedTeam
// endows a planet-wide team in every local ledger independently), so the
// federation has no notion of total currency: prices in hot and cool
// shards can drift apart with nothing coupling budgets across markets.
// The treasury is the federation-level ledger, shaped after the central
// banks of Tycoon-style auctioneer federations: one planet-wide account
// per team, explicit cross-shard transfer records, and an allowance/sweep
// cycle per epoch.
//
//   mint      ──► root → team (the only way money enters circulation)
//   push      ──► team → shard float  +  a matching shard-local endowment
//   auction   ──► the shard's own ledger settles exactly as without it
//   sweep     ──► shard float → team (unspent) and → shard-net (spent);
//                 the team's local balance is withdrawn to the shard
//                 operator, so between epochs every federated dollar is
//                 back on the planet ledger
//
// Conservation contract (asserted by tests/federation_economy_test.cpp):
// at every point, Σ team balances + Σ shard floats + Σ shard-net equals
// TotalMinted() − TotalBurned(); between epochs every shard float is zero
// and every federated team's shard-local budget is zero. Money therefore
// only enters or leaves the federation through explicit Mint/Burn records.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/money.h"
#include "exchange/ledger.h"

namespace pm::federation {

/// One explicit cross-shard money movement, beyond the raw journal: which
/// team, which shard, which epoch, and why. `shard == kPlanetScope` marks
/// planet-level mints/burns.
struct CrossShardTransfer {
  static constexpr std::size_t kPlanetScope = static_cast<std::size_t>(-1);

  enum class Kind {
    kMint,       // root → team: new currency.
    kBurn,       // team → root: currency retired.
    kAllowance,  // team → shard float: budget pushed into a shard.
    kReturn,     // shard float → team: unspent allowance swept back.
    kSpend,      // shard float → shard-net: what the shard kept.
    kEarn,       // shard-net → team: local earnings pulled to the planet.
  };

  Kind kind = Kind::kMint;
  int epoch = -1;  // -1 for out-of-epoch movements (initial mints).
  std::string team;
  std::size_t shard = kPlanetScope;
  Money amount;
};

/// The planet-wide ledger: per-team accounts, one float account per shard
/// (money currently pushed into that shard's local market), and one
/// net-settlement account per shard (cumulative amount the shard's
/// operator kept from — or paid out to — federated teams).
class FederationTreasury {
 public:
  explicit FederationTreasury(std::vector<std::string> shard_names);

  std::size_t NumShards() const { return floats_.size(); }

  // ---------------------------------------------------------- currency --
  /// Mints new planet currency into a team's account (creating it on
  /// first use). The only way money enters circulation.
  void Mint(const std::string& team, Money amount, std::string memo,
            int epoch = -1);

  /// Retires currency from a team's account (clamped to its balance).
  /// Returns the amount actually burned.
  Money Burn(const std::string& team, Money amount, std::string memo,
             int epoch = -1);

  // -------------------------------------------------------- epoch flow --
  /// Moves up to `requested` from the team's planet account into shard
  /// `k`'s float, recording the outstanding allowance. Returns the amount
  /// actually granted (clamped to the planet balance; zero when broke).
  /// The caller must mirror the grant with a shard-local endowment.
  Money PushAllowance(const std::string& team, std::size_t shard,
                      Money requested, int epoch);

  /// Reconciles one (team, shard) pair after the shard's auction:
  /// `local_remaining` is the team's shard-local balance, which the
  /// caller must have withdrawn back to the shard's operator. Unspent
  /// allowance returns to the team, spent allowance moves to the shard's
  /// net account, and local earnings beyond the allowance are drawn from
  /// the shard's net account (which may go negative — the shard operator
  /// paid the team more than it collected).
  void Sweep(const std::string& team, std::size_t shard,
             Money local_remaining, int epoch);

  /// Returns the team's entire outstanding allowance in shard `k` to its
  /// planet account as a kReturn — the failure-domain path: the shard was
  /// restored from its epoch checkpoint, so nothing was actually spent and
  /// Sweep's local_remaining (zero after a restore-and-withdraw) would
  /// wrongly book the whole float as kSpend. Returns the amount refunded.
  Money RefundAllowance(const std::string& team, std::size_t shard,
                        int epoch);

  // ---------------------------------------------------------- balances --
  Money PlanetBalance(const std::string& team) const;
  Money ShardFloat(std::size_t shard) const;
  Money ShardNet(std::size_t shard) const;
  /// Allowance pushed to (team, shard) and not yet swept.
  Money Outstanding(const std::string& team, std::size_t shard) const;

  Money TotalMinted() const { return minted_; }
  Money TotalBurned() const { return burned_; }
  /// Σ team balances + Σ floats + Σ shard-net. Invariant: equals
  /// TotalMinted() − TotalBurned() at all times.
  Money CirculatingSupply() const;
  Money TeamTotal() const;
  Money FloatTotal() const;
  Money ShardNetTotal() const;

  /// Teams with planet accounts, in creation order.
  const std::vector<std::string>& Teams() const { return team_order_; }

  const std::vector<CrossShardTransfer>& Transfers() const {
    return transfers_;
  }
  const exchange::Ledger& ledger() const { return ledger_; }

  /// Renders the planet ledger page (accounts + supply line).
  std::string Render() const;

 private:
  exchange::AccountId EnsureTeam(const std::string& team);

  exchange::Ledger ledger_;
  exchange::AccountId root_;                  // Mint source, allow-negative.
  std::vector<exchange::AccountId> floats_;   // One per shard.
  std::vector<exchange::AccountId> nets_;     // One per shard, allow-negative.
  std::vector<std::string> shard_names_;
  std::unordered_map<std::string, exchange::AccountId> teams_;
  std::vector<std::string> team_order_;
  // Outstanding allowance per (team, shard), reset to zero by Sweep.
  std::unordered_map<std::string, std::vector<Money>> outstanding_;
  std::vector<CrossShardTransfer> transfers_;
  Money minted_;
  Money burned_;
};

}  // namespace pm::federation
