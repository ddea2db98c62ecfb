#include "federation/economy.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace pm::federation {

FederationTreasury::FederationTreasury(std::vector<std::string> shard_names)
    : shard_names_(std::move(shard_names)) {
  PM_CHECK_MSG(!shard_names_.empty(), "treasury needs at least one shard");
  root_ = ledger_.CreateAccount("federation-root", Money(),
                                /*allow_negative=*/true);
  floats_.reserve(shard_names_.size());
  nets_.reserve(shard_names_.size());
  for (const std::string& name : shard_names_) {
    floats_.push_back(ledger_.CreateAccount("float:" + name));
    nets_.push_back(ledger_.CreateAccount("net:" + name,
                                          Money(),
                                          /*allow_negative=*/true));
  }
}

exchange::AccountId FederationTreasury::EnsureTeam(const std::string& team) {
  auto it = teams_.find(team);
  if (it != teams_.end()) return it->second;
  const exchange::AccountId id = ledger_.CreateAccount("team:" + team);
  teams_.emplace(team, id);
  team_order_.push_back(team);
  outstanding_.emplace(team, std::vector<Money>(floats_.size()));
  return id;
}

void FederationTreasury::Mint(const std::string& team, Money amount,
                              std::string memo, int epoch) {
  PM_CHECK_MSG(!amount.IsNegative(), "cannot mint a negative amount");
  if (amount.IsZero()) return;
  const exchange::AccountId id = EnsureTeam(team);
  const std::string status =
      ledger_.Transfer(root_, id, amount, std::move(memo));
  PM_CHECK_MSG(status.empty(), "mint failed: " << status);
  minted_ += amount;
  transfers_.push_back(CrossShardTransfer{CrossShardTransfer::Kind::kMint,
                                          epoch, team,
                                          CrossShardTransfer::kPlanetScope,
                                          amount});
}

Money FederationTreasury::Burn(const std::string& team, Money amount,
                               std::string memo, int epoch) {
  PM_CHECK_MSG(!amount.IsNegative(), "cannot burn a negative amount");
  const exchange::AccountId id = EnsureTeam(team);
  const Money burned = std::min(amount, ledger_.Balance(id));
  if (burned.IsZero()) return burned;
  const std::string status =
      ledger_.Transfer(id, root_, burned, std::move(memo));
  PM_CHECK_MSG(status.empty(), "burn failed: " << status);
  burned_ += burned;
  transfers_.push_back(CrossShardTransfer{CrossShardTransfer::Kind::kBurn,
                                          epoch, team,
                                          CrossShardTransfer::kPlanetScope,
                                          burned});
  return burned;
}

Money FederationTreasury::PushAllowance(const std::string& team,
                                        std::size_t shard, Money requested,
                                        int epoch) {
  PM_CHECK(shard < floats_.size());
  PM_CHECK_MSG(!requested.IsNegative(), "allowance must be non-negative");
  const exchange::AccountId id = EnsureTeam(team);
  const Money granted = std::min(requested, ledger_.Balance(id));
  if (granted.IsZero()) return granted;
  const std::string status =
      ledger_.Transfer(id, floats_[shard], granted,
                       "allowance " + team + " -> " + shard_names_[shard]);
  PM_CHECK_MSG(status.empty(), "allowance failed: " << status);
  outstanding_[team][shard] += granted;
  transfers_.push_back(CrossShardTransfer{
      CrossShardTransfer::Kind::kAllowance, epoch, team, shard, granted});
  return granted;
}

void FederationTreasury::Sweep(const std::string& team, std::size_t shard,
                               Money local_remaining, int epoch) {
  PM_CHECK(shard < floats_.size());
  PM_CHECK_MSG(!local_remaining.IsNegative(),
               "shard-local balances are non-negative");
  const exchange::AccountId id = EnsureTeam(team);
  Money& out = outstanding_[team][shard];

  // Unspent allowance (up to what is outstanding) returns to the team.
  const Money returned = std::min(out, local_remaining);
  if (!returned.IsZero()) {
    const std::string status = ledger_.Transfer(
        floats_[shard], id, returned,
        "sweep return " + shard_names_[shard] + " -> " + team);
    PM_CHECK_MSG(status.empty(), "sweep return failed: " << status);
    transfers_.push_back(CrossShardTransfer{
        CrossShardTransfer::Kind::kReturn, epoch, team, shard, returned});
  }

  if (out > local_remaining) {
    // The difference stayed with the shard operator: the team's auction
    // spending in that shard this epoch.
    const Money spent = out - local_remaining;
    const std::string status = ledger_.Transfer(
        floats_[shard], nets_[shard], spent,
        "sweep spend " + team + " @ " + shard_names_[shard]);
    PM_CHECK_MSG(status.empty(), "sweep spend failed: " << status);
    transfers_.push_back(CrossShardTransfer{
        CrossShardTransfer::Kind::kSpend, epoch, team, shard, spent});
  } else if (local_remaining > out) {
    // The team earned money inside the shard (sold resources for more
    // than its allowance): the shard's net account pays it out, going
    // negative when the shard operator was a net payer.
    const Money earned = local_remaining - out;
    const std::string status = ledger_.Transfer(
        nets_[shard], id, earned,
        "sweep earn " + team + " @ " + shard_names_[shard]);
    PM_CHECK_MSG(status.empty(), "sweep earn failed: " << status);
    transfers_.push_back(CrossShardTransfer{
        CrossShardTransfer::Kind::kEarn, epoch, team, shard, earned});
  }
  out = Money();
}

Money FederationTreasury::RefundAllowance(const std::string& team,
                                          std::size_t shard, int epoch) {
  PM_CHECK(shard < floats_.size());
  const exchange::AccountId id = EnsureTeam(team);
  Money& out = outstanding_[team][shard];
  const Money refunded = out;
  if (refunded.IsZero()) return refunded;
  const std::string status = ledger_.Transfer(
      floats_[shard], id, refunded,
      "refund allowance " + shard_names_[shard] + " -> " + team);
  PM_CHECK_MSG(status.empty(), "allowance refund failed: " << status);
  transfers_.push_back(CrossShardTransfer{
      CrossShardTransfer::Kind::kReturn, epoch, team, shard, refunded});
  out = Money();
  return refunded;
}

Money FederationTreasury::PlanetBalance(const std::string& team) const {
  auto it = teams_.find(team);
  if (it == teams_.end()) return Money();
  return ledger_.Balance(it->second);
}

Money FederationTreasury::ShardFloat(std::size_t shard) const {
  PM_CHECK(shard < floats_.size());
  return ledger_.Balance(floats_[shard]);
}

Money FederationTreasury::ShardNet(std::size_t shard) const {
  PM_CHECK(shard < nets_.size());
  return ledger_.Balance(nets_[shard]);
}

Money FederationTreasury::Outstanding(const std::string& team,
                                      std::size_t shard) const {
  PM_CHECK(shard < floats_.size());
  auto it = outstanding_.find(team);
  if (it == outstanding_.end()) return Money();
  return it->second[shard];
}

Money FederationTreasury::TeamTotal() const {
  Money total;
  for (const auto& [team, id] : teams_) total += ledger_.Balance(id);
  return total;
}

Money FederationTreasury::FloatTotal() const {
  Money total;
  for (const exchange::AccountId id : floats_) total += ledger_.Balance(id);
  return total;
}

Money FederationTreasury::ShardNetTotal() const {
  Money total;
  for (const exchange::AccountId id : nets_) total += ledger_.Balance(id);
  return total;
}

Money FederationTreasury::CirculatingSupply() const {
  return TeamTotal() + FloatTotal() + ShardNetTotal();
}

std::string FederationTreasury::Render() const {
  std::ostringstream os;
  os << "=== federation treasury ===\n" << ledger_.RenderAccounts();
  os << "minted " << minted_.ToString() << ", burned "
     << burned_.ToString() << ", circulating "
     << CirculatingSupply().ToString() << " ("
     << transfers_.size() << " cross-shard transfers)\n";
  return os.str();
}

}  // namespace pm::federation
