#include "net/distributed_auction.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "auction/demand_engine.h"
#include "common/check.h"
#include "net/channel.h"
#include "net/wire.h"

namespace pm::net {
namespace {

using Frame = std::vector<std::uint8_t>;

/// One proxy node: hosts a shard of users, answers price announcements.
/// The shard is compiled once into a DemandEngine arena; successive
/// announcements are served incrementally (only users whose bundles touch
/// a repriced pool re-run their argmin), with excess accumulation disabled
/// — the auctioneer owns the excess.
///
/// With wire faults enabled the node's inbox carries Envelope frames
/// (reassembled in sequence order) and its replies go out through a
/// FaultyLink; retry exhaustion on the reply link pushes a reliable
/// LinkDown and abandons the auction.
class ProxyNode {
 public:
  ProxyNode(std::uint32_t node_id, const std::vector<bid::Bid>* bids,
            std::vector<std::uint32_t> users, std::size_t num_pools,
            std::size_t num_nodes, const FaultConfig& faults,
            Channel<Frame>* to_auctioneer)
      : node_id_(node_id),
        users_(std::move(users)),
        engine_(*bids, users_, std::vector<double>(num_pools, 0.0)),
        to_auctioneer_(to_auctioneer) {
    workspace_.set_want_excess(false);
    if (faults.Enabled()) {
      reply_link_.emplace(
          static_cast<std::uint32_t>(num_nodes) + node_id_, faults,
          to_auctioneer_);
      reassembler_.emplace();
    }
  }

  Channel<Frame>& inbox() { return inbox_; }

  std::atomic<long long>& decode_failures() { return decode_failures_; }

  /// Sender-side fault counters of the reply link (null with faults off).
  /// Only meaningful after the node thread has been joined.
  const LinkFaultStats* ReplyLinkStats() const {
    return reply_link_ ? &reply_link_->stats() : nullptr;
  }

  void Run() {
    for (;;) {
      std::optional<Frame> frame = inbox_.Pop();
      if (!frame.has_value()) return;  // Channel closed.
      const auto type = PeekType(*frame);
      if (!type.has_value()) {
        ++decode_failures_;
        continue;
      }
      if (*type == MessageType::kTerminate) return;
      if (reassembler_) {
        // Lossy wire: everything except Terminate arrives enveloped.
        if (*type != MessageType::kEnvelope) {
          ++decode_failures_;
          continue;
        }
        auto env = DecodeEnvelope(std::move(*frame));
        if (!env.has_value()) {
          ++decode_failures_;
          continue;
        }
        for (Frame& payload :
             reassembler_->Accept(env->seq, std::move(env->payload))) {
          if (!HandleAnnounce(std::move(payload))) return;
        }
        continue;
      }
      if (*type != MessageType::kPriceAnnounce) {
        ++decode_failures_;
        continue;
      }
      if (!HandleAnnounce(std::move(*frame))) return;
    }
  }

 private:
  /// Decodes one announce frame and sends the demand reply. Returns false
  /// when the reply link died and the node must exit.
  bool HandleAnnounce(Frame frame) {
    const auto announce = DecodePriceAnnounce(std::move(frame));
    if (!announce.has_value()) {
      ++decode_failures_;
      return true;
    }
    engine_.CollectDemand(announce->prices, nullptr, workspace_);
    DemandReply reply;
    reply.collection = announce->collection;
    reply.node = node_id_;
    reply.decisions.reserve(users_.size());
    const std::vector<auction::ProxyDecision>& decisions =
        workspace_.decisions();
    for (std::size_t i = 0; i < users_.size(); ++i) {
      reply.decisions.push_back(WireDecision{
          users_[i], decisions[i].bundle_index, decisions[i].cost});
    }
    if (reply_link_) {
      if (!reply_link_->Send(Encode(reply))) {
        // Retry budget exhausted: tell the auctioneer out of band (the
        // LinkDown itself is never faulted) and abandon the auction.
        to_auctioneer_->Push(Encode(LinkDown{reply_link_->link()}));
        return false;
      }
      return true;
    }
    to_auctioneer_->Push(Encode(reply));
    return true;
  }

  std::uint32_t node_id_;
  std::vector<std::uint32_t> users_;
  auction::DemandEngine engine_;
  auction::DemandEngine::Workspace workspace_;
  Channel<Frame> inbox_;
  Channel<Frame>* to_auctioneer_;
  std::optional<FaultyLink> reply_link_;
  std::optional<LinkReassembler> reassembler_;
  std::atomic<long long> decode_failures_{0};
};

/// Line 4 of Algorithm 1 answered by proxy nodes over serialized frames.
/// Owns the whole fabric (nodes, their threads, the auctioneer's inbox,
/// the lossy links); destruction closes every inbox and joins every node
/// thread, so a CheckFailure thrown anywhere in the run surfaces to the
/// caller with no thread left behind.
class WireSource final : public auction::DemandSource {
 public:
  WireSource(const auction::ClockAuction& auction,
             const DistributedConfig& config)
      : engine_(auction.engine()),
        pool_(config.auction.thread_pool),
        lossy_(config.faults.Enabled()) {
    const std::vector<bid::Bid>& bids = auction.bids();
    const std::size_t num_pools = auction.NumPools();
    const std::size_t num_nodes = std::min(
        config.num_proxy_nodes, std::max<std::size_t>(1, bids.size()));

    // Shard users round-robin across proxy nodes.
    std::vector<std::vector<std::uint32_t>> shards(num_nodes);
    for (std::size_t u = 0; u < bids.size(); ++u) {
      shards[u % num_nodes].push_back(static_cast<std::uint32_t>(u));
    }
    nodes_.reserve(num_nodes);
    for (std::size_t n = 0; n < num_nodes; ++n) {
      nodes_.push_back(std::make_unique<ProxyNode>(
          static_cast<std::uint32_t>(n), &bids, std::move(shards[n]),
          num_pools, num_nodes, config.faults, &to_auctioneer_));
    }
    // Directed links under loss: auctioneer→node n is link n, node
    // n→auctioneer is link num_nodes+n (owned by the node). Reassemblers
    // index the uplinks by node.
    if (lossy_) {
      down_links_.reserve(num_nodes);
      for (std::size_t n = 0; n < num_nodes; ++n) {
        down_links_.emplace_back(static_cast<std::uint32_t>(n),
                                 config.faults, &nodes_[n]->inbox());
      }
      up_links_.resize(num_nodes);
    }
    decisions_.assign(bids.size(), auction::ProxyDecision{});
    excess_.assign(num_pools, 0.0);
    threads_.reserve(num_nodes);
    try {
      for (auto& node : nodes_) {
        threads_.emplace_back([node = node.get()] { node->Run(); });
      }
    } catch (...) {
      Shutdown();
      throw;
    }
  }

  // The nodes hold the address of to_auctioneer_.
  WireSource(const WireSource&) = delete;
  WireSource& operator=(const WireSource&) = delete;
  ~WireSource() { Shutdown(); }

  void Collect(std::span<const double> prices) override {
    const std::int32_t collection = next_collection_++;
    Broadcast(Encode(
        PriceAnnounce{collection, {prices.begin(), prices.end()}}));
    GatherReplies(collection);
    // Replies arrive in nondeterministic order, but excess is derived
    // from the assembled user-indexed decision vector with the engine's
    // deterministic arithmetic: blocked accumulation on full collections,
    // ascending-user decision diffs on incremental ones. The full-vs-
    // incremental branch mirrors DemandEngine's hybrid rule on the
    // touched-pool count, keeping this source bit-exact with the
    // in-process engine collection by collection.
    std::size_t touched = 0;
    for (std::size_t r = 0; collection > 0 && r < prices.size(); ++r) {
      if (prices[r] - prev_prices_[r] != 0.0) ++touched;
    }
    if (collection == 0 ||
        auction::DemandEngine::PrefersFullCollect(touched, prices.size())) {
      engine_.ExcessFromDecisions(decisions_, pool_, excess_);
    } else {
      engine_.UpdateExcess(prev_decisions_, decisions_, excess_);
    }
    prev_decisions_ = decisions_;
    prev_prices_.assign(prices.begin(), prices.end());
  }

  const std::vector<auction::ProxyDecision>& decisions() const override {
    return decisions_;
  }
  const std::vector<double>& excess() const override { return excess_; }

  /// Ends the auction: sends Terminate, joins the nodes, and returns the
  /// transport counters.
  TransportStats Finish(bool converged) {
    // Terminate is control-plane: it is delivered reliably (never
    // wrapped, dropped, or delayed) so a finished auction cannot be
    // aborted by the fault process on its way out.
    const Frame term = Encode(Terminate{converged});
    for (auto& node : nodes_) {
      node->inbox().Push(term);
      ++transport_.messages_sent;
      transport_.bytes_sent += static_cast<long long>(term.size());
    }
    Shutdown();
    for (auto& node : nodes_) {
      transport_.decode_failures += node->decode_failures().load();
    }
    if (lossy_) {
      LinkFaultStats wire;
      for (const FaultyLink& link : down_links_) wire += link.stats();
      for (const auto& node : nodes_) {
        if (const LinkFaultStats* s = node->ReplyLinkStats()) wire += *s;
      }
      transport_.frames_dropped = wire.dropped;
      transport_.frames_retried = wire.retries;
      transport_.frames_duplicated = wire.duplicated;
      transport_.frames_stale = wire.stale_redelivered;
    }
    return transport_;
  }

 private:
  /// Wakes and joins every node thread. Idempotent.
  void Shutdown() {
    for (auto& node : nodes_) node->inbox().Close();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    to_auctioneer_.Close();
  }

  // Transport counters under loss must stay scheduling-independent, so
  // they count the *logical* payload stream (one frame per link per
  // collection); the fault counters summed after the join cover the
  // physical extras (drops, retries, duplicates, stale copies).
  void Broadcast(const Frame& frame) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (lossy_) {
        PM_CHECK_MSG(down_links_[n].Send(frame),
                     "wire: link to proxy node "
                         << n << " down after retry exhaustion");
      } else {
        nodes_[n]->inbox().Push(frame);
      }
      ++transport_.messages_sent;
      transport_.bytes_sent += static_cast<long long>(frame.size());
    }
  }

  /// Collects one reply per node (FIFO channels; replies for this
  /// collection only, enforced by the sequence tag). Under loss the
  /// channel carries envelopes: stale and duplicate frames are shed by
  /// the per-link reassemblers, and a LinkDown aborts the auction.
  void GatherReplies(std::int32_t collection) {
    const std::size_t num_nodes = nodes_.size();
    auto consume_reply = [&](Frame payload) {
      ++transport_.messages_sent;
      transport_.bytes_sent += static_cast<long long>(payload.size());
      const auto reply = DecodeDemandReply(std::move(payload));
      if (!reply.has_value()) {
        ++transport_.decode_failures;
        return false;
      }
      PM_CHECK_MSG(reply->collection == collection,
                   "reply for collection " << reply->collection
                                           << " during collection "
                                           << collection);
      for (const WireDecision& d : reply->decisions) {
        decisions_[d.user] = auction::ProxyDecision{d.bundle_index, d.cost};
      }
      return true;
    };
    std::size_t replies = 0;
    while (replies < num_nodes) {
      std::optional<Frame> frame = to_auctioneer_.Pop();
      PM_CHECK_MSG(frame.has_value(),
                   "auctioneer channel closed mid-collection");
      if (!lossy_) {
        if (consume_reply(std::move(*frame))) ++replies;
        continue;
      }
      const auto type = PeekType(*frame);
      if (!type.has_value()) {
        ++transport_.decode_failures;
        continue;
      }
      if (*type == MessageType::kLinkDown) {
        const auto down = DecodeLinkDown(std::move(*frame));
        PM_CHECK_MSG(false, "wire: proxy reply link "
                                << (down ? down->link : 0)
                                << " down after retry exhaustion");
      }
      if (*type != MessageType::kEnvelope) {
        ++transport_.decode_failures;
        continue;
      }
      auto env = DecodeEnvelope(std::move(*frame));
      if (!env.has_value()) {
        ++transport_.decode_failures;
        continue;
      }
      PM_CHECK_MSG(env->link >= num_nodes && env->link < 2 * num_nodes,
                   "envelope on unknown link " << env->link);
      const std::size_t n = env->link - num_nodes;
      for (Frame& payload :
           up_links_[n].Accept(env->seq, std::move(env->payload))) {
        if (consume_reply(std::move(payload))) ++replies;
      }
    }
  }

  const auction::DemandEngine& engine_;
  ThreadPool* pool_;
  bool lossy_;
  Channel<Frame> to_auctioneer_;
  std::vector<std::unique_ptr<ProxyNode>> nodes_;
  std::vector<FaultyLink> down_links_;
  std::vector<LinkReassembler> up_links_;
  std::vector<std::thread> threads_;
  std::vector<auction::ProxyDecision> decisions_;
  std::vector<auction::ProxyDecision> prev_decisions_;
  std::vector<double> excess_;
  std::vector<double> prev_prices_;
  std::int32_t next_collection_ = 0;
  TransportStats transport_;
};

}  // namespace

DistributedResult RunDistributedAuction(
    const auction::ClockAuction& auction, const DistributedConfig& config) {
  PM_CHECK_MSG(config.num_proxy_nodes >= 1, "need at least one proxy node");
  WireSource wire(auction, config);
  DistributedResult out;
  out.result = auction.Run(config.auction, wire);
  out.transport = wire.Finish(out.result.converged);
  return out;
}

}  // namespace pm::net
