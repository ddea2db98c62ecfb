// planetmarket: the clock-auction wire protocol (Figure 1).
//
//   auctioneer ──PriceAnnounce{collection, prices}──► every proxy node
//   proxy node ──DemandReply{collection, node, decisions}──► auctioneer
//   auctioneer ──Terminate{converged}──► every proxy node
//
// Frames are Serializer-encoded with a checksum; Decode* returns nullopt
// on any corruption or truncation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/serializer.h"

namespace pm::net {

/// Message discriminator (first byte of every frame).
enum class MessageType : std::uint8_t {
  kPriceAnnounce = 1,
  kDemandReply = 2,
  kTerminate = 3,
  kEnvelope = 4,
  kLinkDown = 5,
};

/// Auctioneer → proxies: the current clocks. `collection` numbers the
/// auctioneer's demand collections (clock rounds and bisection probes
/// alike) from 0.
struct PriceAnnounce {
  std::int32_t collection = 0;
  std::vector<double> prices;
};

/// One user's demand inside a DemandReply.
struct WireDecision {
  std::uint32_t user = 0;
  std::int32_t bundle_index = -1;  // -1: dropped out.
  double cost = 0.0;
};

/// Proxy node → auctioneer: the demands of the users it hosts.
struct DemandReply {
  std::int32_t collection = 0;  // Echoes the announce being answered.
  std::uint32_t node = 0;
  std::vector<WireDecision> decisions;
};

/// Auctioneer → proxies: the auction ended. Proxy nodes stop on the
/// frame's PeekType alone; nothing decodes the body.
struct Terminate {
  bool converged = false;
};

/// Lossy-wire framing (net/faults.h): a sequence-numbered wrapper around
/// any other message. Only used when wire faults are enabled — with
/// faults off no envelope is ever produced and frames are byte-identical
/// to the fault-free protocol.
struct Envelope {
  std::uint32_t link = 0;  // Directed link index (sender-assigned).
  std::uint32_t seq = 0;   // Per-link sequence number, starting at 0.
  std::vector<std::uint8_t> payload;  // A complete inner frame.
};

/// Reliable out-of-band notice: the sender exhausted its retry budget on
/// `link` and is abandoning the auction. Never wrapped in an Envelope.
struct LinkDown {
  std::uint32_t link = 0;
};

std::vector<std::uint8_t> Encode(const PriceAnnounce& msg);
std::vector<std::uint8_t> Encode(const DemandReply& msg);
std::vector<std::uint8_t> Encode(const Terminate& msg);
std::vector<std::uint8_t> Encode(const Envelope& msg);
std::vector<std::uint8_t> Encode(const LinkDown& msg);

/// Peeks the type of a frame without consuming it (nullopt when the frame
/// is too short or fails its checksum).
std::optional<MessageType> PeekType(const std::vector<std::uint8_t>& frame);

std::optional<PriceAnnounce> DecodePriceAnnounce(
    std::vector<std::uint8_t> frame);
std::optional<DemandReply> DecodeDemandReply(
    std::vector<std::uint8_t> frame);
std::optional<Envelope> DecodeEnvelope(std::vector<std::uint8_t> frame);
std::optional<LinkDown> DecodeLinkDown(std::vector<std::uint8_t> frame);

}  // namespace pm::net
