#include "net/wire.h"

namespace pm::net {

std::vector<std::uint8_t> Encode(const PriceAnnounce& msg) {
  Serializer s;
  s.WriteU8(static_cast<std::uint8_t>(MessageType::kPriceAnnounce));
  s.WriteI32(msg.collection);
  s.WriteDoubleVector(msg.prices);
  return std::move(s).FinishWithChecksum();
}

std::vector<std::uint8_t> Encode(const DemandReply& msg) {
  Serializer s;
  s.WriteU8(static_cast<std::uint8_t>(MessageType::kDemandReply));
  s.WriteI32(msg.collection);
  s.WriteU32(msg.node);
  s.WriteU32(static_cast<std::uint32_t>(msg.decisions.size()));
  for (const WireDecision& d : msg.decisions) {
    s.WriteU32(d.user);
    s.WriteI32(d.bundle_index);
    s.WriteDouble(d.cost);
  }
  return std::move(s).FinishWithChecksum();
}

std::vector<std::uint8_t> Encode(const Terminate& msg) {
  Serializer s;
  s.WriteU8(static_cast<std::uint8_t>(MessageType::kTerminate));
  s.WriteU8(msg.converged ? 1 : 0);
  return std::move(s).FinishWithChecksum();
}

std::vector<std::uint8_t> Encode(const Envelope& msg) {
  Serializer s;
  s.WriteU8(static_cast<std::uint8_t>(MessageType::kEnvelope));
  s.WriteU32(msg.link);
  s.WriteU32(msg.seq);
  s.WriteBytes(msg.payload);
  return std::move(s).FinishWithChecksum();
}

std::vector<std::uint8_t> Encode(const LinkDown& msg) {
  Serializer s;
  s.WriteU8(static_cast<std::uint8_t>(MessageType::kLinkDown));
  s.WriteU32(msg.link);
  return std::move(s).FinishWithChecksum();
}

std::optional<MessageType> PeekType(
    const std::vector<std::uint8_t>& frame) {
  Deserializer d(frame);
  if (!d.VerifyChecksum()) return std::nullopt;
  const auto type = d.ReadU8();
  if (!type) return std::nullopt;
  switch (static_cast<MessageType>(*type)) {
    case MessageType::kPriceAnnounce:
    case MessageType::kDemandReply:
    case MessageType::kTerminate:
    case MessageType::kEnvelope:
    case MessageType::kLinkDown:
      return static_cast<MessageType>(*type);
  }
  return std::nullopt;
}

std::optional<PriceAnnounce> DecodePriceAnnounce(
    std::vector<std::uint8_t> frame) {
  Deserializer d(std::move(frame));
  if (!d.VerifyChecksum()) return std::nullopt;
  const auto type = d.ReadU8();
  if (!type ||
      *type != static_cast<std::uint8_t>(MessageType::kPriceAnnounce)) {
    return std::nullopt;
  }
  PriceAnnounce msg;
  const auto collection = d.ReadI32();
  auto prices = d.ReadDoubleVector();
  if (!collection || !prices || !d.Exhausted()) return std::nullopt;
  msg.collection = *collection;
  msg.prices = std::move(*prices);
  return msg;
}

std::optional<DemandReply> DecodeDemandReply(
    std::vector<std::uint8_t> frame) {
  Deserializer d(std::move(frame));
  if (!d.VerifyChecksum()) return std::nullopt;
  const auto type = d.ReadU8();
  if (!type ||
      *type != static_cast<std::uint8_t>(MessageType::kDemandReply)) {
    return std::nullopt;
  }
  DemandReply msg;
  const auto collection = d.ReadI32();
  const auto node = d.ReadU32();
  // Each decision is a u32 user, an i32 bundle and a double cost.
  const auto count = d.ReadCount(16);
  if (!collection || !node || !count) return std::nullopt;
  msg.collection = *collection;
  msg.node = *node;
  msg.decisions.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto user = d.ReadU32();
    const auto bundle = d.ReadI32();
    const auto cost = d.ReadDouble();
    if (!user || !bundle || !cost) return std::nullopt;
    msg.decisions.push_back(WireDecision{*user, *bundle, *cost});
  }
  if (!d.Exhausted()) return std::nullopt;
  return msg;
}

std::optional<Envelope> DecodeEnvelope(std::vector<std::uint8_t> frame) {
  Deserializer d(std::move(frame));
  if (!d.VerifyChecksum()) return std::nullopt;
  const auto type = d.ReadU8();
  if (!type ||
      *type != static_cast<std::uint8_t>(MessageType::kEnvelope)) {
    return std::nullopt;
  }
  Envelope msg;
  const auto link = d.ReadU32();
  const auto seq = d.ReadU32();
  auto payload = d.ReadBytes();
  if (!link || !seq || !payload || !d.Exhausted()) return std::nullopt;
  msg.link = *link;
  msg.seq = *seq;
  msg.payload = std::move(*payload);
  return msg;
}

std::optional<LinkDown> DecodeLinkDown(std::vector<std::uint8_t> frame) {
  Deserializer d(std::move(frame));
  if (!d.VerifyChecksum()) return std::nullopt;
  const auto type = d.ReadU8();
  if (!type ||
      *type != static_cast<std::uint8_t>(MessageType::kLinkDown)) {
    return std::nullopt;
  }
  const auto link = d.ReadU32();
  if (!link || !d.Exhausted()) return std::nullopt;
  return LinkDown{*link};
}

}  // namespace pm::net
