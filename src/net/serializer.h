// planetmarket: binary wire serialization.
//
// Fixed-layout little-endian encoding with a 64-bit checksum trailer
// (FrameChecksum: FNV-style, one multiply per 8-byte word). Every message
// that crosses a channel in the distributed auction, and every market
// checkpoint, is encoded through this layer, so the loop genuinely
// exercises marshalling — decode failures surface as protocol errors
// rather than silent corruption.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pm::net {

/// Append-only byte-buffer writer.
class Serializer {
 public:
  Serializer() = default;
  /// Writes into `buffer`, cleared first: a caller that hands back the
  /// previous frame reuses its capacity instead of regrowing it.
  explicit Serializer(std::vector<std::uint8_t> buffer);

  void WriteU8(std::uint8_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI32(std::int32_t v);
  void WriteI64(std::int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteDoubleVector(const std::vector<double>& v);
  void WriteBytes(const std::vector<std::uint8_t>& v);

  /// Appends the FrameChecksum of everything written so far and returns
  /// the finished frame.
  std::vector<std::uint8_t> FinishWithChecksum() &&;

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked reader over a frame produced by Serializer. All Read*
/// methods return nullopt on truncation; VerifyChecksum() must be called
/// first and strips the trailer.
class Deserializer {
 public:
  explicit Deserializer(std::vector<std::uint8_t> frame);

  /// Validates and removes the checksum trailer. Returns false on
  /// mismatch or truncation; the reader is then unusable.
  bool VerifyChecksum();

  std::optional<std::uint8_t> ReadU8();
  std::optional<std::uint32_t> ReadU32();
  std::optional<std::uint64_t> ReadU64();
  std::optional<std::int32_t> ReadI32();
  std::optional<std::int64_t> ReadI64();
  std::optional<double> ReadDouble();
  std::optional<std::string> ReadString();
  std::optional<std::vector<double>> ReadDoubleVector();
  std::optional<std::vector<std::uint8_t>> ReadBytes();

  /// Reads an element count, and returns nullopt unless `count` items of
  /// at least `min_item_bytes` each fit in the payload left: a count
  /// read from a frame is bounded before anything is reserved for it.
  std::optional<std::uint32_t> ReadCount(std::size_t min_item_bytes);

  /// True when every payload byte has been consumed.
  bool Exhausted() const { return pos_ == payload_size_; }

 private:
  bool Need(std::size_t n) const { return pos_ + n <= payload_size_; }

  std::vector<std::uint8_t> frame_;
  std::size_t payload_size_ = 0;
  std::size_t pos_ = 0;
  bool checksum_ok_ = false;
};

/// The frame trailer: a 64-bit FNV-style hash that folds the range in as
/// little-endian 8-byte words (xor, then multiply by the FNV prime) and
/// the last size % 8 bytes one at a time. Each step is a bijection of
/// the running hash, so any change confined to one word or tail byte —
/// every single-bit flip — changes the result.
std::uint64_t FrameChecksum(const std::uint8_t* data, std::size_t size);

/// FNV-1a 64-bit hash of a byte range: a stable name hash
/// (FleetRebalancer::TieRank), not a frame checksum.
std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size);

}  // namespace pm::net
