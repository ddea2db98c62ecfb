#include "net/serializer.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace pm::net {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Appends `v` as one little-endian block.
template <typename T>
void AppendLittleEndian(std::vector<std::uint8_t>& buffer, T v) {
  std::uint8_t bytes[sizeof(T)];
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  buffer.insert(buffer.end(), bytes, bytes + sizeof(T));
}

/// Reads a little-endian T from `p` (sizeof(T) readable bytes).
template <typename T>
T LoadLittleEndian(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Folds `size` bytes into `hash` one at a time (the FNV-1a step).
std::uint64_t FoldBytes(std::uint64_t hash, const std::uint8_t* data,
                        std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

std::uint64_t FrameChecksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    hash ^= LoadLittleEndian<std::uint64_t>(data + i);
    hash *= kFnvPrime;
  }
  return FoldBytes(hash, data + i, size - i);
}

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size) {
  return FoldBytes(kFnvOffset, data, size);
}

Serializer::Serializer(std::vector<std::uint8_t> buffer)
    : buffer_(std::move(buffer)) {
  buffer_.clear();
}

void Serializer::WriteU8(std::uint8_t v) { buffer_.push_back(v); }

void Serializer::WriteU32(std::uint32_t v) { AppendLittleEndian(buffer_, v); }

void Serializer::WriteU64(std::uint64_t v) { AppendLittleEndian(buffer_, v); }

void Serializer::WriteI32(std::int32_t v) {
  WriteU32(static_cast<std::uint32_t>(v));
}

void Serializer::WriteI64(std::int64_t v) {
  WriteU64(static_cast<std::uint64_t>(v));
}

void Serializer::WriteDouble(double v) {
  WriteU64(std::bit_cast<std::uint64_t>(v));
}

void Serializer::WriteString(const std::string& s) {
  WriteU32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Serializer::WriteDoubleVector(const std::vector<double>& v) {
  WriteU32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) WriteDouble(x);
}

void Serializer::WriteBytes(const std::vector<std::uint8_t>& v) {
  WriteU32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

std::vector<std::uint8_t> Serializer::FinishWithChecksum() && {
  const std::uint64_t checksum =
      FrameChecksum(buffer_.data(), buffer_.size());
  WriteU64(checksum);
  return std::move(buffer_);
}

Deserializer::Deserializer(std::vector<std::uint8_t> frame)
    : frame_(std::move(frame)) {}

bool Deserializer::VerifyChecksum() {
  if (frame_.size() < 8) return false;
  payload_size_ = frame_.size() - 8;
  const auto stored =
      LoadLittleEndian<std::uint64_t>(frame_.data() + payload_size_);
  checksum_ok_ = stored == FrameChecksum(frame_.data(), payload_size_);
  return checksum_ok_;
}

std::optional<std::uint8_t> Deserializer::ReadU8() {
  PM_CHECK_MSG(checksum_ok_, "VerifyChecksum before reading");
  if (!Need(1)) return std::nullopt;
  return frame_[pos_++];
}

std::optional<std::uint32_t> Deserializer::ReadU32() {
  PM_CHECK_MSG(checksum_ok_, "VerifyChecksum before reading");
  if (!Need(4)) return std::nullopt;
  const auto v = LoadLittleEndian<std::uint32_t>(frame_.data() + pos_);
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> Deserializer::ReadU64() {
  PM_CHECK_MSG(checksum_ok_, "VerifyChecksum before reading");
  if (!Need(8)) return std::nullopt;
  const auto v = LoadLittleEndian<std::uint64_t>(frame_.data() + pos_);
  pos_ += 8;
  return v;
}

std::optional<std::int32_t> Deserializer::ReadI32() {
  const auto v = ReadU32();
  if (!v) return std::nullopt;
  return static_cast<std::int32_t>(*v);
}

std::optional<std::int64_t> Deserializer::ReadI64() {
  const auto v = ReadU64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<double> Deserializer::ReadDouble() {
  const auto v = ReadU64();
  if (!v) return std::nullopt;
  return std::bit_cast<double>(*v);
}

std::optional<std::string> Deserializer::ReadString() {
  const auto size = ReadU32();
  if (!size) return std::nullopt;
  if (!Need(*size)) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(frame_.data() + pos_),
                *size);
  pos_ += *size;
  return s;
}

std::optional<std::vector<std::uint8_t>> Deserializer::ReadBytes() {
  const auto size = ReadU32();
  if (!size) return std::nullopt;
  if (!Need(*size)) return std::nullopt;
  std::vector<std::uint8_t> v(frame_.begin() + pos_,
                              frame_.begin() + pos_ + *size);
  pos_ += *size;
  return v;
}

std::optional<std::uint32_t> Deserializer::ReadCount(
    std::size_t min_item_bytes) {
  const auto count = ReadU32();
  if (!count || !Need(min_item_bytes * *count)) return std::nullopt;
  return count;
}

std::optional<std::vector<double>> Deserializer::ReadDoubleVector() {
  const auto size = ReadCount(8);
  if (!size) return std::nullopt;
  std::vector<double> v;
  v.reserve(*size);
  for (std::uint32_t i = 0; i < *size; ++i) {
    const auto x = ReadDouble();
    if (!x) return std::nullopt;
    v.push_back(*x);
  }
  return v;
}

}  // namespace pm::net
