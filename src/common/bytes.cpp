#include "sa/common/bytes.hpp"

#include <cstring>

namespace sa {

void put_u8(ByteStream& out, std::uint8_t v) { out.push_back(v); }

void put_u32(ByteStream& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(ByteStream& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(ByteStream& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(ByteStream& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x01000193u;
  }
  return h;
}

std::optional<std::uint8_t> ByteReader::u8() {
  if (at_ + 1 > size_) return std::nullopt;
  return data_[at_++];
}

std::optional<std::uint32_t> ByteReader::u32() {
  if (at_ + 4 > size_) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[at_ + i]) << (8 * i);
  }
  at_ += 4;
  return v;
}

std::optional<std::uint64_t> ByteReader::u64() {
  if (at_ + 8 > size_) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[at_ + i]) << (8 * i);
  }
  at_ += 8;
  return v;
}

std::optional<double> ByteReader::f64() {
  const auto bits = u64();
  if (!bits) return std::nullopt;
  double v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

std::optional<std::string> ByteReader::str(std::size_t max_len) {
  const auto len = u32();
  if (!len || *len > max_len || *len > remaining()) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(data_ + at_), *len);
  at_ += *len;
  return s;
}

bool ByteReader::skip(std::size_t n) {
  if (n > remaining()) return false;
  at_ += n;
  return true;
}

}  // namespace sa
