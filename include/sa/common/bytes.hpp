// Little-endian byte codec shared by every binary format in the library:
// the SAT1 tracker-state container (sa/signature/serialize.hpp), the
// SACP capture container (sa/capture/format.hpp) and the FleetWire
// handoff messages (sa/fleet/wire.hpp). Writers append to a ByteStream;
// ByteReader is a bounded cursor over untrusted bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sa {

using ByteStream = std::vector<std::uint8_t>;

void put_u8(ByteStream& out, std::uint8_t v);
void put_u32(ByteStream& out, std::uint32_t v);
void put_u64(ByteStream& out, std::uint64_t v);
/// The IEEE-754 bit pattern, as a u64.
void put_f64(ByteStream& out, double v);
/// u32 length, then the bytes.
void put_str(ByteStream& out, std::string_view s);

/// FNV-1a-32 over `len` bytes.
std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t len);

/// Bounded little-endian cursor over untrusted bytes. Every getter
/// returns nullopt instead of reading past the end.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const ByteStream& data)
      : ByteReader(data.data(), data.size()) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<double> f64();
  /// String with a sanity bound on the length prefix.
  std::optional<std::string> str(std::size_t max_len = 4096);

  std::size_t remaining() const { return size_ - at_; }
  std::size_t offset() const { return at_; }
  bool done() const { return at_ == size_; }
  const std::uint8_t* cursor() const { return data_ + at_; }
  bool skip(std::size_t n);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

}  // namespace sa
