#include "sa/fleet/wire.hpp"

#include "sa/signature/serialize.hpp"

namespace sa {

namespace {

constexpr std::uint32_t kFlagTracker = 1u << 0;
constexpr std::uint32_t kFlagAclPresent = 1u << 1;
constexpr std::uint32_t kFlagAclAllowed = 1u << 2;
constexpr std::uint32_t kFlagRate = 1u << 3;
constexpr std::uint32_t kKnownFlags =
    kFlagTracker | kFlagAclPresent | kFlagAclAllowed | kFlagRate;

/// A tracker block larger than this cannot come from a real snapshot
/// (SAT1's own band/grid bounds cap it far lower); it stops a mutated
/// length field from requesting an absurd allocation.
constexpr std::size_t kMaxTrackerBlock = std::size_t{1} << 26;

constexpr std::uint32_t kFlagRetransmit = 1u << 0;
constexpr std::uint32_t kFlagDuplicateAck = 1u << 0;

/// An inner message can be at most a tracker block plus framing slack.
constexpr std::size_t kMaxInnerMessage = (std::size_t{1} << 26) + 4096;

ByteStream frame(FleetWireType type, const ByteStream& payload) {
  ByteStream out;
  put_u32(out, kFleetWireMagic);
  put_u32(out, kFleetWireVersion);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

ByteStream encode_client_state(const FleetClientState& msg) {
  ByteStream payload;
  for (std::uint8_t octet : msg.mac.octets()) put_u8(payload, octet);
  put_u64(payload, msg.generation);
  put_u32(payload, msg.source_site);
  put_u32(payload, msg.dest_site);
  std::uint32_t flags = 0;
  if (msg.state.tracker) flags |= kFlagTracker;
  if (msg.state.acl_allowed) {
    flags |= kFlagAclPresent;
    if (*msg.state.acl_allowed) flags |= kFlagAclAllowed;
  }
  if (msg.state.rate_in_window) flags |= kFlagRate;
  put_u32(payload, flags);
  if (msg.state.tracker) {
    const ByteStream block = serialize_tracker_snapshot(*msg.state.tracker);
    put_u32(payload, static_cast<std::uint32_t>(block.size()));
    payload.insert(payload.end(), block.begin(), block.end());
  }
  if (msg.state.rate_in_window) put_u32(payload, *msg.state.rate_in_window);
  return frame(FleetWireType::kClientState, payload);
}

std::optional<FleetWireType> peek_type(const ByteStream& data) {
  ByteReader r(data);
  const auto magic = r.u32();
  const auto version = r.u32();
  const auto type = r.u32();
  const auto payload_len = r.u32();
  if (!magic || !version || !type || !payload_len) return std::nullopt;
  if (*magic != kFleetWireMagic) return std::nullopt;
  if (*version != kFleetWireVersion) return std::nullopt;
  if (*payload_len != r.remaining()) return std::nullopt;
  switch (*type) {
    case static_cast<std::uint32_t>(FleetWireType::kClientState):
      return FleetWireType::kClientState;
    case static_cast<std::uint32_t>(FleetWireType::kTransportData):
      return FleetWireType::kTransportData;
    case static_cast<std::uint32_t>(FleetWireType::kAck):
      return FleetWireType::kAck;
    default:
      return std::nullopt;
  }
}

std::optional<FleetClientState> decode_client_state(const ByteStream& data) {
  ByteReader r(data);
  const auto magic = r.u32();
  const auto version = r.u32();
  const auto type = r.u32();
  const auto payload_len = r.u32();
  if (!magic || !version || !type || !payload_len) return std::nullopt;
  if (*magic != kFleetWireMagic) return std::nullopt;
  if (*version != kFleetWireVersion) return std::nullopt;
  if (*type != static_cast<std::uint32_t>(FleetWireType::kClientState)) {
    return std::nullopt;
  }
  if (*payload_len != r.remaining()) return std::nullopt;

  FleetClientState msg;
  std::array<std::uint8_t, 6> octets{};
  for (auto& octet : octets) {
    const auto b = r.u8();
    if (!b) return std::nullopt;
    octet = *b;
  }
  msg.mac = MacAddress(octets);
  const auto generation = r.u64();
  const auto source_site = r.u32();
  const auto dest_site = r.u32();
  const auto flags = r.u32();
  if (!generation || !source_site || !dest_site || !flags) return std::nullopt;
  if ((*flags & ~kKnownFlags) != 0) return std::nullopt;
  if ((*flags & kFlagAclAllowed) && !(*flags & kFlagAclPresent)) {
    return std::nullopt;
  }
  msg.generation = *generation;
  msg.source_site = *source_site;
  msg.dest_site = *dest_site;
  if (*flags & kFlagTracker) {
    const auto block_len = r.u32();
    if (!block_len || *block_len > kMaxTrackerBlock ||
        *block_len > r.remaining()) {
      return std::nullopt;
    }
    const ByteStream block(r.cursor(), r.cursor() + *block_len);
    r.skip(*block_len);
    auto snap = deserialize_tracker_snapshot(block);
    if (!snap) return std::nullopt;
    msg.state.tracker = std::move(*snap);
  }
  if (*flags & kFlagAclPresent) {
    msg.state.acl_allowed = (*flags & kFlagAclAllowed) != 0;
  }
  if (*flags & kFlagRate) {
    const auto rate = r.u32();
    if (!rate) return std::nullopt;
    msg.state.rate_in_window = *rate;
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

ByteStream encode_transport_data(const FleetTransportData& msg) {
  ByteStream payload;
  put_u64(payload, msg.seq);
  put_u32(payload, msg.retransmit ? kFlagRetransmit : 0u);
  put_u32(payload, static_cast<std::uint32_t>(msg.inner.size()));
  payload.insert(payload.end(), msg.inner.begin(), msg.inner.end());
  put_u32(payload, fnv1a32(payload.data(), payload.size()));
  return frame(FleetWireType::kTransportData, payload);
}

std::optional<FleetTransportData> decode_transport_data(
    const ByteStream& data) {
  if (peek_type(data) != FleetWireType::kTransportData) return std::nullopt;
  ByteReader r(data);
  r.skip(16);  // framing, validated by peek_type
  const std::uint8_t* payload_begin = r.cursor();
  const auto seq = r.u64();
  const auto flags = r.u32();
  const auto inner_len = r.u32();
  if (!seq || !flags || !inner_len) return std::nullopt;
  if ((*flags & ~kFlagRetransmit) != 0) return std::nullopt;
  // The inner bytes must tile the payload exactly: inner_len bytes,
  // then the 4-byte checksum, then nothing.
  if (*inner_len > kMaxInnerMessage) return std::nullopt;
  if (r.remaining() < 4 || *inner_len != r.remaining() - 4) {
    return std::nullopt;
  }
  FleetTransportData msg;
  msg.seq = *seq;
  msg.retransmit = (*flags & kFlagRetransmit) != 0;
  msg.inner.assign(r.cursor(), r.cursor() + *inner_len);
  r.skip(*inner_len);
  const std::size_t summed =
      static_cast<std::size_t>(r.cursor() - payload_begin);
  const auto checksum = r.u32();
  if (!checksum) return std::nullopt;
  if (*checksum != fnv1a32(payload_begin, summed)) return std::nullopt;
  if (!r.done()) return std::nullopt;
  return msg;
}

ByteStream encode_ack(const FleetAck& msg) {
  ByteStream payload;
  put_u64(payload, msg.seq);
  put_u32(payload, msg.duplicate ? kFlagDuplicateAck : 0u);
  return frame(FleetWireType::kAck, payload);
}

std::optional<FleetAck> decode_ack(const ByteStream& data) {
  if (peek_type(data) != FleetWireType::kAck) return std::nullopt;
  ByteReader r(data);
  r.skip(16);
  const auto seq = r.u64();
  const auto flags = r.u32();
  if (!seq || !flags) return std::nullopt;
  if ((*flags & ~kFlagDuplicateAck) != 0) return std::nullopt;
  FleetAck msg;
  msg.seq = *seq;
  msg.duplicate = (*flags & kFlagDuplicateAck) != 0;
  if (!r.done()) return std::nullopt;
  return msg;
}

}  // namespace sa
