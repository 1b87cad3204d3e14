// FleetWire: the versioned cross-site handoff message format ("SAFW").
//
// When a client's traffic migrates from one site to another, the source
// site exports everything its decision pipeline remembers about the MAC
// (ClientHandoffState: SAT1-serialized signature-tracker accumulators,
// ACL verdict, rate-limit residue) and ships it to the destination as
// one self-contained FleetWire message. The nested tracker block is the
// SAT1 container (sa/signature/serialize.hpp): the source tracker's
// TrackerSnapshot, which is its live learning state, so the destination
// continues training and blending bit-for-bit where the source stopped.
//
// Layout (all integers little-endian):
//
//   message := magic "SAFW" | u32 version | u32 type | u32 payload_len
//              | payload  (payload_len bytes, and the message ends there)
//
//   kClientState payload:
//     6 bytes MAC | u64 generation | u32 source_site | u32 dest_site
//     | u32 flags
//     | [flags bit0] u32 tracker_len | tracker_len bytes of "SAT1"
//     | [flags bit3] u32 rate_in_window
//
//   flags: bit0 = tracker block present
//          bit1 = ACL verdict present
//          bit2 = ACL verdict is "allowed" (requires bit1)
//          bit3 = rate-limit residue present
//          all other bits reserved — a decoder rejects them.
//
//   kTransportData payload (the reliability envelope, sa/fleet/transport):
//     u64 seq | u32 flags | u32 inner_len | inner_len bytes
//     | u32 checksum
//     flags: bit0 = retransmission; others reserved — rejected.
//     `inner` is a complete FleetWire message (today: kClientState),
//     left opaque by this decoder — the receiver validates it with its
//     own total decode. `checksum` is FNV-1a-32 over every payload byte
//     before it (seq, flags, inner_len, inner), so a bit flipped
//     anywhere in the envelope or the cargo turns the datagram into a
//     detected drop for the retry layer to repair — a corrupted export
//     is never imported, and decisions stay deterministic.
//
//   kAck payload:
//     u64 seq | u32 flags
//     flags: bit0 = duplicate (the seq had already been imported when
//     this ack was generated); others reserved — rejected.
//
// `generation` is the handoff generation guard: the fleet bumps it per
// (MAC, handoff), and an import whose generation is not newer than the
// destination's view is rejected as stale — a delayed or replayed
// handoff message can never clobber fresher local state.
//
// The decoder is total over untrusted bytes: every length is bounds-
// checked, unknown versions/types/flags are rejected, the nested SAT1
// block goes through its own validating parser, and trailing bytes are
// an error — malformed input yields nullopt, never UB. That contract is
// what makes the FleetWire fuzz pass in capture_tool meaningful.
#pragma once

#include <cstdint>
#include <optional>

#include "sa/capture/format.hpp"
#include "sa/engine/session.hpp"
#include "sa/mac/address.hpp"

namespace sa {

/// "SAFW" as a little-endian u32 (bytes S,A,F,W on the wire).
inline constexpr std::uint32_t kFleetWireMagic = 0x57464153;
inline constexpr std::uint32_t kFleetWireVersion = 1;

enum class FleetWireType : std::uint32_t {
  kClientState = 1,
  kTransportData = 2,  ///< reliability envelope around another message
  kAck = 3,            ///< delivery acknowledgment for one transport seq
};

/// The message type, when the outer framing (magic, version, a known
/// type, and an exact payload length) is intact; nullopt otherwise.
std::optional<FleetWireType> peek_type(const ByteStream& data);

/// One client's cross-site handoff: the MAC, the generation guard, the
/// route, and the exported per-MAC state.
struct FleetClientState {
  MacAddress mac;
  std::uint64_t generation = 0;
  std::uint32_t source_site = 0;
  std::uint32_t dest_site = 0;
  ClientHandoffState state;
};

/// Serialize a kClientState message.
ByteStream encode_client_state(const FleetClientState& msg);

/// Parse a kClientState message; nullopt on malformed/truncated input,
/// wrong magic/version/type, reserved flag bits, an invalid nested
/// tracker block, or trailing bytes.
std::optional<FleetClientState> decode_client_state(const ByteStream& data);

/// One sequence-numbered, checksummed datagram of the reliability layer.
struct FleetTransportData {
  std::uint64_t seq = 0;
  bool retransmit = false;
  /// A complete encoded FleetWire message (opaque to this codec).
  ByteStream inner;
};

/// Serialize a kTransportData envelope (checksum computed here).
ByteStream encode_transport_data(const FleetTransportData& msg);

/// Parse a kTransportData envelope; nullopt on malformed/truncated
/// input, reserved flags, a length that does not tile the payload
/// exactly, or a checksum mismatch. The inner message is NOT validated
/// here — decode it with its own total decoder.
std::optional<FleetTransportData> decode_transport_data(
    const ByteStream& data);

/// A delivery acknowledgment.
struct FleetAck {
  std::uint64_t seq = 0;
  /// The acked seq had already been imported (duplicate suppression).
  bool duplicate = false;
};

ByteStream encode_ack(const FleetAck& msg);

/// Parse a kAck message; nullopt on malformed/truncated input, reserved
/// flags, or trailing bytes.
std::optional<FleetAck> decode_ack(const ByteStream& data);

}  // namespace sa
