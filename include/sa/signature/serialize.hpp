// Tracker-state serialization: the "SAT1" container, which carries a
// SignatureTracker's full learning state (its TrackerSnapshot) as
// portable bytes. Its one transport is cross-site handoff: FleetWire
// nests a SAT1 block in every kClientState message (sa/fleet/wire.hpp).
//
// Layout (integers little-endian, doubles as IEEE-754 bit patterns):
//
//   sat1 := u32 magic 0x53415431 ("SAT1") | u32 flags (bit0 = trained)
//           | u64 training_seen | u64 observations | u64 mismatches
//           | u32 band_count | band_count x band
//   band := u32 wraps | u32 n | n x f64 angle_deg | n x f64 value
//
// No allocation tricks — safe to parse untrusted input (parse failures
// return nullopt, never UB).
#pragma once

#include <optional>

#include "sa/common/bytes.hpp"
#include "sa/signature/tracker.hpp"

namespace sa {

/// Serialize a tracker's full learning state — the "SAT1" container. It
/// carries the raw per-band EWMA accumulators with their exact angle
/// grids (every angle, not start + step; values as accumulated, not
/// re-normalized), so a round-trip restores the tracker bit-for-bit —
/// which is what cross-site client handoff needs: the destination must
/// continue training/blending exactly where the source stopped, or its
/// decisions drift from the single-site oracle.
ByteStream serialize_tracker_snapshot(const TrackerSnapshot& snap);

/// Parse a "SAT1" container; nullopt on malformed/truncated input. The
/// parser is total over untrusted bytes (it validates grid monotonicity,
/// finiteness and cross-band shape), so a snapshot it accepts is always
/// safe to restore().
std::optional<TrackerSnapshot> deserialize_tracker_snapshot(
    const ByteStream& data);

}  // namespace sa
