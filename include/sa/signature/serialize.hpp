// Signature persistence: serialize AoA signatures and per-MAC tracker
// state to a portable byte format so an AP can reboot (or hand over to a
// neighbour) without retraining every client — operationally necessary
// for the spoof-prevention application, since the "initial training
// stage" (§2.3.2) is exactly what an attacker would love to re-trigger.
//
// Format: little-endian, versioned, length-prefixed; doubles as IEEE-754
// bit patterns. No allocation tricks — safe to parse untrusted input
// (parse failures return nullopt, never UB).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sa/common/bytes.hpp"
#include "sa/signature/signature.hpp"
#include "sa/signature/subband.hpp"
#include "sa/signature/tracker.hpp"

namespace sa {

/// Serialize a signature (spectrum grid + values + wrap flag) — the
/// legacy single-band "SAA1" format.
ByteStream serialize_signature(const AoaSignature& sig);

/// Parse a serialized signature; nullopt on malformed/truncated input.
std::optional<AoaSignature> deserialize_signature(const ByteStream& data);

/// Serialize a wideband signature. One band emits byte-identical legacy
/// "SAA1" output (wire compatibility with every pre-wideband consumer);
/// multiple bands emit the "SAA2" container: a band count followed by the
/// per-band spectra in ascending subband-frequency order.
ByteStream serialize_signature(const SubbandSignature& sig);

/// Parse either format ("SAA1" becomes a one-band signature); nullopt on
/// malformed/truncated input.
std::optional<SubbandSignature> deserialize_subband_signature(
    const ByteStream& data);

/// Serialize a tracker's full learning state — the "SAT1" container, the
/// SAA-family's state-transfer sibling. Where SAA1/SAA2 carry a
/// *presentation* of a signature (grid re-derived from start+step, values
/// re-normalized on parse), SAT1 carries the tracker's raw per-band EWMA
/// accumulators with their exact angle grids, so a round-trip restores
/// the tracker bit-for-bit — which is what cross-site client handoff
/// needs: the destination must continue training/blending exactly where
/// the source stopped, or its decisions drift from the single-site
/// oracle.
ByteStream serialize_tracker_snapshot(const TrackerSnapshot& snap);

/// Parse a "SAT1" container; nullopt on malformed/truncated input. The
/// parser is total over untrusted bytes (it validates grid monotonicity,
/// finiteness and cross-band shape), so a snapshot it accepts is always
/// safe to restore().
std::optional<TrackerSnapshot> deserialize_tracker_snapshot(
    const ByteStream& data);

}  // namespace sa
