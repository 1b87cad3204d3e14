// The SACP capture container: a versioned, self-describing binary format
// for recording a deployment's ingest stream and its decision stream so
// any traffic pattern — benign, bursty, adversarial — can be captured
// once and replayed deterministically as a regression corpus.
//
// Layout (all integers little-endian):
//
//   file   := header record*
//   header := magic "SACP" | u32 version | u32 payload_len | payload
//             payload: u32 num_aps | u64 seed | u32 meta_count
//                      | meta_count * (str key, str value)
//   record := u32 payload_len | u32 type | payload_len bytes
//   str    := u32 len | len bytes
//
// Record types (ndn-dpdk pdump-style: every record is length-prefixed so
// a reader can skip what it does not understand, and a truncated file
// fails parsing instead of invoking UB):
//
//   kChunk    one AP's share of one ingest round: (ap, round, absolute
//             sample base, rows, cols, row-major IQ as f64 re/im pairs).
//             In a fleet capture `ap` is the fleet-global AP id.
//   kDecision one emitted frame decision in sequence order, in the
//             canonical byte encoding of encode_decision() — replay
//             compares these byte-for-byte.
//   kDrain    a drain() boundary: replay must run a flush pass here to
//             reproduce deferred-frame emission timing.
//   kEnd      totals (chunks, decisions, drains, and — version >= 2 —
//             assocs); must be last. Lets a validator distinguish
//             "cleanly closed" from "truncated".
//
// Version 2 (fleet captures) adds:
//
//   kSiteDecision  a per-site decision: u32 site id followed by the
//             canonical decision payload. A fleet run emits decisions
//             concurrently across sites, so the global file order is
//             nondeterministic — but each site's subsequence is in that
//             site's sequence order, which is what replay compares.
//   kAssoc    a client (re)association driving a handoff: (site, handoff
//             generation, MAC). Replay re-issues the handoff here.
//
// Version 3 (lossy fleet captures) adds:
//
//   kTransport  the transport verdict of one migration under a fault
//             plan: (MAC, generation, delivered-vs-cold-start, data
//             attempts). The plan itself rides in the header metadata
//             (`sa.fleet.fault_plan`); replay rebuilds the same faulty
//             channel and re-checks every verdict.
//
// Version-1 consumers reject version-2+ files at the header, never
// mid-stream. A record type the header's version cannot hold (a
// kSiteDecision in a version-1 file, a plain kDecision in a fleet file,
// a kTransport below version 3) is malformed.
//
// The metadata map is free-form; sa/sim/deployment.hpp defines the keys
// a replayable office-deployment capture carries (seed, aps, estimator,
// subbands, policies, ...). Parsers here never trust lengths: every
// bound is checked against the remaining input, and malformed input
// yields nullopt/false — never UB — which is what makes the mutate-based
// fuzz loop in capture_tool meaningful.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

// The byte primitives (ByteStream, put_*, ByteReader) are
// sa/common/bytes.hpp's, re-exported here.
#include "sa/common/bytes.hpp"
#include "sa/linalg/cmat.hpp"
#include "sa/secure/policy.hpp"

namespace sa {

// ------------------------------------------------------------ structure

inline constexpr std::uint32_t kSacpVersion = 1;
/// Fleet captures (site-tagged decisions, association records).
inline constexpr std::uint32_t kSacpVersionFleet = 2;
/// Lossy fleet captures: version 2 plus per-migration transport
/// verdicts (kTransport) and a `sa.fleet.fault_plan` metadata key, so
/// replay can rebuild the exact same faulty channel. A zero-fault fleet
/// run still writes version 2, byte-identical to pre-transport files.
inline constexpr std::uint32_t kSacpVersionChaos = 3;
/// "SACP" as a little-endian u32 (bytes S,A,C,P on the wire).
inline constexpr std::uint32_t kSacpMagic = 0x50434153;

enum class RecordType : std::uint32_t {
  kChunk = 1,
  kDecision = 2,
  kDrain = 3,
  kEnd = 4,
  kSiteDecision = 5,  // version >= 2
  kAssoc = 6,         // version >= 2
  kTransport = 7,     // version >= 3
};

/// Parser sanity bounds. Generous for real captures, tight enough that a
/// mutated length field cannot request an absurd allocation.
inline constexpr std::size_t kMaxRecordPayload = std::size_t{1} << 28;
inline constexpr std::size_t kMaxChunkRows = 256;
inline constexpr std::size_t kMaxChunkCols = std::size_t{1} << 22;
inline constexpr std::size_t kMaxMetaEntries = 256;
inline constexpr std::size_t kMaxTraceEntries = 256;
/// Bounds on what a header can make replay build. One AP's build cost
/// grows with its antennas and subbands, so antennas x subbands summed
/// over every AP of the deployment (or of the whole fleet) is capped; a
/// 256-AP fleet of 4-antenna, 1-subband APs is exactly at the bound.
/// Every fleet site is a session with its own dataplane threads, so the
/// site count is capped too. The tracked-MAC bound ("sa.max_tracked")
/// is an untrusted field like the others and is capped as well, though
/// nothing is sized from it up front.
inline constexpr std::size_t kMaxAntennaBands = 1024;
inline constexpr std::size_t kMaxFleetSites = 64;
inline constexpr std::size_t kMaxTrackedMacs = std::size_t{1} << 16;

struct CaptureHeader {
  std::uint32_t version = kSacpVersion;
  std::uint32_t num_aps = 0;
  std::uint64_t seed = 0;
  /// Free-form self-description, in insertion order (order is part of
  /// the byte format, so captures with identical provenance are
  /// byte-identical).
  std::vector<std::pair<std::string, std::string>> metadata;

  /// First value for `key`, if present.
  std::optional<std::string> meta(std::string_view key) const;
};

/// A decimal metadata value ("192"); nullopt unless the whole text is
/// digits that fit in 64 bits.
std::optional<std::uint64_t> parse_u64(std::string_view text);

struct ChunkRecord {
  std::uint32_t ap = 0;
  /// Per-AP round index: this is the `round`-th chunk of this AP's
  /// stream (0-based).
  std::uint64_t round = 0;
  /// Absolute sample index of this chunk's first column in the AP's
  /// stream.
  std::uint64_t base = 0;
  CMat samples;
};

/// Decoded view of a decision record — for inspection and tests; replay
/// equality is judged on the raw payload bytes.
struct DecisionRecord {
  std::uint64_t sequence = 0;
  std::uint64_t absolute_start = 0;
  bool accepted = true;
  std::uint8_t spoof_verdict = 0;
  double spoof_score = 0.0;
  std::optional<std::array<std::uint8_t, 6>> source;
  struct Location {
    double x = 0.0;
    double y = 0.0;
    double residual_deg = 0.0;
    std::uint32_t aps_used = 0;
  };
  std::optional<Location> location;
  std::string policy;
  std::string detail;
  struct TraceEntry {
    std::string policy;
    bool dropped = false;
    std::string detail;
  };
  std::vector<TraceEntry> trace;
};

/// Version >= 2: one site's decision (site-local sequence order).
struct SiteDecisionRecord {
  std::uint32_t site = 0;
  DecisionRecord decision;
};

/// Version >= 2: a client (re)association that drove a handoff.
struct AssocRecord {
  std::uint32_t site = 0;          ///< destination site
  std::uint64_t generation = 0;    ///< handoff generation (guard)
  std::array<std::uint8_t, 6> mac{};
};

/// Version >= 3: the transport verdict of one migration under a fault
/// plan — delivered vs cold start, and how many data-frame attempts it
/// took. Replay re-runs the same plan and re-checks each verdict.
struct TransportRecord {
  std::array<std::uint8_t, 6> mac{};
  std::uint64_t generation = 0;  ///< the migration's (new) generation
  std::uint32_t outcome = 0;     ///< HandoffOutcome as u32
  std::uint32_t attempts = 0;
};

struct EndRecord {
  std::uint64_t chunks = 0;
  std::uint64_t decisions = 0;  ///< plain + site-tagged decisions
  std::uint64_t drains = 0;
  std::uint64_t assocs = 0;     ///< version >= 2 only on the wire
};

// -------------------------------------------------------------- encode

ByteStream encode_header(const CaptureHeader& header);

/// Canonical decision payload: replay determinism is defined as "the
/// replayed stream's encode_decision() bytes equal the recorded ones".
ByteStream encode_decision(std::uint64_t sequence,
                           std::uint64_t absolute_start,
                           const FrameDecision& decision);

ByteStream encode_chunk(std::uint32_t ap, std::uint64_t round,
                        std::uint64_t base, const CMat& samples);

/// Version >= 2: the site id followed by the canonical decision payload
/// (so a site's decision subsequence is byte-comparable against plain
/// encode_decision output with the site prefix stripped).
ByteStream encode_site_decision(std::uint32_t site, std::uint64_t sequence,
                                std::uint64_t absolute_start,
                                const FrameDecision& decision);

ByteStream encode_assoc(const AssocRecord& assoc);

ByteStream encode_transport(const TransportRecord& transport);

/// `version` controls the wire shape: version 1 writes the legacy
/// 3-counter payload byte-identically; version >= 2 appends the assoc
/// total.
ByteStream encode_end(const EndRecord& end,
                      std::uint32_t version = kSacpVersion);

/// Wrap a payload in the (len, type) record framing.
void append_record(ByteStream& out, RecordType type,
                   const ByteStream& payload);

// -------------------------------------------------------------- decode

std::optional<CaptureHeader> decode_header(ByteReader& r);
std::optional<ChunkRecord> decode_chunk(const ByteStream& payload);
std::optional<DecisionRecord> decode_decision(const ByteStream& payload);
std::optional<SiteDecisionRecord> decode_site_decision(
    const ByteStream& payload);
std::optional<AssocRecord> decode_assoc(const ByteStream& payload);
std::optional<TransportRecord> decode_transport(const ByteStream& payload);
/// Accepts both wire shapes (24- and 32-byte payloads); `assocs` is 0
/// for a version-1 record.
std::optional<EndRecord> decode_end(const ByteStream& payload);

// -------------------------------------------------------------- mutate

/// Deterministically corrupt a capture: `ops` random byte-level
/// mutations (xor / overwrite / zero) at offsets past the magic, with a
/// chance of truncating or extending the tail. The output is usually
/// *invalid* — that is the point: it seeds the fuzz loop that asserts
/// the parser and the replay path fail cleanly instead of crashing.
ByteStream mutate_capture(const ByteStream& input, std::uint64_t seed,
                          std::size_t ops);

}  // namespace sa
