// CaptureReader: parse and walk a SACP capture held in memory (captures
// are regression-corpus sized; whole-file reads keep the parser simple
// and the error paths total). Also the home of validate() — the full
// structural walk capture_tool and CI run over every corpus entry — and
// diff_captures(), the logical track-by-track comparison replay
// verification is defined in terms of.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sa/capture/format.hpp"

namespace sa {

/// One parsed record. `payload` is always the raw bytes (the unit of
/// byte-identical comparison); the decoded views are filled per type.
struct CaptureRecord {
  RecordType type = RecordType::kEnd;
  ByteStream payload;
  std::optional<ChunkRecord> chunk;        // type == kChunk
  std::optional<DecisionRecord> decision;  // type == kDecision
  std::optional<SiteDecisionRecord> site_decision;  // type == kSiteDecision
  std::optional<AssocRecord> assoc;        // type == kAssoc
  std::optional<TransportRecord> transport;  // type == kTransport
  std::optional<EndRecord> end;            // type == kEnd
};

struct ValidationReport {
  bool ok = false;
  std::string error;          ///< empty when ok
  std::size_t record_index = 0;  ///< record the walk stopped at
  std::uint64_t chunks = 0;
  std::uint64_t decisions = 0;  ///< plain + site-tagged
  std::uint64_t drains = 0;
  std::uint64_t assocs = 0;
  std::uint64_t transports = 0;  ///< not part of the kEnd totals
  bool end_seen = false;
};

class CaptureReader {
 public:
  /// Takes ownership of the raw bytes; header parsing happens here.
  explicit CaptureReader(ByteStream data);

  /// Whole-file convenience; nullopt on I/O error (parse errors are
  /// reported through header()/next(), not here).
  static std::optional<CaptureReader> from_file(const std::string& path);

  /// nullopt when the header is malformed; no records are readable then.
  const std::optional<CaptureHeader>& header() const { return header_; }

  /// Next record in file order; nullopt at clean end-of-file or on a
  /// malformed record — disambiguate with error(). Records after a kEnd
  /// record are malformed by definition.
  std::optional<CaptureRecord> next();
  /// Error text for the walk so far; empty while everything parsed.
  const std::string& error() const { return error_; }

  /// Full structural walk on a fresh cursor: header, every record,
  /// payload decodability, kEnd totals vs actual counts, clean EOF.
  ValidationReport validate() const;

  const ByteStream& bytes() const { return data_; }

 private:
  std::optional<CaptureRecord> parse_record(ByteReader& r,
                                            bool& end_seen,
                                            std::string& error) const;

  ByteStream data_;
  std::optional<CaptureHeader> header_;
  std::size_t body_offset_ = 0;  ///< first byte after the header
  std::size_t cursor_ = 0;
  bool end_seen_ = false;
  std::string error_;
};

/// Logical comparison of two captures: same AP count, same per-AP chunk
/// track (each AP's chunk payloads in stream order — per-AP order is
/// submission order regardless of how concurrent submitters interleaved
/// in the file), same decision track (payload bytes, in file order =
/// sequence order), same per-site decision tracks (fleet captures emit
/// site decisions concurrently across sites, so only each site's
/// subsequence is ordered), same assoc and transport tracks, same drain
/// count. Header
/// metadata and physical record interleaving are NOT compared — two
/// runs of the same workload may legally interleave records
/// differently.
struct CaptureDiff {
  bool equal = false;
  std::string detail;  ///< first difference, human-readable
};

CaptureDiff diff_captures(const CaptureReader& a, const CaptureReader& b);

}  // namespace sa
