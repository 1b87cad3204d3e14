// CaptureWriter: writes one SACP capture. The engine never records;
// each stream's owner does. A driver records each chunk just before it
// submits it and each drain marker just before drain(), and its decision
// sink records each decision first thing. A FleetCoordinator does all
// three for its sites.
//
// Each record is written synchronously under the writer's mutex, a leaf
// lock: nothing else is called while it is held. File order is the order
// of the record calls, so a run that records chunks and decisions from
// different threads interleaves them differently from run to run
// (`capture_tool diff` compares tracks, not file order).
//
// The writer numbers each AP's chunks itself: a chunk's round counts that
// AP's earlier chunks and its base sums their columns. Two rules follow:
//  - Chunk order: a recorder must submit each AP's chunks from one
//    thread, in the order it records them.
//  - Refused chunks: a chunk is recorded before it is submitted, so one
//    the engine refuses (NaN, Inf, above kMaxIqMagnitude, wrong shape)
//    is in the capture, and replay refuses it at the same record.
//
// close() appends the kEnd totals record and closes the file; the
// destructor closes. A writer is bound to one file for its lifetime.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "sa/capture/format.hpp"

namespace sa {

class CaptureWriter {
 public:
  /// Opens `path` for writing and emits the header immediately. Throws
  /// sa::Error when the file cannot be opened.
  CaptureWriter(const std::string& path, CaptureHeader header);
  ~CaptureWriter();

  CaptureWriter(const CaptureWriter&) = delete;
  CaptureWriter& operator=(const CaptureWriter&) = delete;

  /// Record the next chunk of `ap`'s stream (a fleet-global AP id in a
  /// fleet capture). Throws InvalidArgument when `ap` is not below the
  /// header's num_aps. Thread-safe.
  void record_chunk(std::size_t ap, const CMat& samples);
  /// Record one emitted decision in sequence order. Thread-safe.
  void record_decision(std::uint64_t sequence, std::uint64_t absolute_start,
                       const FrameDecision& decision);
  /// Record one site's emitted decision (fleet capture, version >= 2);
  /// counts toward the decision total. Thread-safe.
  void record_site_decision(std::uint32_t site, std::uint64_t sequence,
                            std::uint64_t absolute_start,
                            const FrameDecision& decision);
  /// Record a client association/handoff (fleet capture, version >= 2).
  /// Thread-safe.
  void record_assoc(const AssocRecord& assoc);
  /// Record a migration's transport verdict (lossy fleet capture,
  /// version >= 3). Thread-safe.
  void record_transport(const TransportRecord& transport);
  /// Record a drain() boundary. Thread-safe.
  void record_drain();

  /// Write the kEnd totals record and close the file. Idempotent;
  /// recording after close() throws StateError. Throws sa::Error when
  /// any write to the file failed.
  void close();
  bool closed() const;

  std::uint64_t chunks_recorded() const;
  std::uint64_t decisions_recorded() const;
  std::uint64_t drains_recorded() const;
  std::uint64_t assocs_recorded() const;
  const std::string& path() const { return path_; }

 private:
  /// Frame and write one record; call with mu_ held.
  void write(RecordType type, const ByteStream& payload);
  /// Lock, write and tally one record other than a chunk.
  void record(RecordType type, const ByteStream& payload);

  /// One AP's chunk numbering: chunks recorded and their total columns.
  struct ApTrack {
    std::uint64_t chunks = 0;
    std::uint64_t columns = 0;
  };

  std::string path_;
  std::FILE* file_ = nullptr;
  /// Header version, echoed into the end record's wire shape.
  std::uint32_t version_ = kSacpVersion;

  mutable std::mutex mu_;
  bool closed_ = false;
  bool write_failed_ = false;
  std::vector<ApTrack> tracks_;  ///< one per header AP
  std::uint64_t chunks_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t assocs_ = 0;
};

}  // namespace sa
