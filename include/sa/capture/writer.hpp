// CaptureWriter: the recording tap. Producers (submit threads, the
// session's control thread, a serial Coordinator) serialize records into
// an in-memory buffer under a short lock; a background flusher thread swaps
// the buffer out and writes it to disk — so the dataplane never blocks
// on file I/O (ndn-dpdk pdump's writer-thread split).
//
// Record order in the file is the order producers enqueued them, which
// is a legal serialization of the run: a chunk record always precedes
// any decision it contributed to, and a drain marker recorded from
// drain() follows every chunk the drain covers (caller-ordered).
//
// close() appends the kEnd totals record and flushes; the destructor
// closes. A writer is bound to one file for its lifetime.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

  /// Record the `round`-th chunk of `ap`'s stream, whose first column is
  /// absolute sample `base`. Thread-safe.
  void record_chunk(std::size_t ap, std::uint64_t round, std::uint64_t base,
                    const CMat& samples);
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

  /// Block until everything recorded so far is on disk.
  void flush();
  /// Write the kEnd totals record and close the file. Idempotent;
  /// recording after close() throws StateError.
  void close();

  /// Whether close() has run; the engine's tap checks this so a
  /// session closed after its writer does not throw StateError from
  /// the internal drain.
  bool closed() const;

  std::uint64_t chunks_recorded() const;
  std::uint64_t decisions_recorded() const;
  std::uint64_t drains_recorded() const;
  std::uint64_t assocs_recorded() const;
  const std::string& path() const { return path_; }

 private:
  void enqueue(RecordType type, const ByteStream& payload);
  void flusher_loop();

  std::string path_;
  std::FILE* file_ = nullptr;
  /// Header version, echoed into the end record's wire shape.
  std::uint32_t version_ = kSacpVersion;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // producers -> flusher
  std::condition_variable drained_cv_;  // flusher -> flush()/close()
  ByteStream pending_;
  bool stop_ = false;
  bool closed_ = false;
  bool write_failed_ = false;
  std::uint64_t generation_ = 0;   // bumped per enqueue
  std::uint64_t flushed_gen_ = 0;  // last generation fully written
  std::uint64_t chunks_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t assocs_ = 0;

  std::thread flusher_;
};

}  // namespace sa
