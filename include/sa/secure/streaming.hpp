// Streaming capture: the WARP prototype ships 0.4 ms buffers (8000
// samples at 20 MHz) to the host; packets land anywhere in the stream,
// including straddling buffer boundaries. StreamingReceiver feeds an
// AccessPoint from a chunked sample stream, keeping enough overlap that
// a packet split across chunks is still detected and decoded exactly
// once.
//
// The scan hot path costs O(new samples): history lives in a ColumnRing
// (O(1) append/trim, no full-matrix copies), each sample is conditioned
// exactly once when appended (AccessPoint::condition_cols), detection
// runs through IncrementalScDetector, which computes each anchored
// coarse Schmidl-Cox term once and memoizes the LTF fine searches by
// absolute position, and the snapshot handed to the workers holds only
// the columns the candidates read. For every chunk schedule the emitted
// packet stream matches the pre-incremental receiver (grow-copy,
// whole-window conditioning, SchmidlCoxDetector::detect(window, base)):
// the same packets at the same absolute starts, bit for bit, except that
// `detection.start` is relative to the snapshot instead of the window.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sa/linalg/column_ring.hpp"
#include "sa/phy/incremental_detector.hpp"
#include "sa/secure/accesspoint.hpp"

namespace sa {

struct StreamingConfig {
  /// Samples retained across chunk boundaries. Must cover the longest
  /// packet expected plus detection margin; the default covers ~55 data
  /// symbols (a few hundred bytes at 6 Mbps). At least kPreambleLen +
  /// kSymbolLen (a preamble plus the SIGNAL symbol): the scan reads
  /// nothing from a shorter buffer.
  std::size_t history_samples = 6000;
  /// A detection is emitted once its SIGNAL field decodes and the whole
  /// span it announces is buffered. Otherwise it is retried until this
  /// many samples have accumulated past its start (the packet may still
  /// be arriving); after that it is emitted with the preamble+SIGNAL
  /// span. Must be < history_samples.
  std::size_t max_packet_samples = 4800;
};

class StreamingReceiver {
 public:
  /// Throws InvalidArgument when `config` violates its invariants
  /// (history_samples >= kPreambleLen + kSymbolLen and
  /// max_packet_samples < history_samples).
  StreamingReceiver(AccessPoint& ap, StreamingConfig config = {});

  /// Feed the next contiguous chunk (rows = antennas). Returns packets
  /// newly completed, each stamped with its absolute start sample and
  /// with its DATA decoded (decode_data).
  struct StreamPacket {
    std::size_t absolute_start = 0;
    ReceivedPacket packet;
  };
  std::vector<StreamPacket> push(const CMat& chunk);

  /// Process whatever remains (end of capture): deferred detections are
  /// emitted now even if possibly truncated.
  std::vector<StreamPacket> flush();

  // --- Two-phase variant, for callers that schedule the per-frame work
  // themselves (the EngineSession worker owning this AP demodulates the
  // candidates with its own scratch). push(chunk) == scan(&chunk) +
  // demodulate each candidate + commit(..., false) + decode_data on each
  // emitted packet; flush() == the same with nullptr/true. Packets
  // commit emits still hold their DATA samples pending: the caller
  // decodes them (group_frame_observations does, once per transmission).
  //
  // Commit-behind: a Scan captures its own absolute coordinates (base,
  // seen) and commit's emit/defer arithmetic uses *those*, not the live
  // buffer fields. A caller may therefore run scan for round N+1 before
  // commit for round N has been applied, as long as (a) scans happen in
  // round order, (b) commits happen in round order, (c) commit N never
  // precedes scan N, and (d) all calls on one receiver are externally
  // serialized (no physical concurrency). A scan taken ahead of a
  // pending commit sees a stale emit watermark and an untrimmed buffer,
  // so it may list candidates the pending commit is about to cover —
  // commit drops those deterministically against the then-current
  // watermark, and the emitted packet stream is identical to the
  // lock-step schedule.

  /// One not-yet-emitted detection in the current buffer.
  struct Candidate {
    std::size_t absolute_start = 0;
    PacketDetection detection;
  };
  /// The candidates plus the conditioned columns they read. `conditioned`
  /// is shared so workers can process candidates concurrently. It holds
  /// window columns from the first candidate's start to the window end:
  /// AccessPoint::prepare reads only columns at/after a detection's
  /// start, and candidates come in time order. It is null when the scan
  /// found no candidates (too few samples buffered, or nothing new), so
  /// an idle scan copies nothing.
  struct Scan {
    std::shared_ptr<const CMat> conditioned;
    /// Each candidate's `detection.start` indexes into `conditioned`.
    std::vector<Candidate> candidates;
    /// Absolute stream index of `conditioned` column 0 at scan time — the
    /// first candidate's absolute start; `seen` when there is none.
    std::size_t base = 0;
    /// Absolute samples consumed at scan time (== base + conditioned
    /// columns); commit's retry-deadline arithmetic anchors here.
    std::size_t seen = 0;
    /// Absolute samples consumed *before* this scan's chunk was appended.
    /// Candidates starting at/after this index are new in this round;
    /// earlier ones are retries of detections a previous round deferred
    /// (or duplicates a pending commit is about to emit).
    std::size_t prev_seen = 0;
  };

  /// Phase 1: append `chunk` (nullptr appends nothing — the flush path),
  /// condition the buffer, run detection, and list the candidates.
  Scan scan(const CMat* chunk);
  /// Phase 2: `processed[i]` must be
  /// ap().demodulate(*scan.conditioned, scan.candidates[i].detection) —
  /// or nullopt for a candidate below the current emit watermark (commit
  /// skips those before ever looking at `processed`). Applies the
  /// emit/defer state machine in candidate order and advances the buffer
  /// (trims history; on final_pass, resets it).
  std::vector<StreamPacket> commit(
      const Scan& scan, std::vector<std::optional<ReceivedPacket>> processed,
      bool final_pass);

  /// Absolute end of the last emitted packet. A commit-behind caller
  /// consults this (after the preceding round's commit) to skip
  /// re-decoding candidates an earlier commit already covered.
  std::size_t emit_watermark() const { return emit_watermark_; }

  const AccessPoint& ap() const { return ap_; }
  const StreamingConfig& config() const { return config_; }

  /// Total samples consumed so far.
  std::size_t samples_seen() const { return base_ + buffered_cols_; }

  /// Fine-timing-search cache behavior of the incremental detector
  /// (observability for tests and benches).
  const IncrementalScDetector& incremental_detector() const {
    return detector_;
  }

 private:
  /// push() (chunk, false) and flush() (nullptr, true).
  std::vector<StreamPacket> run_pass(const CMat* chunk, bool final_pass);
  void trim();

  AccessPoint& ap_;
  StreamingConfig config_;
  /// Conditioned history window. Samples are conditioned exactly once,
  /// when their chunk is appended (AccessPoint::condition_cols); scan
  /// materializes the Scan::conditioned snapshot from here with a plain
  /// copy of the candidates' columns — the steady-state scan never
  /// re-runs conditioning math or re-copies the history to append/trim.
  ColumnRing cond_;
  IncrementalScDetector detector_;
  /// Snapshot recycling: scan hands out shared_ptr<const CMat> snapshots;
  /// once every consumer drops one (use_count back to 1 here), its
  /// allocation is reused for a later scan instead of paying a fresh
  /// multi-MB allocation + page-fault per round. Bounded, so a pipelined
  /// caller holding several rounds in flight just falls back to fresh
  /// allocations.
  std::vector<std::shared_ptr<CMat>> snapshot_pool_;
  std::size_t buffered_cols_ = 0;
  std::size_t base_ = 0;        // absolute index of window column 0
  std::size_t emit_watermark_ = 0;  // absolute end of last emitted packet
};

}  // namespace sa
