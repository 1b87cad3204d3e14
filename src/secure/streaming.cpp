#include "sa/secure/streaming.hpp"

#include <atomic>

#include "sa/common/error.hpp"
#include "sa/phy/ofdm.hpp"

namespace sa {

StreamingReceiver::StreamingReceiver(AccessPoint& ap, StreamingConfig config)
    : ap_(ap),
      config_(config),
      cond_(ap.config().geometry.size()),
      detector_(ap.detector().config()) {
  SA_EXPECTS(config_.history_samples >= kPreambleLen + kSymbolLen);
  SA_EXPECTS(config_.max_packet_samples < config_.history_samples);
}

StreamingReceiver::Scan StreamingReceiver::scan(const CMat* chunk) {
  const std::size_t prev_seen = base_ + buffered_cols_;
  if (chunk != nullptr) {
    SA_EXPECTS(chunk->rows() == ap_.config().geometry.size());
    // Append the raw chunk, then condition exactly the new columns: the
    // history prefix was conditioned when it arrived and its values are
    // immutable from then on.
    cond_.append(*chunk);
    ap_.condition_cols(cond_, buffered_cols_, buffered_cols_ + chunk->cols());
    buffered_cols_ += chunk->cols();
  }

  Scan out;
  out.seen = base_ + buffered_cols_;
  out.base = out.seen;  // no snapshot: it would start at the window end
  out.prev_seen = prev_seen;
  if (buffered_cols_ < kPreambleLen + kSymbolLen) return out;

  // Incremental detection over the conditioned reference row: identical
  // output to running the full detector over the window at its absolute
  // origin, with the coarse terms and fine searches cached across scans.
  for (const auto& det : detector_.scan(cond_.row(0), buffered_cols_, base_)) {
    const std::size_t abs_start = base_ + det.start;
    if (abs_start < emit_watermark_) continue;  // already emitted
    out.candidates.push_back({abs_start, det});
  }
  if (out.candidates.empty()) return out;  // nothing would read a snapshot

  // Snapshot the columns the demodulate workers read — from the first
  // candidate's start (candidates are in time order) to the window end —
  // as a plain per-row copy, no conditioning math, into a recycled
  // allocation when a previous scan's snapshot has been released by
  // every consumer. Detection starts are rebased onto the snapshot.
  const std::size_t first_col = out.candidates.front().detection.start;
  out.base = base_ + first_col;
  for (auto& cand : out.candidates) cand.detection.start -= first_col;
  std::shared_ptr<CMat> snapshot;
  for (auto& pooled : snapshot_pool_) {
    if (pooled.use_count() == 1) {
      // A pipelined caller's workers drop their references on other
      // threads; pair an acquire fence with the control counter's
      // release decrement so their final reads are ordered before the
      // overwrite below.
      std::atomic_thread_fence(std::memory_order_acquire);
      snapshot = pooled;
      break;
    }
  }
  if (!snapshot) {
    snapshot = std::make_shared<CMat>();
    if (snapshot_pool_.size() < 8) snapshot_pool_.push_back(snapshot);
  }
  cond_.materialize(*snapshot, first_col);
  out.conditioned = snapshot;
  return out;
}

std::vector<StreamingReceiver::StreamPacket> StreamingReceiver::commit(
    const Scan& scan, std::vector<std::optional<ReceivedPacket>> processed,
    bool final_pass) {
  SA_EXPECTS(processed.size() == scan.candidates.size());
  std::vector<StreamPacket> out;
  for (std::size_t i = 0; i < scan.candidates.size(); ++i) {
    const Candidate& cand = scan.candidates[i];
    // Re-check against the watermark: an earlier candidate emitted in
    // this very commit may have covered this one.
    if (cand.absolute_start < emit_watermark_) continue;
    if (!processed[i]) continue;  // truncated capture: retried next scan
    ReceivedPacket& pkt = *processed[i];

    // Emit once the SIGNAL field decodes and the whole span it announces
    // is in the buffer (PacketReceiver::decode_header checks both); the
    // packet then ends where that span does. Otherwise the packet may
    // still be arriving: retry it until max_packet_samples have
    // accumulated past the detection, then emit it with the
    // preamble+SIGNAL span. No DATA or FCS result is read here. All of
    // this is computed in the scan's own absolute coordinates, so a
    // commit applied behind a later scan behaves exactly as it would
    // have lock-step.
    const std::size_t projected_end =
        cand.absolute_start +
        (pkt.header ? pkt.header->samples_needed : kPreambleLen + kSymbolLen);
    if (!final_pass && !pkt.header &&
        cand.absolute_start + config_.max_packet_samples > scan.seen) {
      continue;
    }
    emit_watermark_ = projected_end;
    out.push_back({cand.absolute_start, std::move(pkt)});
  }

  if (final_pass) {
    base_ += buffered_cols_;
    cond_.clear();
    buffered_cols_ = 0;
  } else {
    trim();
  }
  return out;
}

std::vector<StreamingReceiver::StreamPacket> StreamingReceiver::push(
    const CMat& chunk) {
  return run_pass(&chunk, /*final_pass=*/false);
}

std::vector<StreamingReceiver::StreamPacket> StreamingReceiver::flush() {
  return run_pass(nullptr, /*final_pass=*/true);
}

std::vector<StreamingReceiver::StreamPacket> StreamingReceiver::run_pass(
    const CMat* chunk, bool final_pass) {
  Scan s = scan(chunk);
  std::vector<std::optional<ReceivedPacket>> processed;
  processed.reserve(s.candidates.size());
  for (const auto& cand : s.candidates) {
    processed.push_back(ap_.demodulate(*s.conditioned, cand.detection));
  }
  std::vector<StreamPacket> out = commit(s, std::move(processed), final_pass);
  for (StreamPacket& p : out) decode_data(p.packet);
  return out;
}

void StreamingReceiver::trim() {
  if (buffered_cols_ <= config_.history_samples) return;
  const std::size_t drop = buffered_cols_ - config_.history_samples;
  cond_.drop_front(drop);
  buffered_cols_ = config_.history_samples;
  base_ += drop;
}

}  // namespace sa
