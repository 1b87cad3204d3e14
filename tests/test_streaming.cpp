// Tests for StreamingReceiver: chunked capture with packets inside,
// straddling, and far beyond chunk boundaries — the 0.4 ms WARP buffer
// pipeline of paper §3.
#include <gtest/gtest.h>

#include "sa/channel/raytracer.hpp"
#include "sa/channel/simulator.hpp"
#include "sa/common/error.hpp"
#include "sa/common/rng.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"
#include "sa/phy/ofdm.hpp"
#include "sa/secure/streaming.hpp"
#include "sa/signature/metrics.hpp"

namespace sa {
namespace {

/// Free-space rig: one AP at the origin, one client 12 m east.
struct StreamRig {
  Rng rng{77};
  Floorplan empty;
  AccessPointConfig cfg;
  AccessPoint ap;
  ChannelSimulator sim;
  RayTracer tracer;
  std::vector<PropagationPath> paths;

  StreamRig()
      : cfg([] {
          AccessPointConfig c;
          c.position = {0.0, 0.0};
          return c;
        }()),
        ap(cfg, rng),
        sim([] {
          ChannelConfig ch;
          ch.noise_power = 1e-6;
          return ch;
        }()) {
    paths = tracer.trace({12.0, 0.0}, {0.0, 0.0}, empty);
  }

  /// Channel samples for one frame preceded by `lead` noise samples.
  CMat capture(std::size_t lead, std::uint16_t seq) {
    const Frame f = Frame::data(MacAddress::from_index(1),
                                MacAddress::from_index(2), Bytes{9, 9}, seq);
    const CVec wave = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    CMat rx = sim.propagate(wave, paths, ap.placement(), rng);
    CMat padded(rx.rows(), lead + rx.cols());
    for (std::size_t m = 0; m < rx.rows(); ++m) {
      for (std::size_t t = 0; t < lead; ++t) {
        padded(m, t) = rng.complex_normal(1e-6);
      }
      for (std::size_t t = 0; t < rx.cols(); ++t) {
        padded(m, lead + t) = rx(m, t);
      }
    }
    return padded;
  }

  static CMat columns(const CMat& src, std::size_t from, std::size_t to) {
    CMat out(src.rows(), to - from);
    for (std::size_t m = 0; m < src.rows(); ++m) {
      for (std::size_t t = from; t < to; ++t) out(m, t - from) = src(m, t);
    }
    return out;
  }
};

TEST(Streaming, PacketInsideOneChunk) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  const CMat cap = rig.capture(500, 0);
  const auto pkts = rx.push(cap);
  ASSERT_EQ(pkts.size(), 1u);
  // Within a couple of samples: the 12 m path itself delays the packet.
  EXPECT_NEAR(static_cast<double>(pkts[0].absolute_start), 500.0, 2.0);
  ASSERT_TRUE(pkts[0].packet.frame.has_value());
  EXPECT_EQ(pkts[0].packet.frame->sequence, 0);
}

TEST(Streaming, PacketStraddlingChunks) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  const CMat cap = rig.capture(700, 3);
  // Split right through the packet body.
  const std::size_t cut = 1100;
  auto first = rx.push(StreamRig::columns(cap, 0, cut));
  EXPECT_TRUE(first.empty());  // packet incomplete: deferred
  auto second = rx.push(StreamRig::columns(cap, cut, cap.cols()));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NEAR(static_cast<double>(second[0].absolute_start), 700.0, 2.0);
  ASSERT_TRUE(second[0].packet.frame.has_value());
  EXPECT_EQ(second[0].packet.frame->sequence, 3);
}

TEST(Streaming, NoDuplicateEmissionAcrossOverlap) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  const CMat cap = rig.capture(400, 7);
  auto first = rx.push(cap);
  ASSERT_EQ(first.size(), 1u);
  // Push pure noise afterwards; the retained overlap still contains the
  // packet, but it must not be emitted again.
  CMat noise(cap.rows(), 2000);
  for (std::size_t m = 0; m < noise.rows(); ++m) {
    for (std::size_t t = 0; t < noise.cols(); ++t) {
      noise(m, t) = rig.rng.complex_normal(1e-6);
    }
  }
  EXPECT_TRUE(rx.push(noise).empty());
  EXPECT_TRUE(rx.push(noise).empty());
}

TEST(Streaming, MultiplePacketsAcrossManyChunks) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  // Three packets separated by noise, streamed in 800-sample chunks
  // (sub-packet chunks: every packet straddles boundaries).
  std::vector<CMat> captures;
  for (std::uint16_t s = 0; s < 3; ++s) captures.push_back(rig.capture(600, s));
  CMat all(captures[0].rows(), 0);
  {
    std::size_t total = 0;
    for (const auto& c : captures) total += c.cols();
    all = CMat(captures[0].rows(), total);
    std::size_t at = 0;
    for (const auto& c : captures) {
      for (std::size_t m = 0; m < c.rows(); ++m) {
        for (std::size_t t = 0; t < c.cols(); ++t) all(m, at + t) = c(m, t);
      }
      at += c.cols();
    }
  }
  std::vector<std::uint16_t> seqs;
  for (std::size_t at = 0; at < all.cols(); at += 800) {
    const std::size_t end = std::min(at + 800, all.cols());
    for (const auto& p : rx.push(StreamRig::columns(all, at, end))) {
      ASSERT_TRUE(p.packet.frame.has_value());
      seqs.push_back(p.packet.frame->sequence);
    }
  }
  for (const auto& p : rx.flush()) {
    if (p.packet.frame) seqs.push_back(p.packet.frame->sequence);
  }
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs[0], 0);
  EXPECT_EQ(seqs[1], 1);
  EXPECT_EQ(seqs[2], 2);
}

TEST(Streaming, SignatureMatchesNonStreamingPipeline) {
  StreamRig rig;
  const CMat cap = rig.capture(300, 1);
  // Reference: one-shot receive.
  const auto direct = rig.ap.receive(cap);
  ASSERT_EQ(direct.size(), 1u);
  // Streamed in two halves.
  StreamingReceiver rx(rig.ap);
  rx.push(StreamRig::columns(cap, 0, 900));
  const auto streamed = rx.push(StreamRig::columns(cap, 900, cap.cols()));
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_NEAR(streamed[0].packet.bearing_array_deg, direct[0].bearing_array_deg,
              0.5);
  EXPECT_GT(match_score(streamed[0].packet.signature, direct[0].signature),
            0.99);
}

TEST(Streaming, SamplesSeenAdvances) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  CMat noise(rig.ap.config().geometry.size(), 1000);
  for (std::size_t m = 0; m < noise.rows(); ++m) {
    for (std::size_t t = 0; t < noise.cols(); ++t) {
      noise(m, t) = rig.rng.complex_normal(1e-6);
    }
  }
  rx.push(noise);
  rx.push(noise);
  EXPECT_EQ(rx.samples_seen(), 2000u);
}

TEST(Streaming, RejectsWrongAntennaCount) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  EXPECT_THROW(rx.push(CMat(3, 100)), InvalidArgument);
}

TEST(Streaming, RejectsInvalidConfig) {
  StreamRig rig;
  // max_packet_samples must stay below history_samples: a packet longer
  // than the retained history could never accumulate enough samples to
  // be decoded or emitted.
  StreamingConfig bad;
  bad.history_samples = 4000;
  bad.max_packet_samples = 4000;
  EXPECT_THROW(StreamingReceiver(rig.ap, bad), InvalidArgument);
  bad.max_packet_samples = 4800;
  EXPECT_THROW(StreamingReceiver(rig.ap, bad), InvalidArgument);
  // History must also hold a preamble plus the SIGNAL symbol, the
  // least the scan reads.
  StreamingConfig tiny;
  tiny.history_samples = 300;
  tiny.max_packet_samples = 200;
  EXPECT_THROW(StreamingReceiver(rig.ap, tiny), InvalidArgument);
  // The documented default is valid.
  EXPECT_NO_THROW(StreamingReceiver(rig.ap, StreamingConfig{}));
}

TEST(Streaming, TwoPhaseScanCommitMatchesPush) {
  // The engine's split API must behave exactly like push(): same packet,
  // same signature, same watermark bookkeeping. push() also runs the
  // DATA step on what commit emits; the hand-driven path does it here.
  StreamRig rig;
  const CMat cap = rig.capture(500, 4);

  StreamingReceiver via_push(rig.ap);
  const auto pushed = via_push.push(cap);
  ASSERT_EQ(pushed.size(), 1u);

  StreamingReceiver two_phase(rig.ap);
  auto scan = two_phase.scan(&cap);
  ASSERT_TRUE(scan.conditioned != nullptr);
  std::vector<std::optional<ReceivedPacket>> processed;
  for (const auto& cand : scan.candidates) {
    processed.push_back(rig.ap.demodulate(*scan.conditioned, cand.detection));
  }
  auto committed =
      two_phase.commit(scan, std::move(processed), /*final_pass=*/false);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_FALSE(committed[0].packet.frame.has_value());  // DATA pending
  decode_data(committed[0].packet);
  EXPECT_EQ(committed[0].absolute_start, pushed[0].absolute_start);
  ASSERT_TRUE(committed[0].packet.frame.has_value());
  EXPECT_EQ(committed[0].packet.frame->sequence, 4);
  EXPECT_EQ(committed[0].packet.bearing_array_deg,
            pushed[0].packet.bearing_array_deg);
  EXPECT_EQ(two_phase.samples_seen(), via_push.samples_seen());
}

TEST(Streaming, CommitBehindScheduleEmitsIdenticalStream) {
  // A commit-behind caller scans round N+1 before round N's commit has
  // been applied. The emitted packet stream must be identical to the
  // lock-step schedule: a scan taken ahead of a pending commit lists
  // extra candidates (the pending round's packets, not yet below the
  // watermark), and commit must drop exactly those.
  StreamRig rig;
  // Three chunks: a packet inside chunk 1, a packet straddling the
  // chunk-2/3 boundary (exercising the deferred-retry path), noise tail.
  const CMat cap1 = rig.capture(500, 0);
  const CMat cap2 = rig.capture(900, 1);
  const std::size_t cut = cap2.cols() - 700;  // split through packet 1's body
  std::vector<CMat> chunks;
  chunks.push_back(cap1);
  chunks.push_back(StreamRig::columns(cap2, 0, cut));
  chunks.push_back(StreamRig::columns(cap2, cut, cap2.cols()));

  // Reference: lock-step push/flush.
  std::vector<StreamingReceiver::StreamPacket> expected;
  {
    StreamingReceiver rx(rig.ap);
    for (const auto& c : chunks) {
      for (auto& p : rx.push(c)) expected.push_back(std::move(p));
    }
    for (auto& p : rx.flush()) expected.push_back(std::move(p));
  }
  ASSERT_EQ(expected.size(), 2u);

  // Commit-behind: every scan runs first, then the commits land behind
  // them in order. Candidates an earlier commit has emitted by commit
  // time are handed in as nullopt, after a check against the watermark.
  // Each emitted packet then gets the DATA step push() runs.
  std::vector<StreamingReceiver::StreamPacket> emitted;
  {
    StreamingReceiver rx(rig.ap);
    std::vector<StreamingReceiver::Scan> scans;
    for (const auto& c : chunks) scans.push_back(rx.scan(&c));
    scans.push_back(rx.scan(nullptr));  // the flush pass, also ahead
    for (std::size_t s = 0; s < scans.size(); ++s) {
      std::vector<std::optional<ReceivedPacket>> processed(
          scans[s].candidates.size());
      for (std::size_t i = 0; i < scans[s].candidates.size(); ++i) {
        const auto& cand = scans[s].candidates[i];
        if (cand.absolute_start < rx.emit_watermark()) continue;
        processed[i] =
            rig.ap.demodulate(*scans[s].conditioned, cand.detection);
      }
      const bool final_pass = s + 1 == scans.size();
      for (auto& p : rx.commit(scans[s], std::move(processed), final_pass)) {
        decode_data(p.packet);
        emitted.push_back(std::move(p));
      }
    }
  }

  ASSERT_EQ(emitted.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(emitted[i].absolute_start, expected[i].absolute_start);
    ASSERT_EQ(emitted[i].packet.frame.has_value(),
              expected[i].packet.frame.has_value());
    if (expected[i].packet.frame) {
      EXPECT_EQ(emitted[i].packet.frame->sequence,
                expected[i].packet.frame->sequence);
    }
    EXPECT_EQ(emitted[i].packet.bearing_array_deg,
              expected[i].packet.bearing_array_deg);
  }
}

// --------------------------------------------- incremental hot path

/// Bit-exact replica of the pre-incremental receiver: grow-copy the raw
/// buffer on append, re-run AccessPoint::condition over the whole
/// history every scan, full detection at the window's absolute origin,
/// full-copy snapshot and trim; push/flush run the DATA step on what
/// they emit. This is the oracle the ring-buffer / incremental scan path
/// must match byte for byte on every chunk schedule.
class LegacyReceiver {
 public:
  LegacyReceiver(AccessPoint& ap, StreamingConfig config)
      : ap_(ap), config_(config) {
    buffer_ = CMat(ap_.config().geometry.size(), 0);
  }

  StreamingReceiver::Scan scan(const CMat* chunk) {
    const std::size_t prev_seen = base_ + buffered_cols_;
    if (chunk != nullptr) {
      CMat grown(buffer_.rows(), buffered_cols_ + chunk->cols());
      for (std::size_t m = 0; m < buffer_.rows(); ++m) {
        for (std::size_t t = 0; t < buffered_cols_; ++t) {
          grown(m, t) = buffer_(m, t);
        }
        for (std::size_t t = 0; t < chunk->cols(); ++t) {
          grown(m, buffered_cols_ + t) = (*chunk)(m, t);
        }
      }
      buffer_ = std::move(grown);
      buffered_cols_ += chunk->cols();
    }
    StreamingReceiver::Scan out;
    out.base = base_;
    out.seen = base_ + buffered_cols_;
    out.prev_seen = prev_seen;
    if (buffered_cols_ < kPreambleLen + kSymbolLen) return out;
    out.conditioned = std::make_shared<const CMat>(ap_.condition(buffer_));
    for (const auto& det :
         ap_.detector().detect(out.conditioned->row(0), base_)) {
      const std::size_t abs_start = base_ + det.start;
      if (abs_start < emit_watermark_) continue;
      out.candidates.push_back({abs_start, det});
    }
    return out;
  }

  std::vector<StreamingReceiver::StreamPacket> commit(
      const StreamingReceiver::Scan& scan,
      std::vector<std::optional<ReceivedPacket>> processed, bool final_pass) {
    std::vector<StreamingReceiver::StreamPacket> out;
    for (std::size_t i = 0; i < scan.candidates.size(); ++i) {
      const auto& cand = scan.candidates[i];
      if (cand.absolute_start < emit_watermark_) continue;
      if (!processed[i]) continue;
      ReceivedPacket& pkt = *processed[i];
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
      buffer_ = CMat(buffer_.rows(), 0);
      buffered_cols_ = 0;
    } else if (buffered_cols_ > config_.history_samples) {
      const std::size_t drop = buffered_cols_ - config_.history_samples;
      CMat kept(buffer_.rows(), config_.history_samples);
      for (std::size_t m = 0; m < buffer_.rows(); ++m) {
        for (std::size_t t = 0; t < config_.history_samples; ++t) {
          kept(m, t) = buffer_(m, drop + t);
        }
      }
      buffer_ = std::move(kept);
      buffered_cols_ = config_.history_samples;
      base_ += drop;
    }
    return out;
  }

  std::vector<StreamingReceiver::StreamPacket> push(const CMat& chunk) {
    auto s = scan(&chunk);
    std::vector<std::optional<ReceivedPacket>> processed;
    for (const auto& cand : s.candidates) {
      processed.push_back(ap_.demodulate(*s.conditioned, cand.detection));
    }
    auto out = commit(s, std::move(processed), false);
    for (auto& p : out) decode_data(p.packet);
    return out;
  }

  std::vector<StreamingReceiver::StreamPacket> flush() {
    auto s = scan(nullptr);
    std::vector<std::optional<ReceivedPacket>> processed;
    for (const auto& cand : s.candidates) {
      processed.push_back(ap_.demodulate(*s.conditioned, cand.detection));
    }
    auto out = commit(s, std::move(processed), true);
    for (auto& p : out) decode_data(p.packet);
    return out;
  }

  std::size_t emit_watermark() const { return emit_watermark_; }

 private:
  AccessPoint& ap_;
  StreamingConfig config_;
  CMat buffer_;
  std::size_t buffered_cols_ = 0;
  std::size_t base_ = 0;
  std::size_t emit_watermark_ = 0;
};

void expect_packets_bit_identical(
    const std::vector<StreamingReceiver::StreamPacket>& got,
    const std::vector<StreamingReceiver::StreamPacket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    // Packets are placed by absolute start: the incremental receiver's
    // detection.start indexes its candidates-only snapshot, the legacy
    // one's the whole window.
    EXPECT_EQ(got[i].absolute_start, want[i].absolute_start);
    const ReceivedPacket& g = got[i].packet;
    const ReceivedPacket& w = want[i].packet;
    // Detection fields bit-exact (EXPECT_EQ on doubles).
    EXPECT_EQ(g.detection.metric, w.detection.metric);
    EXPECT_EQ(g.detection.cfo_hz, w.detection.cfo_hz);
    EXPECT_EQ(g.detection.fine_peak, w.detection.fine_peak);
    // Decode and AoA results bit-exact: the header and, on a
    // hand-driven commit, the DATA samples still pending.
    ASSERT_EQ(g.header.has_value(), w.header.has_value());
    if (w.header) {
      EXPECT_EQ(g.header->samples_needed, w.header->samples_needed);
    }
    EXPECT_EQ(g.data_samples, w.data_samples);
    ASSERT_EQ(g.phy.has_value(), w.phy.has_value());
    if (w.phy) {
      EXPECT_EQ(g.phy->psdu, w.phy->psdu);
    }
    ASSERT_EQ(g.frame.has_value(), w.frame.has_value());
    if (w.frame) {
      EXPECT_EQ(g.frame->sequence, w.frame->sequence);
    }
    EXPECT_EQ(g.bearing_array_deg, w.bearing_array_deg);
    ASSERT_EQ(g.signature.spectrum().size(), w.signature.spectrum().size());
    for (std::size_t s = 0; s < w.signature.spectrum().size(); ++s) {
      ASSERT_EQ(g.signature.spectrum().values()[s],
                w.signature.spectrum().values()[s]);
    }
    ASSERT_EQ(g.subband.num_bands(), w.subband.num_bands());
  }
}

/// Concatenate noise-led captures into one long stream.
CMat build_long_capture(StreamRig& rig, std::size_t packets) {
  std::vector<CMat> caps;
  for (std::uint16_t s = 0; s < packets; ++s) {
    caps.push_back(rig.capture(400 + 300 * (s % 3), s));
  }
  std::size_t total = 0;
  for (const auto& c : caps) total += c.cols();
  CMat all(caps[0].rows(), total);
  std::size_t at = 0;
  for (const auto& c : caps) {
    for (std::size_t m = 0; m < c.rows(); ++m) {
      for (std::size_t t = 0; t < c.cols(); ++t) all(m, at + t) = c(m, t);
    }
    at += c.cols();
  }
  return all;
}

TEST(Streaming, IncrementalBitIdenticalToLegacyAcrossChunkSchedules) {
  // The tentpole invariant: the ring-buffer + incremental-conditioning +
  // incremental-detection scan path emits a packet stream byte-identical
  // to the pre-incremental receiver for every chunk schedule — fixed
  // chunks (prime and power-of-two), a chunk larger than the whole
  // history (multi-window trim in one commit), and a ragged cycle
  // crossing every compaction boundary.
  StreamRig rig;
  StreamingConfig cfg;
  cfg.history_samples = 2500;
  cfg.max_packet_samples = 2200;
  const CMat all = build_long_capture(rig, 3);

  const std::vector<std::vector<std::size_t>> schedules = {
      {97},    // prime, far smaller than a packet
      {800},   // the WARP-ish sub-packet chunk
      {4096},  // larger than history_samples: trim drops a whole window
      {13, 701, 1, 2048, 333},  // ragged cycle
  };
  for (const auto& sched : schedules) {
    SCOPED_TRACE(testing::Message() << "chunk schedule [" << sched[0] << "...]");
    StreamingReceiver incremental(rig.ap, cfg);
    LegacyReceiver legacy(rig.ap, cfg);
    std::size_t at = 0, step = 0;
    while (at < all.cols()) {
      const std::size_t want_chunk = sched[step++ % sched.size()];
      const std::size_t end = std::min(at + want_chunk, all.cols());
      const CMat chunk = StreamRig::columns(all, at, end);
      at = end;
      expect_packets_bit_identical(incremental.push(chunk),
                                   legacy.push(chunk));
      ASSERT_EQ(incremental.emit_watermark(), legacy.emit_watermark());
      ASSERT_EQ(incremental.samples_seen(), at);
    }
    expect_packets_bit_identical(incremental.flush(), legacy.flush());
    ASSERT_EQ(incremental.emit_watermark(), legacy.emit_watermark());
  }
}

TEST(Streaming, IncrementalBitIdenticalToLegacyOneSampleChunks) {
  // 1-sample chunks: thousands of scans over a short stream, hammering
  // the append/trim boundaries and the origin-dependent coarse
  // recurrences one column at a time.
  StreamRig rig;
  StreamingConfig cfg;
  cfg.history_samples = 900;
  cfg.max_packet_samples = 850;
  const CMat all = build_long_capture(rig, 1);
  const std::size_t total = std::min<std::size_t>(all.cols(), 1400);

  StreamingReceiver incremental(rig.ap, cfg);
  LegacyReceiver legacy(rig.ap, cfg);
  for (std::size_t at = 0; at < total; ++at) {
    const CMat chunk = StreamRig::columns(all, at, at + 1);
    expect_packets_bit_identical(incremental.push(chunk), legacy.push(chunk));
    ASSERT_EQ(incremental.emit_watermark(), legacy.emit_watermark());
  }
  expect_packets_bit_identical(incremental.flush(), legacy.flush());
}

TEST(Streaming, IncrementalBitIdenticalToLegacyCommitBehind) {
  // Commit-behind schedule: all scans run ahead, then the commits land
  // behind them in order. Both implementations walk the identical
  // schedule and must agree bit for bit — scan coordinates, candidate
  // lists, snapshots, emissions. The incremental snapshot is the legacy
  // one's columns from the first candidate on.
  StreamRig rig;
  StreamingConfig cfg;
  cfg.history_samples = 2500;
  cfg.max_packet_samples = 2200;
  const CMat all = build_long_capture(rig, 2);
  std::vector<CMat> chunks;
  for (std::size_t at = 0; at < all.cols(); at += 900) {
    chunks.push_back(StreamRig::columns(all, at, std::min(at + 900, all.cols())));
  }

  StreamingReceiver incremental(rig.ap, cfg);
  LegacyReceiver legacy(rig.ap, cfg);
  std::vector<StreamingReceiver::Scan> inc_scans, leg_scans;
  for (const auto& c : chunks) {
    inc_scans.push_back(incremental.scan(&c));
    leg_scans.push_back(legacy.scan(&c));
  }
  inc_scans.push_back(incremental.scan(nullptr));
  leg_scans.push_back(legacy.scan(nullptr));

  for (std::size_t s = 0; s < inc_scans.size(); ++s) {
    SCOPED_TRACE(s);
    ASSERT_EQ(inc_scans[s].seen, leg_scans[s].seen);
    ASSERT_EQ(inc_scans[s].candidates.size(), leg_scans[s].candidates.size());
    for (std::size_t i = 0; i < inc_scans[s].candidates.size(); ++i) {
      ASSERT_EQ(inc_scans[s].candidates[i].absolute_start,
                leg_scans[s].candidates[i].absolute_start);
    }
    // Snapshots bit-identical whenever they exist. The incremental path
    // skips the snapshot for candidate-free scans (nothing reads it);
    // the legacy oracle always materialized one.
    if (inc_scans[s].candidates.empty()) {
      ASSERT_TRUE(inc_scans[s].conditioned == nullptr);
    }
    if (leg_scans[s].conditioned && inc_scans[s].conditioned) {
      const CMat& a = *inc_scans[s].conditioned;
      const CMat& b = *leg_scans[s].conditioned;
      ASSERT_GE(inc_scans[s].base, leg_scans[s].base);
      const std::size_t off = inc_scans[s].base - leg_scans[s].base;
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(off + a.cols(), b.cols());
      for (std::size_t m = 0; m < a.rows(); ++m) {
        for (std::size_t t = 0; t < a.cols(); ++t) {
          ASSERT_EQ(a(m, t), b(m, off + t));
        }
      }
    }
    auto run_commit = [&](auto& rx, const StreamingReceiver::Scan& scan) {
      std::vector<std::optional<ReceivedPacket>> processed(
          scan.candidates.size());
      for (std::size_t i = 0; i < scan.candidates.size(); ++i) {
        const auto& cand = scan.candidates[i];
        if (cand.absolute_start < rx.emit_watermark()) continue;
        processed[i] =
            rig.ap.demodulate(*scan.conditioned, cand.detection);
      }
      return rx.commit(scan, std::move(processed),
                       s + 1 == inc_scans.size());
    };
    expect_packets_bit_identical(run_commit(incremental, inc_scans[s]),
                                 run_commit(legacy, leg_scans[s]));
  }
}

TEST(Streaming, ScratchDemodulateBitIdentical) {
  // The per-worker FrameScratch path must produce bit-identical packets
  // to the allocating path — including when the scratch is dirty from a
  // previous, larger frame.
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  const CMat cap = rig.capture(500, 9);
  auto scan = rx.scan(&cap);
  ASSERT_FALSE(scan.candidates.empty());
  AccessPoint::FrameScratch scratch;
  scratch.aligned.assign(9000, cd{1.0, -1.0});  // dirty, oversized
  scratch.sub.resize(8, CMat(8, 977));
  for (const auto& cand : scan.candidates) {
    auto plain = rig.ap.demodulate(*scan.conditioned, cand.detection);
    auto reused =
        rig.ap.demodulate(*scan.conditioned, cand.detection, &scratch);
    auto again =  // scratch now dirty from this very frame
        rig.ap.demodulate(*scan.conditioned, cand.detection, &scratch);
    ASSERT_EQ(plain.has_value(), reused.has_value());
    ASSERT_EQ(plain.has_value(), again.has_value());
    if (!plain) continue;
    ASSERT_TRUE(plain->header.has_value());
    for (const auto* p : {&*reused, &*again}) {
      // The pending DATA samples are the packet's own copy, untouched by
      // the next frame's use of the scratch.
      EXPECT_EQ(p->data_samples, plain->data_samples);
    }
    for (auto* p : {&*plain, &*reused, &*again}) decode_data(*p);
    for (const auto* p : {&*reused, &*again}) {
      EXPECT_EQ(p->bearing_array_deg, plain->bearing_array_deg);
      ASSERT_EQ(p->phy.has_value(), plain->phy.has_value());
      if (plain->phy) {
        EXPECT_EQ(p->phy->psdu, plain->phy->psdu);
      }
      ASSERT_EQ(p->signature.spectrum().size(),
                plain->signature.spectrum().size());
      for (std::size_t i = 0; i < plain->signature.spectrum().size(); ++i) {
        ASSERT_EQ(p->signature.spectrum().values()[i],
                  plain->signature.spectrum().values()[i]);
      }
    }
  }
}

TEST(Streaming, ScratchPrepareBitIdenticalWideband) {
  // Wideband (subbands = 4): the scratch path reuses the subband
  // snapshot matrices and FFT window across frames; the per-band
  // covariance contexts must come out bit-identical.
  Rng rng(77);
  AccessPointConfig cfg;
  cfg.subbands = 4;
  AccessPoint ap(cfg, rng);
  ChannelSimulator sim([] {
    ChannelConfig ch;
    ch.noise_power = 1e-6;
    return ch;
  }());
  RayTracer tracer;
  Floorplan empty;
  const auto paths = tracer.trace({12.0, 0.0}, {0.0, 0.0}, empty);
  const Frame f = Frame::data(MacAddress::from_index(1),
                              MacAddress::from_index(2), Bytes{7, 7}, 0);
  const CVec wave = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
  const CMat rx = sim.propagate(wave, paths, ap.placement(), rng);
  const CMat conditioned = ap.condition(rx);
  const auto dets = ap.detect(conditioned);
  ASSERT_FALSE(dets.empty());

  AccessPoint::FrameScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {  // second pass: dirty scratch
    const auto plain = ap.prepare(conditioned, dets[0]);
    const auto reused = ap.prepare(conditioned, dets[0], &scratch);
    ASSERT_EQ(plain.has_value(), reused.has_value());
    if (!plain) continue;
    ASSERT_EQ(reused->bands.size(), plain->bands.size());
    ASSERT_EQ(plain->bands.size(), 4u);
    for (std::size_t b = 0; b < plain->bands.size(); ++b) {
      const CMat& ra = reused->bands[b].covariance();
      const CMat& rb = plain->bands[b].covariance();
      ASSERT_EQ(ra.rows(), rb.rows());
      for (std::size_t i = 0; i < ra.data().size(); ++i) {
        ASSERT_EQ(ra.data()[i], rb.data()[i]);
      }
      EXPECT_EQ(reused->bands[b].lambda_m(), plain->bands[b].lambda_m());
    }
    ASSERT_EQ(reused->header.has_value(), plain->header.has_value());
    if (plain->header) {
      EXPECT_EQ(reused->header->samples_needed, plain->header->samples_needed);
    }
    EXPECT_EQ(reused->data_samples, plain->data_samples);
  }
}

TEST(Streaming, ConditionColsBitIdenticalToFullCondition) {
  StreamRig rig;
  const CMat cap = rig.capture(300, 2);
  // Condition the capture in ragged column slices through a ring...
  ColumnRing ring(cap.rows());
  std::size_t done = 0;
  const std::size_t cuts[] = {1, 137, 512, 63};
  std::size_t i = 0;
  while (done < cap.cols()) {
    const std::size_t end = std::min(done + cuts[i++ % 4], cap.cols());
    ring.append(StreamRig::columns(cap, done, end));
    rig.ap.condition_cols(ring, done, end);
    done = end;
  }
  // ...and against one whole-buffer pass.
  const CMat full = rig.ap.condition(cap);
  CMat snap;
  ring.materialize(snap);
  ASSERT_EQ(snap.cols(), full.cols());
  for (std::size_t t = 0; t < full.data().size(); ++t) {
    ASSERT_EQ(snap.data()[t], full.data()[t]);
  }
  // condition_inplace agrees with condition().
  CMat inplace = cap;
  rig.ap.condition_inplace(inplace);
  for (std::size_t t = 0; t < full.data().size(); ++t) {
    ASSERT_EQ(inplace.data()[t], full.data()[t]);
  }
}

TEST(Streaming, ScanRecordsAbsoluteCoordinates) {
  StreamRig rig;
  StreamingReceiver rx(rig.ap);
  const CMat cap = rig.capture(300, 0);
  auto s1 = rx.scan(&cap);
  // The snapshot starts at the first candidate.
  ASSERT_FALSE(s1.candidates.empty());
  EXPECT_EQ(s1.base, s1.candidates.front().absolute_start);
  EXPECT_EQ(s1.candidates.front().detection.start, 0u);
  EXPECT_EQ(s1.prev_seen, 0u);
  EXPECT_EQ(s1.seen, cap.cols());
  std::vector<std::optional<ReceivedPacket>> processed(s1.candidates.size());
  for (std::size_t i = 0; i < s1.candidates.size(); ++i) {
    processed[i] = rig.ap.demodulate(*s1.conditioned, s1.candidates[i].detection);
  }
  rx.commit(s1, std::move(processed), false);
  auto s2 = rx.scan(&cap);
  EXPECT_EQ(s2.prev_seen, cap.cols());
  EXPECT_EQ(s2.seen, 2 * cap.cols());
  ASSERT_FALSE(s2.candidates.empty());
  EXPECT_EQ(s2.base, s2.candidates.front().absolute_start);
  EXPECT_EQ(s2.base + (s2.conditioned ? s2.conditioned->cols() : 0),
            s2.seen);
}

TEST(Streaming, SnapshotHoldsOnlyCandidateColumns) {
  // Every snapshot runs from the first candidate's start to the window
  // end, each detection.start indexes into it, and a candidate-free
  // scan copies nothing (base == seen).
  StreamRig rig;
  const CMat quiet = rig.capture(4000, 9);  // leads with packet-free chunks
  const CMat packets = build_long_capture(rig, 4);
  const std::size_t history = StreamingConfig{}.history_samples;
  const std::size_t chunk_len = 1472;
  StreamingReceiver rx(rig.ap);
  std::size_t snapshots = 0, idle = 0, trimmed_head = 0;
  auto run_chunk = [&](const CMat& chunk) {
    auto scan = rx.scan(&chunk);
    std::vector<std::optional<ReceivedPacket>> processed(
        scan.candidates.size());
    if (scan.candidates.empty()) {
      ++idle;
      EXPECT_TRUE(scan.conditioned == nullptr);
      EXPECT_EQ(scan.base, scan.seen);
    } else {
      ++snapshots;
      ASSERT_TRUE(scan.conditioned != nullptr);
      EXPECT_EQ(scan.conditioned->cols(),
                scan.seen - scan.candidates.front().absolute_start);
      EXPECT_EQ(scan.base, scan.candidates.front().absolute_start);
      for (const auto& cand : scan.candidates) {
        EXPECT_EQ(cand.detection.start, cand.absolute_start - scan.base);
      }
      // The last commit trimmed the window to start history_samples
      // before the previous round's end.
      const std::size_t window_start =
          scan.prev_seen - std::min(scan.prev_seen, history);
      if (scan.base > window_start) ++trimmed_head;
      for (std::size_t i = 0; i < scan.candidates.size(); ++i) {
        processed[i] = rig.ap.demodulate(*scan.conditioned,
                                         scan.candidates[i].detection);
      }
    }
    rx.commit(scan, std::move(processed), false);
  };
  for (const CMat* src : {&quiet, &packets}) {
    for (std::size_t at = 0; at < src->cols(); at += chunk_len) {
      run_chunk(StreamRig::columns(*src, at,
                                   std::min(at + chunk_len, src->cols())));
    }
  }
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(idle, 0u);
  EXPECT_GT(trimmed_head, 0u);  // some snapshot skipped leading columns
}

}  // namespace
}  // namespace sa
