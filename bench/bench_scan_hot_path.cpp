// Streaming-scan hot path microbenchmark: isolates what one
// StreamingReceiver::scan costs — append, incremental conditioning,
// incremental detection, snapshot — against the pre-incremental path
// (grow-copy the raw buffer, re-condition the whole history, full
// detection, full-copy trim), across chunk sizes and history lengths.
// Also times the per-frame covariance with and without the block copy.
//
// The headline claims this bench exists to check:
//   - incremental scan cost scales with the chunk, not the history:
//     each scan computes the anchored coarse Schmidl-Cox terms of its
//     new positions only (plus at most kScAnchor - 1 head positions
//     after a trim), and its snapshot holds only the columns from the
//     first candidate on — both printed per scan, as counts;
//   - conditioning is paid once per sample, not once per scan;
//   - the fine-timing searches are memoized (cache hits >> runs).
// What still grows with the history is the decision loop's one compare
// per window position.
//
// Usage: bench_scan_hot_path [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "sa/aoa/covariance.hpp"
#include "sa/channel/raytracer.hpp"
#include "sa/channel/simulator.hpp"
#include "sa/common/rng.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/ofdm.hpp"
#include "sa/phy/packet.hpp"
#include "sa/secure/streaming.hpp"

using namespace sa;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The pre-incremental scan path, re-created for the before/after
/// comparison: grow-copy append, whole-history re-conditioning, full
/// detection, full-copy trim.
class LegacyScanPath {
 public:
  LegacyScanPath(AccessPoint& ap, StreamingConfig config)
      : ap_(ap), config_(config), buffer_(ap.config().geometry.size(), 0) {}

  /// Returns the number of candidates found (sink against dead-code
  /// elimination); conditions the whole buffer and detects, then trims.
  std::size_t scan_and_trim(const CMat& chunk) {
    CMat grown(buffer_.rows(), buffered_ + chunk.cols());
    for (std::size_t m = 0; m < buffer_.rows(); ++m) {
      for (std::size_t t = 0; t < buffered_; ++t) grown(m, t) = buffer_(m, t);
      for (std::size_t t = 0; t < chunk.cols(); ++t) {
        grown(m, buffered_ + t) = chunk(m, t);
      }
    }
    buffer_ = std::move(grown);
    buffered_ += chunk.cols();
    std::size_t found = 0;
    if (buffered_ >= kPreambleLen + kSymbolLen) {
      const CMat conditioned = ap_.condition(buffer_);
      found = ap_.detect(conditioned).size();
    }
    if (buffered_ > config_.history_samples) {
      const std::size_t drop = buffered_ - config_.history_samples;
      CMat kept(buffer_.rows(), config_.history_samples);
      for (std::size_t m = 0; m < buffer_.rows(); ++m) {
        for (std::size_t t = 0; t < config_.history_samples; ++t) {
          kept(m, t) = buffer_(m, drop + t);
        }
      }
      buffer_ = std::move(kept);
      buffered_ = config_.history_samples;
    }
    return found;
  }

 private:
  AccessPoint& ap_;
  StreamingConfig config_;
  CMat buffer_;
  std::size_t buffered_ = 0;
};

/// One AP and a long multi-antenna stream with a packet every ~3000
/// samples — the workload every sweep replays.
struct Workload {
  Rng rng{42};
  AccessPoint ap;
  CMat stream;

  explicit Workload(std::size_t target_samples)
      : ap(AccessPointConfig{}, rng) {
    ChannelConfig ch;
    ch.noise_power = 1e-5;
    ChannelSimulator sim(ch);
    RayTracer tracer;
    Floorplan empty;
    const auto paths = tracer.trace({12.0, 0.0}, {0.0, 0.0}, empty);

    std::vector<CMat> pieces;
    std::size_t total = 0;
    std::uint16_t seq = 0;
    while (total < target_samples) {
      const std::size_t lead = 800 + 700 * (seq % 3);
      const Frame f = Frame::data(MacAddress::from_index(1),
                                  MacAddress::from_index(2), Bytes{1, 2}, seq++);
      const CVec wave =
          PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
      CMat rx = sim.propagate(wave, paths, ap.placement(), rng);
      CMat piece(rx.rows(), lead + rx.cols());
      for (std::size_t m = 0; m < rx.rows(); ++m) {
        for (std::size_t t = 0; t < lead; ++t) {
          piece(m, t) = rng.complex_normal(1e-5);
        }
        for (std::size_t t = 0; t < rx.cols(); ++t) {
          piece(m, lead + t) = rx(m, t);
        }
      }
      total += piece.cols();
      pieces.push_back(std::move(piece));
    }
    stream = CMat(pieces[0].rows(), total);
    std::size_t at = 0;
    for (const auto& p : pieces) {
      for (std::size_t m = 0; m < p.rows(); ++m) {
        std::copy_n(p.raw() + m * p.cols(), p.cols(),
                    stream.raw() + m * stream.cols() + at);
      }
      at += p.cols();
    }
  }

  CMat chunk_at(std::size_t at, std::size_t len) const {
    const std::size_t end = std::min(at + len, stream.cols());
    CMat out(stream.rows(), end - at);
    for (std::size_t m = 0; m < stream.rows(); ++m) {
      std::copy_n(stream.raw() + m * stream.cols() + at, end - at,
                  out.raw() + m * out.cols());
    }
    return out;
  }
};

struct ScanCost {
  double scan_us = 0.0;    // mean per scan, steady state
  double decode_us = 0.0;  // demodulate + commit per round
  std::size_t frames = 0;
  double coarse_per_scan = 0.0;    // coarse positions computed per scan
  double fine_per_scan = 0.0;      // fine searches run per scan
  double snapshot_cols = 0.0;      // columns per snapshot taken
};

/// Replay the stream through the incremental receiver; time scan()
/// separately from demodulate+commit. The first `warmup` rounds (filling
/// the history window) are excluded.
ScanCost run_incremental(Workload& w, const StreamingConfig& cfg,
                         std::size_t chunk, std::size_t warmup) {
  StreamingReceiver rx(w.ap, cfg);
  ScanCost out;
  const IncrementalScDetector& det = rx.incremental_detector();
  double scan_s = 0.0, decode_s = 0.0;
  std::size_t rounds = 0, timed = 0, coarse = 0, fine = 0, snapshots = 0,
              snapshot_cols = 0;
  for (std::size_t at = 0; at + chunk <= w.stream.cols(); at += chunk) {
    const CMat c = w.chunk_at(at, chunk);
    const std::size_t coarse0 = det.coarse_positions_computed();
    const std::size_t fine0 = det.fine_searches_run();
    const auto t0 = Clock::now();
    auto scan = rx.scan(&c);
    const double st = secs_since(t0);
    const std::size_t scan_coarse = det.coarse_positions_computed() - coarse0;
    const std::size_t scan_fine = det.fine_searches_run() - fine0;
    const std::size_t scan_cols =
        scan.conditioned ? scan.conditioned->cols() : 0;
    const auto t1 = Clock::now();
    std::vector<std::optional<ReceivedPacket>> processed;
    processed.reserve(scan.candidates.size());
    for (const auto& cand : scan.candidates) {
      processed.push_back(w.ap.demodulate(*scan.conditioned, cand.detection));
    }
    out.frames += rx.commit(scan, std::move(processed), false).size();
    const double dt = secs_since(t1);
    if (++rounds > warmup) {
      scan_s += st;
      decode_s += dt;
      ++timed;
      coarse += scan_coarse;
      fine += scan_fine;
      if (scan.conditioned) {
        ++snapshots;
        snapshot_cols += scan_cols;
      }
    }
  }
  if (timed > 0) {
    const double n = static_cast<double>(timed);
    out.scan_us = 1e6 * scan_s / n;
    out.decode_us = 1e6 * decode_s / n;
    out.coarse_per_scan = static_cast<double>(coarse) / n;
    out.fine_per_scan = static_cast<double>(fine) / n;
  }
  if (snapshots > 0) {
    out.snapshot_cols = static_cast<double>(snapshot_cols) /
                        static_cast<double>(snapshots);
  }
  return out;
}

double run_legacy(Workload& w, const StreamingConfig& cfg, std::size_t chunk,
                  std::size_t warmup, std::size_t* sink) {
  LegacyScanPath legacy(w.ap, cfg);
  double scan_s = 0.0;
  std::size_t rounds = 0, timed = 0;
  for (std::size_t at = 0; at + chunk <= w.stream.cols(); at += chunk) {
    const CMat c = w.chunk_at(at, chunk);
    const auto t0 = Clock::now();
    *sink += legacy.scan_and_trim(c);
    const double st = secs_since(t0);
    if (++rounds > warmup) {
      scan_s += st;
      ++timed;
    }
  }
  return timed > 0 ? 1e6 * scan_s / static_cast<double>(timed) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf(
      "================================================================\n"
      "Streaming-scan hot path: incremental (ring + condition-once +\n"
      "memoized detection) vs the pre-incremental full-rescan path\n"
      "================================================================\n");

  const std::size_t stream_len = smoke ? 60000 : 240000;
  Workload w(stream_len);
  std::size_t sink = 0;

  // ---- scan cost vs chunk size, fixed history.
  {
    StreamingConfig cfg;  // history 6000
    const std::vector<std::size_t> chunks =
        smoke ? std::vector<std::size_t>{500, 2000}
              : std::vector<std::size_t>{250, 500, 1000, 2000, 4000};
    std::printf("\nscan cost vs chunk size (history %zu, %zu-sample stream):\n",
                cfg.history_samples, w.stream.cols());
    std::printf("%-8s %14s %14s %9s %16s %12s %12s %11s %13s\n", "chunk",
                "legacy us/scan", "incr us/scan", "speedup", "incr ns/sample",
                "decode us", "coarse/scan", "fine/scan", "snapshot cols");
    for (std::size_t chunk : chunks) {
      const std::size_t warmup = cfg.history_samples / chunk + 1;
      const double legacy_us = run_legacy(w, cfg, chunk, warmup, &sink);
      const ScanCost inc = run_incremental(w, cfg, chunk, warmup);
      std::printf("%-8zu %14.1f %14.1f %8.1fx %16.1f %12.1f %12.1f %11.2f %13.1f\n",
                  chunk, legacy_us, inc.scan_us, legacy_us / inc.scan_us,
                  1e3 * inc.scan_us / static_cast<double>(chunk),
                  inc.decode_us, inc.coarse_per_scan, inc.fine_per_scan,
                  inc.snapshot_cols);
    }
  }

  // ---- scan cost vs history length, fixed chunk: the incremental path
  // should be nearly flat (its O(history) remainder is the decision
  // loop's compare per window position), the legacy path linear.
  {
    const std::size_t chunk = 1000;
    const std::vector<std::size_t> histories =
        smoke ? std::vector<std::size_t>{6000, 24000}
              : std::vector<std::size_t>{6000, 12000, 24000, 48000};
    std::printf("\nscan cost vs history length (chunk %zu):\n", chunk);
    std::printf("%-9s %14s %14s %9s %12s %13s\n", "history",
                "legacy us/scan", "incr us/scan", "speedup", "coarse/scan",
                "snapshot cols");
    for (std::size_t history : histories) {
      StreamingConfig cfg;
      cfg.history_samples = history;
      const std::size_t warmup = history / chunk + 1;
      const double legacy_us = run_legacy(w, cfg, chunk, warmup, &sink);
      const ScanCost inc = run_incremental(w, cfg, chunk, warmup);
      std::printf("%-9zu %14.1f %14.1f %8.1fx %12.1f %13.1f\n", history,
                  legacy_us, inc.scan_us, legacy_us / inc.scan_us,
                  inc.coarse_per_scan, inc.snapshot_cols);
    }
  }

  // ---- fine-timing memoization effectiveness.
  {
    StreamingConfig cfg;
    StreamingReceiver rx(w.ap, cfg);
    const std::size_t chunk = 1000;
    for (std::size_t at = 0; at + chunk <= w.stream.cols(); at += chunk) {
      const CMat c = w.chunk_at(at, chunk);
      auto scan = rx.scan(&c);
      std::vector<std::optional<ReceivedPacket>> processed(
          scan.candidates.size());
      for (std::size_t i = 0; i < scan.candidates.size(); ++i) {
        processed[i] = w.ap.demodulate(*scan.conditioned,
                                       scan.candidates[i].detection);
      }
      rx.commit(scan, std::move(processed), false);
    }
    const auto& det = rx.incremental_detector();
    std::printf(
        "\nfine-timing memoization (chunk 1000): %zu searches run, "
        "%zu cache hits (%.1f hits/search)\n",
        det.fine_searches_run(), det.fine_cache_hits(),
        det.fine_searches_run() > 0
            ? static_cast<double>(det.fine_cache_hits()) /
                  static_cast<double>(det.fine_searches_run())
            : 0.0);
  }

  // ---- per-frame covariance: block-copy vs straight off the window.
  {
    const std::size_t reps = smoke ? 400 : 4000;
    const CMat conditioned = w.ap.condition(w.chunk_at(0, 6000));
    const std::size_t start = 900, end = start + 1760;  // ~one 6 Mbps frame
    volatile double guard = 0.0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      CMat block(conditioned.rows(), end - start);
      for (std::size_t m = 0; m < conditioned.rows(); ++m) {
        for (std::size_t t = start; t < end; ++t) {
          block(m, t - start) = conditioned(m, t);
        }
      }
      const CMat r = sample_covariance(block);
      guard = guard + r(0, 0).real();
    }
    const double with_copy_us = 1e6 * secs_since(t0) / static_cast<double>(reps);
    t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      const CMat r = sample_covariance_cols(conditioned, start, end);
      guard = guard + r(0, 0).real();
    }
    const double direct_us = 1e6 * secs_since(t0) / static_cast<double>(reps);
    std::printf(
        "\nper-frame covariance (8 antennas, %zu-sample frame, %zu reps):\n"
        "  block-copy + sample_covariance: %8.1f us\n"
        "  sample_covariance_cols:         %8.1f us  (%.2fx)\n",
        end - start, reps, with_copy_us, direct_us, with_copy_us / direct_us);
  }

  std::printf("\n(sink %zu)\n", sink);
  return 0;
}
