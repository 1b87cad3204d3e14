// The serial staged replay: one thread feeds the trace lock-step through
// the public stage functions EngineSession composes — scan, prepare,
// eig, estimate_band, assemble, commit, grouping, spoof observe and the
// policy chain — so its decisions are the session's, byte for byte. On a
// fleet it also carries each cross-site migration the way the fleet
// does (export, FleetWire round trip, import, forget).
//
// Without a Tracer this is the untraced single-thread baseline. With
// one it records a span around every call, and after each round replays
// the stages that run hidden inside one call (conditioning inside scan,
// PHY decode and covariance inside prepare) on the same inputs as
// separate kernel spans, outside the call tree.
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

struct SerialCounts {
  std::uint64_t samples_scanned = 0;   ///< chunk columns appended, all APs
  std::uint64_t cols_conditioned = 0;  ///< condition kernel columns
  std::uint64_t demodulations = 0;     ///< prepare calls
  std::uint64_t packets_emitted = 0;   ///< packets commit emitted
  std::uint64_t decode_calls = 0;      ///< decode kernel calls
  std::uint64_t decode_ok = 0;         ///< ... that returned a packet
  std::uint64_t bands = 0;             ///< spectral contexts prepared
  std::uint64_t frames = 0;            ///< frames decided
  std::uint64_t migrations = 0;
};

struct SerialResult {
  std::uint64_t rounds = 0;  ///< trace rounds replayed
  std::uint64_t decisions = 0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  /// Frame rounds left without a decision.
  std::uint64_t missing = 0;
  std::uint64_t tracked_macs = 0;
  double drop_frac = 0.0;
  /// Frames each policy dropped, summed over sites.
  std::map<std::string, std::uint64_t> drops;
  SerialCounts counts;
};

/// Replay trace rounds [0, n), then a final flush pass per site. With
/// `rounds` nonzero n = rounds; otherwise n is at least `min_rounds`
/// and as many more as fit in `seconds`.
SerialResult run_serial(const Workload& w, const Trace& tr,
                        std::uint64_t rounds, std::uint64_t min_rounds,
                        double seconds, Tracer* tracer);

}  // namespace perfbench
