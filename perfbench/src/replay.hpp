// Replaying the trace through the system under test — one EngineSession
// for a single site, a FleetCoordinator for several — built fresh from
// its spec for every phase. Every number is taken at a public call
// boundary: the decision sink, submit, wait_idle, notify_association,
// session_stats.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "sa/engine/session.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Mode {
  /// Saturation: the generator is held back only by backpressure.
  kClosed,
  /// Rounds submitted on a schedule fixed in advance; each frame is
  /// timed from when it was due.
  kOpen,
  /// A closed loop in which every cross-site handoff is split into
  /// quiescence (wait_idle on both sites) and migration. On one site,
  /// every 8th round pays the quiescence and the source half of a
  /// migration (export + FleetWire encode) a handoff out of it would.
  kProbe,
};

struct PhaseOptions {
  Mode mode = Mode::kClosed;
  /// Open loop: the schedule horizon [s]. Closed loop and probe: the
  /// work, Workload::closed_rate x seconds rounds.
  double seconds = 1.0;
  /// Trace rounds every phase replays at least (the digest prefix plus
  /// a margin for deferred detections).
  std::uint64_t min_rounds = 0;
  std::uint64_t schedule_seed = 0;
};

struct PhaseResult {
  /// Build from the spec to the decision for round 0 [s].
  double setup_s = 0.0;
  std::uint64_t rounds = 0;  ///< trace rounds submitted, round 0 included
  std::uint64_t frame_rounds = 0;
  std::uint64_t decisions = 0;  ///< decided after set-up
  double wall_s = 0.0;          ///< first timed submit until drained
  double cpu_s = 0.0;           ///< process CPU over the same interval
  /// Peak resident set the system added over the pre-synthesized inputs.
  double mem_peak_mb = 0.0;
  std::vector<double> latency_ms;  ///< open loop: due time -> decision
  std::vector<double> late_ms;     ///< open loop: generator lateness
  std::vector<double> submit_us;   ///< open loop: per EngineSession::submit
  std::vector<double> handoff_us;  ///< per cross-site notify_association
  std::vector<double> quiesce_us;  ///< probe
  std::vector<double> migrate_us;  ///< probe
  std::uint64_t handoff_ops = 0;   ///< associations requested
  std::uint64_t handoff_failures = 0;
  std::uint64_t migrations = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t home_map_bytes = 0;
  std::uint64_t missing = 0;  ///< frame rounds left without a decision
  std::uint64_t digest = 0;
  /// Counter deltas over the timed part, summed over sites (high-water
  /// marks: the maximum).
  sa::SessionStats stats;
};

PhaseResult run_phase(const Workload& w, const Trace& tr,
                      const PhaseOptions& opt);

/// Set-up alone: build from the spec and decide round 0 [s]; the
/// teardown is not timed.
double measure_setup(const Workload& w, const Trace& tr);

}  // namespace perfbench
