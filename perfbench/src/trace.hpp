// Workloads and their seeded, pre-synthesized IQ traces.
//
// A trace is synthesized once per run, before any timer starts, from the
// workload seed: a pool of distinct rounds (one time-aligned chunk per
// AP of one site), which the trace then cycles through. Channel
// synthesis (sa/sim, sa/channel, sa/testbed) is the load generator's
// work and never runs inside a timed region; the system under test only
// ever sees the generated chunks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sa/fleet/coordinator.hpp"
#include "sa/sim/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Sites; 1 runs one EngineSession, more run a FleetCoordinator.
  std::size_t sites = 1;
  /// Per-site deployment (its seed is the workload seed).
  sa::DeploymentSpec site;
  /// Dataplane worker threads per site.
  std::size_t workers = 2;
  /// Traffic mix (kOffice or kRoaming) and its simulated arrival rate,
  /// which only paces channel evolution between pool frames.
  sa::ScenarioKind scenario = sa::ScenarioKind::kOffice;
  double scenario_rate = 40.0;
  double roaming_dwell_s = 0.1;
  /// Distinct frame-carrying rounds, and distinct noise-only rounds.
  std::size_t frame_pool = 64;
  std::size_t noise_pool = 0;
  /// Share of trace rounds that carry a frame: one per block of
  /// 1/frame_share rounds (1 = every round).
  double frame_share = 1.0;
  /// Fixed buffer length [samples]; 0 fits the round to its frame.
  std::size_t buffer_len = 0;
  /// Open-loop arrivals: Poisson, or a fixed cadence as AP hardware
  /// delivers buffers; `open_rate` rounds per second, a quarter to half
  /// of `closed_rate` — low enough that queueing does not magnify the
  /// host's speed drift into the latency figures.
  bool poisson = true;
  double open_rate = 200.0;
  /// About the saturated rate on a 4-CPU host [rounds/s]. It sizes the
  /// closed loop's fixed amount of work (rate x seconds), so every run
  /// of a workload replays the same rounds however fast the system is.
  double closed_rate = 450.0;
  /// Trace rounds whose decisions every phase must agree on.
  std::size_t check_rounds = 192;
};

/// The benchmark's workloads by name: office-dense, sparse-air,
/// roaming-wideband; nullopt for any other name.
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed);

/// Spoof-tracker idle horizon every site runs with: 0 (off) on one
/// site; on a fleet, the horizon derived from the walkers' dwell time.
std::size_t spoof_idle_frames(const Workload& w);

/// One round: a time-aligned chunk per AP of one site.
struct PoolRound {
  std::uint32_t site = 0;
  /// The frame's source MAC; nullopt for a noise-only round.
  std::optional<sa::MacAddress> mac;
  std::vector<sa::CMat> chunks;
};

struct Trace {
  std::size_t sites = 1;
  std::size_t aps_per_site = 0;
  /// Every chunk's length [samples] (aligned rounds).
  std::size_t round_len = 0;
  std::uint64_t seed = 0;
  /// pool[0, frame_entries) carry frames; the rest are noise only.
  std::vector<PoolRound> pool;
  std::size_t frame_entries = 0;
  double frame_share = 1.0;
  /// Wall time synthesis took [s].
  double synth_s = 0.0;

  /// The pool entry replayed as trace round r (a pure function of the
  /// seed and r).
  std::size_t pool_index(std::uint64_t r) const;
  const PoolRound& round(std::uint64_t r) const { return pool[pool_index(r)]; }
  /// Rounds each site receives among trace rounds [0, n).
  std::vector<std::uint64_t> site_rounds(std::uint64_t n) const;
  double pool_mb() const;
};

/// Synthesize `w`'s pool. Every AP's chunk of a round is padded with
/// noise at the channel floor to one common length, so rounds stay
/// time-aligned across APs however long each AP's propagation output is.
Trace synthesize(const Workload& w);

/// The fleet's view of where each client lives, advanced along the
/// trace: what has to happen before a round's chunks are submitted.
class HomeTracker {
 public:
  enum class Action { kNone, kFirst, kMigrate };
  struct Step {
    Action action = Action::kNone;
    std::uint32_t source = 0;
    std::uint64_t generation = 0;  ///< the client's generation after it
  };
  Step step(const PoolRound& round);

 private:
  struct Home {
    std::uint32_t site = 0;
    std::uint64_t generation = 0;
  };
  std::unordered_map<sa::MacAddress, Home> homes_;
};

}  // namespace perfbench
