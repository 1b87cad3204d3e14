// Scenario generator: deterministic traffic workloads over the Figure-4
// office, from the benign baseline to adversarial and overload cases.
// A generator is a pull-based stream of TrafficEvents — who transmits,
// from where, with which MAC and transmit pattern, and how much
// simulated time passed since the previous event. The runner turns each
// event into a waveform and pushes it through the engine; every draw
// comes from the generator's own Rng, so a (scenario, seed) pair always
// produces the same event stream.
//
// Scenarios:
//   office         the classic streaming mix: Poisson arrivals, 80%
//                  legitimate clients, 10% insider MAC spoofing, 10%
//                  off-site amplified transmitter.
//   mmpp           the office mix under bursty arrivals: a two-state
//                  Markov-modulated Poisson process alternating calm and
//                  burst phases (exponential holding times).
//   flash-crowd    the office mix with a rate-multiplier window — every
//                  client piles on at once mid-run, then calm returns.
//   mobile         walking clients: a subset of clients move along
//                  straight quantized paths that exit the building
//                  mid-stream, so the fence flips on them frame by
//                  frame. Background office traffic continues.
//   adaptive-spoof the insider adapts: every `adapt_every` forged frames
//                  it moves closer to its victim's position, and against
//                  high-resolution estimators it also aims a directional
//                  antenna at the APs' centroid (the TJ-Maxx-style
//                  directional attacker, paper §2.2).
//   flood          the office mix plus a flooding attacker: an
//                  independent high-rate Poisson process inside a time
//                  window, transmitting from a legitimate client's
//                  position with that client's MAC — every signature
//                  check passes, so only RateLimitPolicy can stop it.
//   churn          a rotating MAC population with Zipf re-contact: a
//                  pool of churn_population active MACs, each event
//                  drawn Zipf(churn_zipf_exponent) over the pool (a few
//                  hot talkers, a long cold tail), while an independent
//                  process retires pool slots and mints fresh MACs at
//                  churn_rotate_per_s — the MAC-rotation workload that
//                  exercises per-MAC LRU eviction, idle expiry and
//                  rate-window retirement in the engine's tracked
//                  state.
//   roaming        the fleet-tier workload: roaming_walkers clients
//                  wander a fleet of roaming_sites sites. Each walker
//                  dwells at a site for an exponential
//                  Exp(1/roaming_dwell_s) holding time, then re-draws
//                  its site Zipf(roaming_zipf_exponent)-skewed over the
//                  fleet (site 0 is everyone's favorite — the lobby).
//                  Every event carries the walker's current site, and
//                  site_changed marks the first frame after a move —
//                  the cue for a cross-site handoff.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sa/aoa/estimator.hpp"
#include "sa/common/rng.hpp"
#include "sa/mac/address.hpp"
#include "sa/testbed/uplink.hpp"

namespace sa {

enum class ScenarioKind {
  kOffice,
  kMmpp,
  kFlashCrowd,
  kMobile,
  kAdaptiveSpoof,
  kFlood,
  kChurn,
  kRoaming,
};

const char* to_string(ScenarioKind kind);
std::optional<ScenarioKind> scenario_from_string(std::string_view name);
/// Comma-separated list of valid scenario names, for usage text.
const char* scenario_names();

struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kOffice;
  /// Mean frame arrivals/sec of the base process (the calm rate for
  /// mmpp, the off-window rate for flash-crowd).
  double arrival_rate = 40.0;
  /// Simulated horizon; the generator stops emitting past it.
  double duration_s = 2.0;

  // mmpp
  double burst_multiplier = 8.0;  ///< burst rate = multiplier * base
  double calm_hold_s = 0.5;       ///< mean calm-state holding time
  double burst_hold_s = 0.1;      ///< mean burst-state holding time

  // flash-crowd
  double flash_start_s = 0.5;
  double flash_len_s = 0.5;
  double flash_multiplier = 10.0;

  // mobile
  std::size_t mobile_clients = 2;   ///< walkers (clients 1, 2, ...)
  /// Walkers cross the fence at this fraction of the duration.
  double mobile_cross_at = 0.5;

  // adaptive-spoof
  std::size_t adapt_every = 4;  ///< forged frames between adaptations
  int spoof_victim_id = 2;      ///< client whose MAC is forged
  int spoof_source_id = 17;     ///< client position the insider starts at

  // flood
  double flood_rate = 400.0;  ///< attacker frames/sec inside the window
  double flood_start_s = 0.5;
  double flood_len_s = 0.5;
  int flood_client_id = 1;  ///< position + MAC the flooder borrows

  // churn
  std::size_t churn_population = 64;  ///< concurrently active MACs
  double churn_zipf_exponent = 1.1;   ///< re-contact skew over the pool
  double churn_rotate_per_s = 50.0;   ///< mean slot retirements/sec

  // roaming (fleet tier)
  std::size_t roaming_sites = 4;      ///< sites walkers roam across
  std::size_t roaming_walkers = 8;    ///< walkers (clients 1, 2, ...)
  double roaming_dwell_s = 0.4;       ///< mean per-site dwell time
  double roaming_zipf_exponent = 0.9; ///< site-affinity skew (0 = uniform)
  /// Transport fault plan for the handoff channel (FaultPlan string,
  /// sa/fleet/transport.hpp), empty = perfect channel. The generator
  /// itself ignores it — it rides here so one scenario description
  /// names the whole lossy-roaming workload (the driver parses it into
  /// FleetConfig::fault_plan, and describe() echoes it).
  std::string roaming_fault_plan;
};

/// The fleet tier's default spoof-tracker idle horizon, derived from the
/// roaming dwell-time distribution: eight mean dwells' worth of frames
/// at the configured arrival rate (ceil(8 * dwell * rate); 128 with the
/// defaults). Shorter would expire a walker's tracker while it is merely
/// visiting another site — forcing retraining on return, which is
/// exactly the window a spoofer wants; much longer and abandoned state
/// from departed clients lingers across the whole fleet.
std::uint64_t roaming_idle_horizon_frames(const ScenarioConfig& config);

struct TrafficEvent {
  enum class Kind { kLegit, kSpoof, kOffsite, kFlood };
  Kind kind = Kind::kLegit;
  double time_s = 0.0;  ///< absolute simulated arrival time
  double dt_s = 0.0;    ///< elapsed since the previous event
  Vec2 from;
  MacAddress mac;
  /// Transmit-side antenna pattern; nullopt = omni.
  std::optional<TxPattern> pattern;
  /// Roaming: the site this frame arrives at, and whether it is the
  /// walker's first frame since moving there (the handoff cue). Always
  /// 0 / false for single-site scenarios.
  std::uint32_t site = 0;
  bool site_changed = false;
};

class ScenarioGenerator {
 public:
  /// `estimator` tells the adaptive spoofer what it is attacking (it
  /// only bothers with a directional antenna against high-resolution
  /// backends). The testbed is copied; the Rng is the generator's own.
  ScenarioGenerator(const OfficeTestbed& testbed, ScenarioConfig config,
                    Rng rng, AoaBackend estimator);

  /// The next event, or nullopt once the horizon is reached.
  std::optional<TrafficEvent> next();

  /// Full scenario configuration on one line (only the knobs the active
  /// scenario uses), for report headers and capture metadata.
  std::string describe() const;

  const ScenarioConfig& config() const { return config_; }

 private:
  double current_rate();                  ///< arrival rate at now_
  TrafficEvent make_base_event(double t); ///< the office mix
  TrafficEvent make_mobile_event(double t);
  TrafficEvent make_adaptive_event(double t);
  TrafficEvent make_churn_event(double t);
  TrafficEvent make_roaming_event(double t);

  OfficeTestbed testbed_;
  ScenarioConfig config_;
  Rng rng_;
  AoaBackend estimator_;

  double now_ = 0.0;
  // mmpp state
  bool bursting_ = false;
  double state_until_ = 0.0;
  // flood state: next arrival of the independent attacker process
  double flood_next_ = 0.0;
  // adaptive-spoof state
  std::size_t spoof_sent_ = 0;
  Vec2 spoof_pos_;
  Vec2 victim_pos_;
  Vec2 ap_centroid_;
  // churn state: the active MAC pool, the Zipf CDF over pool ranks,
  // the next fresh MAC index, and the next slot-rotation time
  std::vector<std::uint32_t> churn_mac_;
  std::vector<double> churn_cdf_;
  std::uint32_t churn_next_mac_ = 0;
  double churn_rotate_next_ = 0.0;
  // roaming state: each walker's current site, when its dwell there
  // ends, and the Zipf CDF over sites
  std::vector<std::uint32_t> roam_site_;
  std::vector<double> roam_until_;
  std::vector<double> roam_cdf_;
};

}  // namespace sa
