// The fleet tier: one coordinator over N sites, each a full SecureAngle
// deployment (its own APs, its own EngineSession dataplane), with
// cross-site client handoff over FleetWire.
//
//   FleetCoordinator
//     ├─ site 0: EngineSession ── APs [0, m)          (fleet-global ids)
//     ├─ site 1: EngineSession ── APs [m, 2m)
//     ├─ ...
//     ├─ home map: MAC -> (home site, handoff generation)  [FlatLruMap]
//     └─ transport stack: ReliableLink → [FaultyTransport →] Loopback
//
// Chunks are routed to the owning site (submit by (site, local AP) or
// fleet-global AP id). When a client's traffic migrates sites —
// notify_association(mac, dest) — the source site's per-MAC state is
// exported (tracker accumulators, ACL verdict, rate residue), shipped
// as one FleetWire kClientState message, and imported into the
// destination's compact substrate: the tracker lands in the shard
// owner's FlatLruMap as its most recently seen entry, with a full idle
// window ahead, and the rate residue is re-armed under the documented
// window-restart rule. The source then forgets the client (keeping its
// ACL entry, so late frames are judged by signature — not membership).
//
// The message no longer teleports: it rides the transport stack
// (sa/fleet/transport.hpp) as a sequence-numbered, checksummed
// kTransportData frame, acked by the receive side and retried on an
// exponential-backoff schedule. With the default zero-fault plan the
// stack is a LoopbackTransport and behavior is byte-identical to the
// in-process handoff; with a FaultPlan the channel drops, duplicates,
// reorders, delays, and corrupts datagrams deterministically.
//
// Handoff state machine per MAC:
//
//   (unknown) --assoc--> HOME(s, g=1)
//   HOME(s, g) --assoc to s--> HOME(s, g)            [no-op, no record]
//   HOME(s, g) --assoc to d--> quiesce s,d; export; ship(g+1);
//       ├─ acked     --> imported at d --> HOME(d, g+1)      [kAssoc]
//       └─ timed out --> COLD START: d admits the MAC fresh (empty
//            tracker, ACL re-checked by the chain, rate window
//            restarted) --> HOME(d, g+1)                     [kAssoc]
//   import with generation <= known g  --> rejected kStale
//
// The generation guard makes handoff idempotent and replay-safe — and
// it is what makes cold start safe: the home map advances to g+1
// *before* the handoff concludes (via import or via the cold-start
// path), so a late-arriving copy of the g+1 export is stale by
// construction and can never clobber state the destination has since
// accumulated from live frames.
//
// Quiescence and concurrency: export, import and forget reach into a
// session's per-MAC state through its quiescent-use-only hooks, so the
// fleet first brings the sessions involved to wait_idle() (every
// formable round decided — no flush pass, so receiver state is
// untouched): both sites of a migration, and the destination of every
// import. One control-plane mutex makes the fleet thread-safe: every
// entry point but submit holds it from start to finish, so handoffs run
// one at a time and a reader never sees one half done. The lock does
// not cover submit, so submitting to a site while a handoff touches it
// is still the driver's race to avoid: the hooks need the session to
// stay idle.
//
// Capture: with a CaptureWriter, the fleet records one SACP file —
// chunk records carry fleet-global AP ids, decisions are site-tagged
// (kSiteDecision), handoffs are kAssoc records, and drain_all() records
// a single fleet-wide drain boundary. Under an active fault plan the
// capture is version 3 and every migration additionally records a
// kTransport verdict (delivered/cold-start + attempts), which
// replay_fleet_capture re-checks — a lossy run replays byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/engine/session.hpp"
#include "sa/fleet/transport.hpp"
#include "sa/fleet/wire.hpp"
#include "sa/sim/deployment.hpp"

namespace sa {

class CaptureWriter;

/// A fleet of structurally identical sites built from one per-site
/// template. Site i is built from `site` with seed
/// `site.seed + i * site_seed_stride` — stride 0 makes every site
/// bit-identical (the handoff-oracle configuration), any other stride
/// gives each site its own impairment draws.
struct FleetSpec {
  DeploymentSpec site;
  std::size_t num_sites = 2;
  std::uint64_t site_seed_stride = 1;
};

/// Per-site spec for site `index` (the seed progression above).
DeploymentSpec site_spec(const FleetSpec& spec, std::size_t index);

/// Fleet spec -> fleet capture header: the per-site sa.* keys plus
/// "sa.fleet.sites" / "sa.fleet.seed_stride"; num_aps is fleet-global.
CaptureHeader fleet_header_for(const FleetSpec& spec);

/// Header -> fleet spec; nullopt when the fleet keys are missing, the
/// per-site deployment does not round-trip, or the fleet exceeds
/// kMaxFleetSites or kMaxAntennaBands.
std::optional<FleetSpec> fleet_from_header(const CaptureHeader& header);

struct FleetConfig {
  FleetSpec spec;
  /// Dataplane worker threads per site session.
  std::size_t threads_per_site = 1;
  /// Build each site's uplink channel simulation (scenario drivers need
  /// it; replay does not).
  bool with_sim = false;
  /// Optional shared recording tap (one capture for the whole fleet),
  /// borrowed.
  CaptureWriter* capture = nullptr;
  /// Spoof-tracker idle horizon per site. nullopt (default) derives it
  /// from the roaming dwell-time distribution — at the fleet tier idle
  /// expiry is ON by default, because a roaming population constantly
  /// strands tracker state at sites clients have left. Explicit 0
  /// disables expiry (the single-session-oracle configuration).
  std::optional<std::size_t> spoof_idle_frames;
  /// Transport fault injection. Inactive (the default) keeps the pure
  /// LoopbackTransport path — byte-identical to the in-process handoff.
  FaultPlan fault_plan;
  /// ARQ tuning for the reliability layer (virtual-clock ticks).
  ReliableLinkConfig link;
};

enum class FleetImportOutcome {
  kApplied,    ///< imported; the home map now points at the destination
  kStale,      ///< generation not newer than the local view — rejected
  kMalformed,  ///< FleetWire decode failed — rejected
  kBadSite,    ///< destination site out of range — rejected
};

const char* to_string(FleetImportOutcome outcome);

/// How a migration's state moved (or didn't) over the transport.
enum class HandoffOutcome : std::uint32_t {
  kDelivered = 0,  ///< the export was acked; state arrived
  kColdStart = 1,  ///< retries exhausted; destination admitted fresh
};

const char* to_string(HandoffOutcome outcome);

/// What notify_association did.
struct HandoffResult {
  FleetImportOutcome outcome = FleetImportOutcome::kApplied;
  /// True when the client's home moved between sites (false for a first
  /// association or a same-site re-association).
  bool migrated = false;
  std::uint32_t source_site = 0;
  std::uint32_t dest_site = 0;
  std::uint64_t generation = 0;
  /// Transport verdict of a migration (kDelivered for non-migrations).
  HandoffOutcome transport = HandoffOutcome::kDelivered;
  /// Data-frame transmissions a migration took (0 for non-migrations).
  std::uint32_t attempts = 0;
  /// The encoded FleetWire kClientState message of a migration (empty
  /// otherwise) — what went "over the wire", for tests and tooling.
  ByteStream wire;
};

struct FleetStats {
  std::uint64_t associations = 0;  ///< notify_association calls
  std::uint64_t handoffs_applied = 0;
  std::uint64_t handoffs_stale = 0;
  std::uint64_t handoffs_malformed = 0;
  std::uint64_t handoffs_bad_site = 0;
  std::uint64_t drains = 0;
  // Transport-layer outcomes (zero under a quiet channel):
  std::uint64_t retries = 0;      ///< retransmitted data frames
  std::uint64_t timeouts = 0;     ///< sends that exhausted every attempt
  std::uint64_t cold_starts = 0;  ///< migrations that degraded gracefully
  std::uint64_t duplicates_suppressed = 0;  ///< re-delivered seqs ignored
  std::uint64_t corrupt_dropped = 0;  ///< undecodable datagrams discarded
  std::uint64_t stale_acks = 0;  ///< acks that outlived their retry loop
  /// Compact home-map footprint (FlatLruMap::memory_bytes()).
  std::uint64_t home_map_bytes = 0;
  std::uint64_t home_clients = 0;
};

class FleetCoordinator {
 public:
  explicit FleetCoordinator(FleetConfig config);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  std::size_t num_sites() const { return sites_.size(); }
  std::size_t aps_per_site() const { return config_.spec.site.num_aps; }
  std::size_t total_aps() const { return num_sites() * aps_per_site(); }
  const FleetConfig& config() const { return config_; }
  /// The idle horizon actually applied to every site's spoof detector.
  std::size_t resolved_spoof_idle_frames() const { return idle_frames_; }

  /// Route one chunk to `site`'s dataplane (local AP index).
  void submit(std::uint32_t site, std::size_t local_ap, CMat chunk);
  /// Same, addressed by fleet-global AP id (site = id / aps_per_site).
  void submit_global(std::uint32_t global_ap, CMat chunk);
  /// One time-aligned chunk per AP of `site`.
  void submit_round(std::uint32_t site, std::vector<CMat> chunks);

  /// A client (re)associated at `dest_site`. First association homes the
  /// MAC there; a cross-site move quiesces both dataplanes, exports the
  /// source's per-MAC state, ships it over the transport (retrying under
  /// the reliability layer; cold-starting the destination if every
  /// attempt times out), and forgets it at the source. Records a kAssoc
  /// on migrations and first associations. Thread-safe: concurrent
  /// calls run one at a time under the control-plane lock.
  HandoffResult notify_association(const MacAddress& mac,
                                   std::uint32_t dest_site);

  /// Import an externally produced FleetWire kClientState message (the
  /// receive side of a handoff; also the test/fuzz surface). Brings the
  /// destination session to wait_idle() before importing. On kApplied
  /// the home map advances to (dest, generation) and a kAssoc is
  /// recorded. Thread-safe, like notify_association.
  FleetImportOutcome apply_handoff(const ByteStream& wire);

  /// Drain every site's dataplane and record ONE fleet-wide drain
  /// boundary (per-site drain records are suppressed via
  /// EngineConfig::capture_drains).
  void drain_all();
  /// drain_all(), then stop every site's pipeline threads. Idempotent.
  void close();

  EngineSession& session(std::size_t site) { return *sites_[site].session; }
  const EngineSession& session(std::size_t site) const {
    return *sites_[site].session;
  }
  /// The site's constructed deployment (testbed, APs, optional sim).
  BuiltDeployment& deployment(std::size_t site) {
    return *sites_[site].deployment;
  }
  /// Decisions this site has emitted, in that site's sequence order.
  /// Exact when the site is quiescent (after drain_all()/handoff).
  const std::vector<EngineDecision>& decisions(std::size_t site) const {
    return sites_[site].decisions;
  }
  std::size_t total_decisions() const;

  std::optional<std::uint32_t> home_site(const MacAddress& mac) const;
  std::optional<std::uint64_t> generation_of(const MacAddress& mac) const;
  /// Snapshot of the counters; waits while a handoff is in progress.
  FleetStats stats() const;
  /// Channel-side counters; zeros when no fault plan is active.
  TransportStats transport_stats() const;

 private:
  struct Site {
    std::unique_ptr<BuiltDeployment> deployment;
    std::vector<EngineDecision> decisions;
    /// Declared last: the session's sink writes into `decisions` from
    /// the session's control thread, so the session (whose destructor
    /// joins that thread) must be destroyed first.
    std::unique_ptr<EngineSession> session;
  };
  struct Home {
    std::uint32_t site = 0;
    std::uint64_t generation = 0;
  };

  /// The import path shared by apply_handoff and the transport's
  /// receive side; call with mu_ held.
  FleetImportOutcome apply_wire(const ByteStream& wire);
  void record_assoc(std::uint32_t site, std::uint64_t generation,
                    const MacAddress& mac);
  void record_transport(const MacAddress& mac, std::uint64_t generation,
                        HandoffOutcome outcome, std::uint32_t attempts);

  FleetConfig config_;
  std::size_t idle_frames_ = 0;
  std::vector<Site> sites_;

  /// The control-plane lock (see the header comment). Guards home_,
  /// stats_, the transport stack, closed_ and every call into a site's
  /// quiescent-use-only hooks.
  mutable std::mutex mu_;

  FlatLruMap<MacAddress, Home> home_;
  /// The fleet's own counters; stats() adds the link's and the home
  /// map's when it is called.
  FleetStats stats_;

  // Transport stack, bottom-up. The link's receive callback points back
  // into this object, so the stack lives (and dies) with it.
  LoopbackTransport loopback_;
  std::unique_ptr<FaultyTransport> faulty_;  ///< only under an active plan
  std::unique_ptr<ReliableLink> link_;

  bool closed_ = false;
};

}  // namespace sa
