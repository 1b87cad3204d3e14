// Replay: turn a SACP capture back into the run it recorded and verify
// it byte-for-byte. Every SACP version takes this one driver.
//
// The header rebuilds a FleetCoordinator. A version-1 capture is a
// 1-site fleet (seed stride 0, spoof idle 0): one EngineSession over the
// recorded deployment, exactly what recorded it. A version-2/3 capture
// carries its fleet keys: per-site deployments from the seed
// progression, the recorded spoof-idle horizon and — version 3 — the
// recorded transport fault plan, so the replayed channel drops and
// corrupts exactly where the original did. Every record is then
// re-issued in file order: chunks routed by fleet-global AP id, kAssoc
// records re-driving notify_association (the replayed handoff generation
// must match the recorded one, or the handoff state machine has
// diverged), kTransport records re-checking each migration's
// delivered/cold-start verdict and attempt count, kDrain running
// drain_all(). At the end each site's re-emitted decision track is
// compared byte-identically against the recorded one: kDecision payloads
// for site 0 of a version-1 capture, kSiteDecision payloads otherwise.
//
// Replay fails on what it cannot verify: a decision for a site outside
// the fleet, a record type the header's version cannot hold, a kEnd
// whose totals disagree with the records, or a header that asks for
// more than kMaxAntennaBands, kMaxFleetSites or kMaxTrackedMacs.
#pragma once

#include <cstdint>
#include <string>

#include "sa/capture/reader.hpp"

namespace sa {

struct FleetReplayResult {
  bool ok = false;
  /// The engine refused a recorded chunk at submit (InvalidArgument: a
  /// non-finite sample, a chunk of the wrong shape). `error` says why.
  bool refused = false;
  /// Every record replayed, but a site's re-emitted decision track
  /// differs from the recorded one (in length or in bytes).
  bool diverged = false;
  std::string error;  ///< empty when ok
  std::size_t sites = 0;
  std::uint64_t chunks_submitted = 0;
  std::uint64_t assocs_replayed = 0;
  std::uint64_t drains_run = 0;
  /// Site decisions byte-compared against the recorded tracks.
  std::uint64_t decisions_checked = 0;
  /// Transport verdicts re-checked against kTransport records.
  std::uint64_t transports_checked = 0;
};

/// Replay the capture at `path` with `threads_per_site` dataplane
/// workers per site and byte-compare every site's decision track.
/// Deterministic at any thread count; a mismatch (or a malformed
/// capture) is reported in `error`, never UB.
FleetReplayResult replay_fleet_capture(const std::string& path,
                                       std::size_t threads_per_site);

/// Same, over in-memory capture bytes (the fuzz loop's entry point —
/// mutated captures must come back as errors, never crashes).
FleetReplayResult replay_fleet_capture(ByteStream data,
                                       std::size_t threads_per_site);

}  // namespace sa
