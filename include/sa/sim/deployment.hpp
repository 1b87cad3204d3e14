// Shared deployment builder for the scenario tools: one spec describing
// a Figure-4 office deployment (seed, APs, array, estimator, subbands,
// policy chain), one builder that constructs it with a FIXED RNG draw
// order, and a round-trip between the spec and a SACP capture header's
// metadata map.
//
// The draw-order contract is what makes record/replay work: every
// stochastic part of a deployment (per-AP array impairments, channel
// state) is a pure function of the seed *and the construction order*.
// build_deployment() therefore always constructs the APs first, in
// mounting-point order, from Rng(seed) — and only then touches the
// uplink simulation (whose constructor consumes a draw). A replay run
// passes with_sim = false: the AP construction draws are identical, and
// the simulation (which replay never uses) is simply skipped.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sa/capture/format.hpp"
#include "sa/engine/deployment.hpp"
#include "sa/testbed/uplink.hpp"

namespace sa {

/// Everything needed to rebuild a deployment bit-exactly.
struct DeploymentSpec {
  std::uint64_t seed = 7;
  std::size_t num_aps = 3;
  /// 8 = the paper's octagon; any other count = a uniform circular
  /// array of that many antennas (radius 6 cm).
  std::size_t antennas = 8;
  AoaBackend estimator = AoaBackend::kMusic;
  std::size_t subbands = 1;
  BandFusion band_fusion = BandFusion::kUniform;
  std::vector<PolicyKind> policies = default_policy_chain();
  /// Tracked-MAC bound for the spoof and rate policies; 0 keeps the
  /// engine defaults. Recorded as "sa.max_tracked" only when set (the
  /// fuzz loop writes it to drive captures through the eviction paths).
  std::size_t max_tracked_macs = 0;
};

/// "acl,spoof,fence" -> policy chain; nullopt on an empty list or an
/// unknown name.
std::optional<std::vector<PolicyKind>> policies_from_string(
    const std::string& list);

/// Spec -> capture header (num_aps/seed as header fields, the rest as
/// metadata under "sa.*" keys).
CaptureHeader capture_header_for(const DeploymentSpec& spec);

/// Header -> spec; nullopt when a required "sa.*" key is missing or
/// unparsable (a capture from some other producer), when the
/// deployment exceeds kMaxAntennaBands or kMaxTrackedMacs, or when
/// "sa.max_tracked" is below the spoof shard count
/// (EngineConfig::num_shards), which could not give every shard a slot.
std::optional<DeploymentSpec> deployment_from_header(
    const CaptureHeader& header);

/// "seed=7 aps=3 antennas=8 estimator=music ..." — the full spec on one
/// line, for report headers.
std::string describe(const DeploymentSpec& spec);

/// A constructed deployment. The engine config carries the fence
/// boundary, the testbed-client ACL, and the spec's policy chain;
/// callers set num_threads / capture themselves.
struct BuiltDeployment {
  OfficeTestbed testbed;
  std::vector<std::unique_ptr<AccessPoint>> aps;
  std::vector<AccessPoint*> ap_ptrs;
  EngineConfig engine;
  /// Present iff built with with_sim = true.
  std::unique_ptr<UplinkSimulation> sim;
  /// Traffic randomness, forked after every construction draw — hand it
  /// to the scenario generator.
  Rng traffic_rng;
};

/// Build the deployment `spec` describes. `with_sim` = false skips the
/// uplink channel simulation (replay needs only the APs); either way
/// the AP construction draws are identical.
BuiltDeployment build_deployment(const DeploymentSpec& spec, bool with_sim);

}  // namespace sa
