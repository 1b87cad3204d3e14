#include "sa/sim/deployment.hpp"

#include <utility>

namespace sa {

namespace {

std::string policies_to_string(const std::vector<PolicyKind>& policies) {
  std::string out;
  for (const PolicyKind kind : policies) {
    if (!out.empty()) out += ',';
    out += to_string(kind);
  }
  return out;
}

}  // namespace

std::optional<std::vector<PolicyKind>> policies_from_string(
    const std::string& list) {
  std::vector<PolicyKind> kinds;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const auto kind = policy_kind_from_string(name);
    if (!kind) return std::nullopt;
    kinds.push_back(*kind);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (kinds.empty()) return std::nullopt;
  return kinds;
}

CaptureHeader capture_header_for(const DeploymentSpec& spec) {
  CaptureHeader header;
  header.num_aps = static_cast<std::uint32_t>(spec.num_aps);
  header.seed = spec.seed;
  header.metadata.emplace_back("sa.deployment", "figure4-office");
  header.metadata.emplace_back("sa.antennas", std::to_string(spec.antennas));
  header.metadata.emplace_back("sa.estimator", to_string(spec.estimator));
  header.metadata.emplace_back("sa.subbands", std::to_string(spec.subbands));
  header.metadata.emplace_back("sa.band_fusion",
                               std::string(to_string(spec.band_fusion)));
  header.metadata.emplace_back("sa.policies",
                               policies_to_string(spec.policies));
  if (spec.max_tracked_macs > 0) {
    header.metadata.emplace_back("sa.max_tracked",
                                 std::to_string(spec.max_tracked_macs));
  }
  return header;
}

std::optional<DeploymentSpec> deployment_from_header(
    const CaptureHeader& header) {
  if (header.meta("sa.deployment") != std::optional<std::string>("figure4-office")) {
    return std::nullopt;
  }
  DeploymentSpec spec;
  spec.seed = header.seed;
  spec.num_aps = header.num_aps;
  if (spec.num_aps == 0) return std::nullopt;

  const auto antennas = header.meta("sa.antennas");
  const auto estimator = header.meta("sa.estimator");
  const auto subbands = header.meta("sa.subbands");
  const auto fusion = header.meta("sa.band_fusion");
  const auto policies = header.meta("sa.policies");
  if (!antennas || !estimator || !subbands || !fusion || !policies) {
    return std::nullopt;
  }
  // Any count but the octagon's 8 is a uniform circular array, which
  // needs at least 3 elements.
  const auto n_ant = parse_u64(*antennas);
  if (!n_ant || *n_ant < 3 || *n_ant > 64) return std::nullopt;
  spec.antennas = *n_ant;
  const auto backend = aoa_backend_from_string(*estimator);
  if (!backend) return std::nullopt;
  spec.estimator = *backend;
  const auto n_sub = parse_u64(*subbands);
  if (!n_sub || *n_sub == 0 || *n_sub > 64) return std::nullopt;
  spec.subbands = *n_sub;
  if (std::uint64_t{header.num_aps} * *n_ant * *n_sub > kMaxAntennaBands) {
    return std::nullopt;
  }
  const auto bf = band_fusion_from_string(*fusion);
  if (!bf) return std::nullopt;
  spec.band_fusion = *bf;
  const auto kinds = policies_from_string(*policies);
  if (!kinds) return std::nullopt;
  spec.policies = *kinds;
  if (const auto bound = header.meta("sa.max_tracked")) {
    // Every spoof shard needs at least one slot of the bound.
    const auto macs = parse_u64(*bound);
    if (!macs || *macs < EngineConfig{}.num_shards ||
        *macs > kMaxTrackedMacs) {
      return std::nullopt;
    }
    spec.max_tracked_macs = *macs;
  }
  return spec;
}

std::string describe(const DeploymentSpec& spec) {
  std::string out = "seed=" + std::to_string(spec.seed);
  out += " aps=" + std::to_string(spec.num_aps);
  out += " antennas=" + std::to_string(spec.antennas);
  out += " estimator=";
  out += to_string(spec.estimator);
  out += " subbands=" + std::to_string(spec.subbands);
  out += " band-fusion=";
  out += to_string(spec.band_fusion);
  out += " policies=" + policies_to_string(spec.policies);
  if (spec.max_tracked_macs > 0) {
    out += " max-tracked=" + std::to_string(spec.max_tracked_macs);
  }
  return out;
}

BuiltDeployment build_deployment(const DeploymentSpec& spec, bool with_sim) {
  BuiltDeployment built;
  built.testbed = OfficeTestbed::figure4();

  // Draw-order contract (see the header comment): APs first, from
  // Rng(seed), in mounting-point order; the simulation — which consumes
  // a fork draw in its constructor — only afterwards.
  Rng rng(spec.seed);
  for (const Vec2& spot : built.testbed.ap_mounting_points(spec.num_aps)) {
    AccessPointConfig cfg;
    cfg.position = spot;
    cfg.estimator = spec.estimator;
    cfg.subbands = spec.subbands;
    cfg.band_fusion = spec.band_fusion;
    if (spec.antennas != 8) {
      cfg.geometry = ArrayGeometry::uniform_circular(spec.antennas, 0.06);
    }
    built.aps.push_back(std::make_unique<AccessPoint>(cfg, rng));
    built.ap_ptrs.push_back(built.aps.back().get());
  }
  if (with_sim) {
    UplinkConfig ucfg;
    ucfg.channel.noise_power = 1e-5;
    built.sim =
        std::make_unique<UplinkSimulation>(built.testbed, ucfg, rng);
    for (const auto& ap : built.aps) built.sim->add_ap(ap->placement());
  }
  built.traffic_rng = rng.fork();

  built.engine.coordinator.fence_boundary = built.testbed.building_outline();
  built.engine.coordinator.min_aps_for_fence = 2;
  built.engine.coordinator.policies = spec.policies;
  if (spec.max_tracked_macs > 0) {
    built.engine.coordinator.max_tracked_macs = spec.max_tracked_macs;
    built.engine.coordinator.rate_limit.max_tracked_macs =
        spec.max_tracked_macs;
  }
  // The ACL baseline allows exactly the testbed's legitimate clients —
  // which is why MAC spoofing subverts it (paper §1).
  AccessControlList acl;
  for (const auto& c : built.testbed.clients()) {
    acl.allow(MacAddress::from_index(c.id));
  }
  built.engine.coordinator.acl = std::move(acl);
  return built;
}

}  // namespace sa
