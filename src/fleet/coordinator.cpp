#include "sa/fleet/coordinator.hpp"

#include <utility>

#include "sa/capture/writer.hpp"
#include "sa/common/error.hpp"
#include "sa/sim/scenario.hpp"

namespace sa {

DeploymentSpec site_spec(const FleetSpec& spec, std::size_t index) {
  DeploymentSpec site = spec.site;
  site.seed = spec.site.seed +
              static_cast<std::uint64_t>(index) * spec.site_seed_stride;
  return site;
}

CaptureHeader fleet_header_for(const FleetSpec& spec) {
  CaptureHeader header = capture_header_for(spec.site);
  header.version = kSacpVersionFleet;
  header.num_aps =
      static_cast<std::uint32_t>(spec.num_sites * spec.site.num_aps);
  header.metadata.emplace_back("sa.fleet.sites",
                               std::to_string(spec.num_sites));
  header.metadata.emplace_back("sa.fleet.seed_stride",
                               std::to_string(spec.site_seed_stride));
  return header;
}

std::optional<FleetSpec> fleet_from_header(const CaptureHeader& header) {
  const auto sites_meta = header.meta("sa.fleet.sites");
  const auto stride_meta = header.meta("sa.fleet.seed_stride");
  if (!sites_meta || !stride_meta) return std::nullopt;
  const auto sites = parse_u64(*sites_meta);
  const auto stride = parse_u64(*stride_meta);
  if (!sites || *sites == 0 || *sites > kMaxFleetSites || !stride) {
    return std::nullopt;
  }
  if (header.num_aps == 0 || header.num_aps % *sites != 0) return std::nullopt;
  // The per-site deployment keys round-trip through the single-site
  // parser with num_aps scaled down to one site's share.
  CaptureHeader per_site = header;
  per_site.num_aps = static_cast<std::uint32_t>(header.num_aps / *sites);
  const auto site = deployment_from_header(per_site);
  if (!site) return std::nullopt;
  // kMaxAntennaBands bounds the whole fleet, not just one site.
  if (std::uint64_t{header.num_aps} * site->antennas * site->subbands >
      kMaxAntennaBands) {
    return std::nullopt;
  }
  FleetSpec spec;
  spec.site = *site;
  spec.num_sites = *sites;
  spec.site_seed_stride = *stride;
  return spec;
}

const char* to_string(FleetImportOutcome outcome) {
  switch (outcome) {
    case FleetImportOutcome::kApplied: return "applied";
    case FleetImportOutcome::kStale: return "stale";
    case FleetImportOutcome::kMalformed: return "malformed";
    case FleetImportOutcome::kBadSite: return "bad-site";
  }
  return "malformed";
}

const char* to_string(HandoffOutcome outcome) {
  switch (outcome) {
    case HandoffOutcome::kDelivered: return "delivered";
    case HandoffOutcome::kColdStart: return "cold-start";
  }
  return "delivered";
}

FleetCoordinator::FleetCoordinator(FleetConfig config)
    : config_(std::move(config)),
      channel_(config_.fault_plan),
      link_(channel_, config_.link) {
  SA_EXPECTS(config_.spec.num_sites >= 1);
  SA_EXPECTS(config_.spec.site.num_aps >= 1);
  if (config_.spoof_idle_frames) {
    idle_frames_ = *config_.spoof_idle_frames;
  } else {
    // Fleet default: idle expiry ON, horizon from the roaming dwell
    // distribution (see roaming_idle_horizon_frames).
    ScenarioConfig roaming;
    roaming.kind = ScenarioKind::kRoaming;
    idle_frames_ =
        static_cast<std::size_t>(roaming_idle_horizon_frames(roaming));
  }
  sites_.reserve(config_.spec.num_sites);
  for (std::size_t i = 0; i < config_.spec.num_sites; ++i) {
    sites_.emplace_back();
    Site& site = sites_.back();
    site.deployment = std::make_unique<BuiltDeployment>(
        build_deployment(site_spec(config_.spec, i), config_.with_sim));
    EngineConfig engine = site.deployment->engine;
    engine.num_threads = config_.threads_per_site;
    engine.coordinator.spoof_idle_frames = idle_frames_;
    SessionConfig scfg;
    scfg.engine = std::move(engine);
    // sites_ was reserved above, so the decisions vector never moves.
    std::vector<EngineDecision>* out = &site.decisions;
    const auto id = static_cast<std::uint32_t>(i);
    site.session = std::make_unique<EngineSession>(
        std::move(scfg), site.deployment->ap_ptrs,
        [this, out, id](const EngineDecision& d) {
          if (CaptureWriter* writer = recorder()) {
            writer->record_site_decision(id, d.sequence, d.absolute_start,
                                         d.decision);
          }
          out->push_back(d);
        });
  }
  link_.set_import([this](const ByteStream& inner) { apply_wire(inner); });
}

FleetCoordinator::~FleetCoordinator() = default;

void FleetCoordinator::submit(std::uint32_t site, std::size_t local_ap,
                              CMat chunk) {
  SA_EXPECTS(site < sites_.size());
  SA_EXPECTS(local_ap < aps_per_site());
  if (CaptureWriter* writer = recorder()) {
    writer->record_chunk(site * aps_per_site() + local_ap, chunk);
  }
  sites_[site].session->submit(local_ap, std::move(chunk));
}

void FleetCoordinator::submit_global(std::uint32_t global_ap, CMat chunk) {
  SA_EXPECTS(global_ap < total_aps());
  const std::uint32_t per = static_cast<std::uint32_t>(aps_per_site());
  submit(global_ap / per, global_ap % per, std::move(chunk));
}

void FleetCoordinator::submit_round(std::uint32_t site,
                                    std::vector<CMat> chunks) {
  SA_EXPECTS(chunks.size() == aps_per_site());
  for (std::size_t ap = 0; ap < chunks.size(); ++ap) {
    submit(site, ap, std::move(chunks[ap]));
  }
}

HandoffResult FleetCoordinator::notify_association(const MacAddress& mac,
                                                   std::uint32_t dest_site) {
  std::lock_guard<std::mutex> lock(mu_);
  HandoffResult result;
  result.dest_site = dest_site;
  ++stats_.associations;
  if (dest_site >= sites_.size()) {
    ++stats_.handoffs_bad_site;
    result.outcome = FleetImportOutcome::kBadSite;
    return result;
  }
  const Home* known = home_.find(mac);
  if (known == nullptr) {
    // First sighting: home the client here. Nothing to move.
    home_.get_or_emplace(mac, Home{dest_site, 1});
    record_assoc(dest_site, 1, mac);
    result.source_site = dest_site;
    result.generation = 1;
    return result;
  }
  result.source_site = known->site;
  result.generation = known->generation;
  if (known->site == dest_site) return result;  // already home: no-op

  // Cross-site migration. Quiesce both dataplanes (wait_idle: every
  // formable round decided, no flush pass — receiver state untouched),
  // export, then ship under the reliability layer.
  const std::uint32_t source_site = result.source_site;
  const std::uint64_t next_gen = result.generation + 1;
  EngineSession& source = *sites_[source_site].session;
  source.wait_idle();
  sites_[dest_site].session->wait_idle();
  FleetClientState msg;
  msg.mac = mac;
  msg.generation = next_gen;
  msg.source_site = source_site;
  msg.dest_site = dest_site;
  msg.state = source.export_client_state(mac);
  result.wire = encode_client_state(msg);
  result.generation = next_gen;

  const ReliableLink::SendReport report = link_.send_reliable(result.wire);
  result.attempts = report.attempts;
  result.migrated = true;
  result.outcome = FleetImportOutcome::kApplied;
  if (report.acked) {
    result.transport = HandoffOutcome::kDelivered;
  } else {
    // Cold start: the export never arrived (or its ack never came
    // back). The destination admits the client fresh — empty tracker,
    // ACL re-checked by the policy chain on the next frame, rate window
    // restarted — and the home map advances to next_gen so any copy of
    // this export still sitting in the channel is stale on arrival.
    result.transport = HandoffOutcome::kColdStart;
    ++stats_.cold_starts;
    const Home* now_home = home_.find(mac);
    if (now_home == nullptr || now_home->generation < next_gen) {
      // The data frame never imported (if it had, the generation would
      // already be next_gen — only this call, which holds mu_, can
      // advance this MAC). Claim the home; the import path's kAssoc
      // never fired, so record it here.
      Home* home = home_.get_or_emplace(mac, Home{}).value;
      home->site = dest_site;
      home->generation = next_gen;
      record_assoc(dest_site, next_gen, mac);
    }
  }
  // Either way the client has left the source (keeping its ACL entry,
  // so late frames are judged by signature — not membership).
  source.forget_client(mac);
  record_transport(mac, next_gen, result.transport, result.attempts);
  return result;
}

FleetImportOutcome FleetCoordinator::apply_handoff(const ByteStream& wire) {
  std::lock_guard<std::mutex> lock(mu_);
  return apply_wire(wire);
}

FleetImportOutcome FleetCoordinator::apply_wire(const ByteStream& wire) {
  const auto msg = decode_client_state(wire);
  if (!msg) {
    ++stats_.handoffs_malformed;
    return FleetImportOutcome::kMalformed;
  }
  if (msg->dest_site >= sites_.size()) {
    ++stats_.handoffs_bad_site;
    return FleetImportOutcome::kBadSite;
  }
  const Home* known = home_.find(msg->mac);
  if (known != nullptr && msg->generation <= known->generation) {
    ++stats_.handoffs_stale;
    return FleetImportOutcome::kStale;
  }
  // On the notify_association path the destination is already idle.
  EngineSession& dest = *sites_[msg->dest_site].session;
  dest.wait_idle();
  dest.import_client_state(msg->mac, msg->state);
  Home* home = home_.get_or_emplace(msg->mac, Home{}).value;
  home->site = msg->dest_site;
  home->generation = msg->generation;
  ++stats_.handoffs_applied;
  record_assoc(msg->dest_site, msg->generation, msg->mac);
  return FleetImportOutcome::kApplied;
}

void FleetCoordinator::drain_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Site& site : sites_) site.session->drain();
  ++stats_.drains;
  if (CaptureWriter* writer = recorder()) writer->record_drain();
}

void FleetCoordinator::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  for (Site& site : sites_) site.session->close();
  closed_ = true;
}

std::size_t FleetCoordinator::total_decisions() const {
  std::size_t n = 0;
  for (const Site& site : sites_) n += site.decisions.size();
  return n;
}

std::optional<std::uint32_t> FleetCoordinator::home_site(
    const MacAddress& mac) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Home* home = home_.find(mac);
  if (home == nullptr) return std::nullopt;
  return home->site;
}

std::optional<std::uint64_t> FleetCoordinator::generation_of(
    const MacAddress& mac) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Home* home = home_.find(mac);
  if (home == nullptr) return std::nullopt;
  return home->generation;
}

FleetStats FleetCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats out = stats_;
  const ReliableLinkStats& ls = link_.stats();
  out.retries = ls.retransmits;
  out.timeouts = ls.timeouts;
  out.duplicates_suppressed = ls.duplicates_suppressed;
  out.corrupt_dropped = ls.corrupt_dropped;
  out.stale_acks = ls.stale_acks;
  out.home_map_bytes = home_.memory_bytes();
  out.home_clients = home_.size();
  return out;
}

TransportStats FleetCoordinator::transport_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return channel_.stats();
}

CaptureWriter* FleetCoordinator::recorder() const {
  CaptureWriter* writer = config_.capture;
  return writer != nullptr && !writer->closed() ? writer : nullptr;
}

void FleetCoordinator::record_assoc(std::uint32_t site,
                                    std::uint64_t generation,
                                    const MacAddress& mac) {
  CaptureWriter* writer = recorder();
  if (writer == nullptr) return;
  AssocRecord assoc;
  assoc.site = site;
  assoc.generation = generation;
  assoc.mac = mac.octets();
  writer->record_assoc(assoc);
}

void FleetCoordinator::record_transport(const MacAddress& mac,
                                        std::uint64_t generation,
                                        HandoffOutcome outcome,
                                        std::uint32_t attempts) {
  // Only lossy runs carry transport verdicts (they are what makes the
  // capture version 3); the zero-fault capture stays byte-identical to
  // the pre-transport format.
  CaptureWriter* writer = config_.fault_plan.active() ? recorder() : nullptr;
  if (writer == nullptr) return;
  TransportRecord rec;
  rec.mac = mac.octets();
  rec.generation = generation;
  rec.outcome = static_cast<std::uint32_t>(outcome);
  rec.attempts = attempts;
  writer->record_transport(rec);
}

}  // namespace sa
