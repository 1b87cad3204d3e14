#include "sa/fleet/replay.hpp"

#include <map>
#include <utility>
#include <vector>

#include "sa/common/error.hpp"
#include "sa/fleet/coordinator.hpp"

namespace sa {

namespace {

FleetReplayResult fail(FleetReplayResult result, std::string error) {
  result.ok = false;
  result.error = std::move(error);
  return result;
}

FleetReplayResult run(CaptureReader reader, std::size_t threads_per_site) {
  FleetReplayResult result;
  if (!reader.header()) return fail(result, "malformed capture header");
  const CaptureHeader& header = *reader.header();
  const bool fleet_capture = header.version >= kSacpVersionFleet;

  FleetConfig config;
  config.threads_per_site = threads_per_site;
  config.with_sim = false;
  if (fleet_capture) {
    const auto spec = fleet_from_header(header);
    if (!spec) {
      return fail(result, "header does not describe a replayable fleet");
    }
    config.spec = *spec;
    // The recording driver stamps the idle horizon it actually ran with;
    // replay must apply the same horizon or tracker expiry timing — and
    // hence decisions — diverge.
    if (const auto idle = header.meta("sa.fleet.spoof_idle")) {
      const auto frames = parse_u64(*idle);
      if (!frames) return fail(result, "bad sa.fleet.spoof_idle");
      config.spoof_idle_frames = *frames;
    }
    // Version 3: rebuild the recorded faulty channel — the plan string
    // is the whole channel state, so the replayed run loses, duplicates
    // and corrupts exactly the datagrams the original did.
    if (const auto plan_text = header.meta("sa.fleet.fault_plan")) {
      const auto plan = FaultPlan::parse(*plan_text);
      if (!plan) return fail(result, "bad sa.fleet.fault_plan");
      config.fault_plan = *plan;
    }
  } else {
    // Version 1: the single session that recorded it, as a 1-site fleet
    // with tracker idle expiry off (the session default).
    const auto site = deployment_from_header(header);
    if (!site) {
      return fail(result, "header does not describe a replayable deployment");
    }
    config.spec = FleetSpec{*site, 1, 0};
    config.spoof_idle_frames = 0;
  }
  FleetCoordinator fleet(config);
  result.sites = fleet.num_sites();
  // The migration each MAC most recently replayed, for kTransport
  // verdict checks (the record always follows its kAssoc).
  std::map<MacAddress, HandoffResult> last_handoff;

  // Recorded per-site decision tracks, in each site's sequence order.
  std::vector<std::vector<ByteStream>> expected(fleet.num_sites());
  while (auto rec = reader.next()) {
    switch (rec->type) {
      case RecordType::kChunk: {
        if (rec->chunk->ap >= fleet.total_aps()) {
          return fail(result, "chunk AP out of range");
        }
        try {
          fleet.submit_global(rec->chunk->ap, std::move(rec->chunk->samples));
        } catch (const InvalidArgument& e) {
          result.refused = true;
          return fail(result, e.what());
        }
        ++result.chunks_submitted;
        break;
      }
      case RecordType::kDecision:  // version 1: site 0's track
        expected[0].push_back(std::move(rec->payload));
        break;
      case RecordType::kSiteDecision: {
        const std::uint32_t site = rec->site_decision->site;
        if (site >= fleet.num_sites()) {
          return fail(result, "decision for site " + std::to_string(site) +
                                  " outside the " +
                                  std::to_string(fleet.num_sites()) +
                                  "-site fleet");
        }
        expected[site].push_back(std::move(rec->payload));
        break;
      }
      case RecordType::kAssoc: {
        const MacAddress mac(rec->assoc->mac);
        auto hr = fleet.notify_association(mac, rec->assoc->site);
        if (hr.outcome != FleetImportOutcome::kApplied) {
          return fail(result, std::string("replayed handoff rejected: ") +
                                  to_string(hr.outcome));
        }
        if (hr.generation != rec->assoc->generation) {
          return fail(result,
                      "handoff generation diverged: recorded " +
                          std::to_string(rec->assoc->generation) + ", got " +
                          std::to_string(hr.generation));
        }
        ++result.assocs_replayed;
        hr.wire.clear();  // keep only the verdict fields
        last_handoff[mac] = std::move(hr);
        break;
      }
      case RecordType::kTransport: {
        const MacAddress mac(rec->transport->mac);
        const auto it = last_handoff.find(mac);
        if (it == last_handoff.end()) {
          return fail(result, "transport record without a prior handoff");
        }
        const HandoffResult& hr = it->second;
        if (hr.generation != rec->transport->generation ||
            static_cast<std::uint32_t>(hr.transport) !=
                rec->transport->outcome ||
            hr.attempts != rec->transport->attempts) {
          return fail(result,
                      "transport verdict diverged for generation " +
                          std::to_string(rec->transport->generation) +
                          ": recorded " + std::to_string(
                              rec->transport->outcome) +
                          "/" + std::to_string(rec->transport->attempts) +
                          " attempts, got " +
                          std::to_string(
                              static_cast<std::uint32_t>(hr.transport)) +
                          "/" + std::to_string(hr.attempts));
        }
        ++result.transports_checked;
        break;
      }
      case RecordType::kDrain:
        fleet.drain_all();
        ++result.drains_run;
        break;
      case RecordType::kEnd:
        break;
    }
  }
  // The reader's structural verdict: a parse error (the loop above stops
  // at it), a record type the header's version cannot hold, no kEnd, or
  // kEnd totals that disagree with the records.
  const ValidationReport report = reader.validate();
  if (!report.ok) return fail(result, report.error);

  // Quiesce without a flush pass: the recording ended post-drain, so an
  // extra flush here would add rounds the recording never ran.
  for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
    fleet.session(s).wait_idle();
  }

  for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
    const auto& actual = fleet.decisions(s);
    const auto& want = expected[s];
    if (actual.size() != want.size()) {
      return fail(result, "site " + std::to_string(s) + ": replay emitted " +
                              std::to_string(actual.size()) +
                              " decisions, capture has " +
                              std::to_string(want.size()));
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const EngineDecision& d = actual[i];
      const ByteStream got =
          fleet_capture
              ? encode_site_decision(static_cast<std::uint32_t>(s),
                                     d.sequence, d.absolute_start, d.decision)
              : encode_decision(d.sequence, d.absolute_start, d.decision);
      if (got != want[i]) {
        return fail(result, "site " + std::to_string(s) + " decision " +
                                std::to_string(i) +
                                " diverged from the recorded bytes");
      }
      ++result.decisions_checked;
    }
  }
  fleet.close();
  result.ok = true;
  return result;
}

}  // namespace

FleetReplayResult replay_fleet_capture(const std::string& path,
                                       std::size_t threads_per_site) {
  auto reader = CaptureReader::from_file(path);
  if (!reader) {
    FleetReplayResult result;
    result.error = "cannot read " + path;
    return result;
  }
  return replay_fleet_capture(reader->bytes(), threads_per_site);
}

FleetReplayResult replay_fleet_capture(ByteStream data,
                                       std::size_t threads_per_site) {
  // Total over untrusted input: the fuzz loop feeds mutated captures
  // through here, so structural surprises must surface as errors.
  try {
    return run(CaptureReader(std::move(data)), threads_per_site);
  } catch (const std::exception& e) {
    FleetReplayResult result;
    result.error = e.what();
    return result;
  }
}

}  // namespace sa
