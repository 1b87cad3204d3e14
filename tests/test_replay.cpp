// Record/replay through the one replay driver, replay_fleet_capture. A
// capture recorded from a live single-site scenario run (SACP version 1)
// replays as a 1-site fleet, and every decision must come back
// byte-identical through a freshly rebuilt deployment at ANY thread
// count. This is the subsystem's contract: the capture header alone
// (seed + deployment metadata) is enough to reconstruct the exact
// pipeline that produced the recording. The driver also fails on what it
// cannot verify (a decision for a site outside the fleet, a record type
// the header's version cannot hold, kEnd totals that disagree with the
// records), refuses headers that would make it build more than
// kMaxAntennaBands, kMaxFleetSites or kMaxTrackedMacs, and reports a
// chunk the engine refuses at submit as a refusal.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sa/capture/reader.hpp"
#include "sa/capture/writer.hpp"
#include "sa/engine/session.hpp"
#include "sa/fleet/coordinator.hpp"
#include "sa/fleet/replay.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"
#include "sa/sim/deployment.hpp"
#include "sa/sim/scenario.hpp"

namespace sa {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "replay_" + name + ".sacp";
}

/// Small-but-real deployment: 2 APs, 4 antennas keeps the waveform work
/// light enough for a unit test while exercising the full pipeline.
DeploymentSpec small_spec(std::uint64_t seed = 7) {
  DeploymentSpec spec;
  spec.seed = seed;
  spec.num_aps = 2;
  spec.antennas = 4;
  return spec;
}

ScenarioConfig short_scenario(ScenarioKind kind) {
  ScenarioConfig sc;
  sc.kind = kind;
  sc.arrival_rate = 30.0;
  sc.duration_s = 0.2;
  // Squeeze the scenario-specific windows into the short horizon.
  sc.flash_start_s = 0.05;
  sc.flash_len_s = 0.1;
  sc.flood_start_s = 0.05;
  sc.flood_len_s = 0.1;
  sc.flood_rate = 200.0;
  sc.calm_hold_s = 0.05;
  sc.burst_hold_s = 0.02;
  return sc;
}

/// Run `scenario` through a live simulated deployment with a capture tap
/// attached, exactly like scenario_runner --capture does. Returns the
/// recorded bytes.
ByteStream record_scenario(const DeploymentSpec& spec, ScenarioConfig sc,
                           const std::string& path) {
  BuiltDeployment dep = build_deployment(spec, /*with_sim=*/true);
  CaptureWriter writer(path, capture_header_for(spec));

  SessionConfig scfg;
  scfg.engine = dep.engine;
  scfg.engine.num_threads = 1;
  scfg.engine.capture = &writer;
  EngineSession session(scfg, dep.ap_ptrs, [](const EngineDecision&) {});

  ScenarioGenerator gen(dep.testbed, sc, dep.traffic_rng, spec.estimator);
  std::uint16_t seq = 0;
  while (auto ev = gen.next()) {
    dep.sim->advance(ev->dt_s);
    const Frame f = Frame::data(MacAddress::from_index(0xFF), ev->mac,
                                Bytes{1, 2, 3}, seq++);
    const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    session.submit_round(
        dep.sim->transmit(ev->from, w, ev->pattern ? &*ev->pattern : nullptr));
  }
  session.drain();
  writer.close();
  session.close();

  auto reader = CaptureReader::from_file(path);
  EXPECT_TRUE(reader.has_value());
  EXPECT_TRUE(reader->validate().ok) << reader->validate().error;
  std::remove(path.c_str());
  return reader->bytes();
}

/// Replay `recorded` at `threads` threads: it must be a clean 1-site
/// replay that re-checks every recorded decision, chunk and drain.
void expect_replay_identical(const ByteStream& recorded,
                             std::size_t threads) {
  const ValidationReport report =
      CaptureReader{ByteStream(recorded)}.validate();
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_GT(report.decisions, 0u) << "scenario produced no decisions";
  const FleetReplayResult result =
      replay_fleet_capture(ByteStream(recorded), threads);
  EXPECT_TRUE(result.ok) << "threads=" << threads << ": " << result.error;
  EXPECT_FALSE(result.refused);
  EXPECT_EQ(result.sites, 1u);
  EXPECT_EQ(result.decisions_checked, report.decisions);
  EXPECT_EQ(result.chunks_submitted, report.chunks);
  EXPECT_EQ(result.drains_run, report.drains);
  EXPECT_EQ(result.assocs_replayed, 0u);
}

/// The capture's header and records, for building altered copies.
struct Parsed {
  CaptureHeader header;
  std::vector<CaptureRecord> records;
};

Parsed parse(const ByteStream& capture) {
  CaptureReader reader{ByteStream(capture)};
  Parsed out;
  EXPECT_TRUE(reader.header().has_value());
  if (reader.header()) out.header = *reader.header();
  while (auto rec = reader.next()) out.records.push_back(std::move(*rec));
  EXPECT_TRUE(reader.error().empty()) << reader.error();
  return out;
}

ByteStream assemble(const Parsed& parsed) {
  ByteStream out = encode_header(parsed.header);
  for (const CaptureRecord& rec : parsed.records) {
    append_record(out, rec.type, rec.payload);
  }
  return out;
}

/// Insert `type`/`payload` just before the kEnd record; with
/// `count_it`, the kEnd decision total is bumped to match.
ByteStream insert_before_end(Parsed parsed, RecordType type,
                             ByteStream payload, bool count_it) {
  CaptureRecord rec;
  rec.type = type;
  rec.payload = std::move(payload);
  CaptureRecord& end = parsed.records.back();
  EXPECT_EQ(end.type, RecordType::kEnd);
  if (count_it) {
    ++end.end->decisions;
    end.payload = encode_end(*end.end, parsed.header.version);
  }
  parsed.records.insert(parsed.records.end() - 1, std::move(rec));
  return assemble(parsed);
}

/// An empty but complete capture: header, then kEnd.
ByteStream empty_capture(const CaptureHeader& header) {
  ByteStream out = encode_header(header);
  append_record(out, RecordType::kEnd, encode_end({}, header.version));
  return out;
}

FleetSpec small_fleet(std::size_t sites) {
  FleetSpec spec;
  spec.site = small_spec();
  spec.num_sites = sites;
  return spec;
}

TEST(Replay, ByteIdenticalAtOneTwoAndEightThreads) {
  const ByteStream recorded =
      record_scenario(small_spec(), short_scenario(ScenarioKind::kOffice),
                      temp_path("office"));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_replay_identical(recorded, threads);
  }
}

TEST(Replay, ByteIdenticalWithSubbandsAndFivePolicyChain) {
  // The heavyweight configuration: subband decomposition plus the full
  // policy chain (decode is implicit, so acl,spoof,fence,rate makes
  // five). Replay must still be byte-identical across thread counts.
  DeploymentSpec spec = small_spec(11);
  spec.subbands = 4;
  spec.policies = {PolicyKind::kAcl, PolicyKind::kSpoof, PolicyKind::kFence,
                   PolicyKind::kRateLimit};
  ScenarioConfig sc = short_scenario(ScenarioKind::kOffice);
  sc.duration_s = 0.15;

  const ByteStream recorded = record_scenario(spec, sc, temp_path("chain"));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_replay_identical(recorded, threads);
  }
}

TEST(Replay, AdversarialScenariosRecordAndReplay) {
  // The adversarial/overload generators must also round-trip: record a
  // short run of each, then replay at 2 threads.
  for (const ScenarioKind kind :
       {ScenarioKind::kFlood, ScenarioKind::kAdaptiveSpoof,
        ScenarioKind::kMobile}) {
    const ByteStream recorded =
        record_scenario(small_spec(13), short_scenario(kind),
                        temp_path(std::string("adv_") + to_string(kind)));
    expect_replay_identical(recorded, 2);
  }
}

TEST(Replay, AlteredDecisionBytesFail) {
  // The comparison is on the recorded payload bytes: one flipped bit in
  // one decision's sequence number fails the replay.
  const ByteStream recorded =
      record_scenario(small_spec(5), short_scenario(ScenarioKind::kOffice),
                      temp_path("track"));
  Parsed parsed = parse(recorded);
  bool flipped = false;
  for (CaptureRecord& rec : parsed.records) {
    if (rec.type == RecordType::kDecision) {
      rec.payload[0] ^= 0x01;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped) << "scenario produced no decisions";
  const FleetReplayResult result = replay_fleet_capture(assemble(parsed), 2);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("diverged"), std::string::npos) << result.error;
}

TEST(Replay, TruncatedCaptureFailsCleanly) {
  const ByteStream recorded =
      record_scenario(small_spec(3), short_scenario(ScenarioKind::kOffice),
                      temp_path("truncated"));
  ByteStream cut(recorded.begin(),
                 recorded.begin() + static_cast<long>(recorded.size() / 2));
  const FleetReplayResult result = replay_fleet_capture(std::move(cut), 1);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.refused);
  EXPECT_FALSE(result.error.empty());
}

TEST(Replay, NonFiniteSampleIsRefusedAtSubmit) {
  // corpus/rejects/nan_iq.sacp in miniature: the capture parses and
  // validates, and only the engine's submit-time finiteness gate can
  // catch the NaN — which the driver reports as a refusal.
  const ByteStream recorded =
      record_scenario(small_spec(3), short_scenario(ScenarioKind::kOffice),
                      temp_path("nan"));
  Parsed parsed = parse(recorded);
  ASSERT_EQ(parsed.records.front().type, RecordType::kChunk);
  ChunkRecord chunk = *parsed.records.front().chunk;
  chunk.samples(0, 0) = cd(std::numeric_limits<double>::quiet_NaN(), 0.0);
  parsed.records.front().payload =
      encode_chunk(chunk.ap, chunk.round, chunk.base, chunk.samples);
  const ByteStream poisoned = assemble(parsed);
  ASSERT_TRUE(CaptureReader{ByteStream(poisoned)}.validate().ok);

  const FleetReplayResult result = replay_fleet_capture(poisoned, 1);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.refused);
  EXPECT_FALSE(result.error.empty());
  // Clean captures and other failures are never refusals.
  EXPECT_FALSE(replay_fleet_capture(recorded, 1).refused);
}

TEST(Replay, FailsOnWhatItCannotVerify) {
  const ByteStream recorded =
      record_scenario(small_spec(5), short_scenario(ScenarioKind::kOffice),
                      temp_path("strict"));
  const Parsed single = parse(recorded);
  const ByteStream fleet_capture =
      empty_capture(fleet_header_for(small_fleet(4)));
  ASSERT_TRUE(replay_fleet_capture(fleet_capture, 1).ok);
  const Parsed fleet = parse(fleet_capture);
  const FrameDecision decision;

  struct Case {
    const char* name;
    ByteStream capture;
    const char* error;
  };
  const std::vector<Case> cases = {
      // A decision for a site outside the fleet, with and without kEnd
      // totals that count it.
      {"site 99, totals updated",
       insert_before_end(fleet, RecordType::kSiteDecision,
                         encode_site_decision(99, 0, 0, decision), true),
       "outside the 4-site fleet"},
      {"site 99, totals stale",
       insert_before_end(fleet, RecordType::kSiteDecision,
                         encode_site_decision(99, 0, 0, decision), false),
       "outside the 4-site fleet"},
      // Record types the header's version cannot hold.
      {"site decision in version 1",
       insert_before_end(single, RecordType::kSiteDecision,
                         encode_site_decision(0, 0, 0, decision), true),
       "cannot appear in a SACP version 1 capture"},
      {"plain decision in version 2",
       insert_before_end(fleet, RecordType::kDecision,
                         encode_decision(0, 0, decision), true),
       "cannot appear in a SACP version 2 capture"},
      {"transport verdict in version 2",
       insert_before_end(fleet, RecordType::kTransport,
                         encode_transport(TransportRecord{}), false),
       "cannot appear in a SACP version 2 capture"},
      // A kEnd whose totals disagree with the records replayed.
      {"end totals one decision short",
       [&] {
         Parsed p = single;
         --p.records.back().end->decisions;
         p.records.back().payload = encode_end(*p.records.back().end);
         return assemble(p);
       }(),
       "end-record totals disagree"},
  };
  for (const Case& c : cases) {
    const FleetReplayResult result = replay_fleet_capture(c.capture, 2);
    EXPECT_FALSE(result.ok) << c.name;
    EXPECT_FALSE(result.refused) << c.name;
    EXPECT_NE(result.error.find(c.error), std::string::npos)
        << c.name << ": " << result.error;
  }
  // The record-type rule is the reader's, so validate() agrees.
  EXPECT_FALSE(CaptureReader{ByteStream(cases[2].capture)}.validate().ok);
}

TEST(Replay, RefusesHeadersBeyondTheBuildBound) {
  // num_aps = 2^20 in a version-1 and a 4-site fleet header: refused
  // before anything is built.
  CaptureHeader single = capture_header_for(small_spec());
  single.num_aps = 1u << 20;
  CaptureHeader fleet = fleet_header_for(small_fleet(4));
  fleet.num_aps = 1u << 20;
  for (const CaptureHeader& header : {single, fleet}) {
    const auto start = std::chrono::steady_clock::now();
    const FleetReplayResult result =
        replay_fleet_capture(empty_capture(header), 1);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("header does not describe"),
              std::string::npos)
        << result.error;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  }
  // sa.max_tracked is capped: 4e9 is refused before anything is built,
  // kMaxTrackedMacs is the largest accepted.
  for (CaptureHeader header : {capture_header_for(small_spec()),
                               fleet_header_for(small_fleet(4))}) {
    header.metadata.emplace_back("sa.max_tracked", "4000000000");
    const auto start = std::chrono::steady_clock::now();
    const FleetReplayResult result =
        replay_fleet_capture(empty_capture(header), 1);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("header does not describe"),
              std::string::npos)
        << result.error;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  }
  DeploymentSpec bounded = small_spec();
  bounded.max_tracked_macs = kMaxTrackedMacs;
  EXPECT_TRUE(deployment_from_header(capture_header_for(bounded)).has_value());
  bounded.max_tracked_macs = kMaxTrackedMacs + 1;
  EXPECT_FALSE(
      deployment_from_header(capture_header_for(bounded)).has_value());
  // Every spoof shard needs a slot of the bound: one below the shard
  // count is refused by the header check (so replay reports it instead
  // of failing at fleet construction), the shard count is accepted.
  const std::size_t shards = EngineConfig{}.num_shards;
  bounded.max_tracked_macs = shards - 1;
  EXPECT_FALSE(
      deployment_from_header(capture_header_for(bounded)).has_value());
  const FleetReplayResult too_small =
      replay_fleet_capture(empty_capture(capture_header_for(bounded)), 1);
  EXPECT_FALSE(too_small.ok);
  EXPECT_NE(too_small.error.find("header does not describe"),
            std::string::npos)
      << too_small.error;
  bounded.max_tracked_macs = shards;
  EXPECT_TRUE(deployment_from_header(capture_header_for(bounded)).has_value());

  // The bound is on antennas x subbands over every AP: a 256-AP fleet
  // of 4-antenna, 1-subband APs is exactly at it. Sites are capped too.
  FleetSpec spec = small_fleet(8);
  spec.site.num_aps = 32;
  EXPECT_TRUE(fleet_from_header(fleet_header_for(spec)).has_value());
  spec.site.num_aps = 33;
  EXPECT_FALSE(fleet_from_header(fleet_header_for(spec)).has_value());
  spec = small_fleet(kMaxFleetSites);
  spec.site.num_aps = 1;
  EXPECT_TRUE(fleet_from_header(fleet_header_for(spec)).has_value());
  spec.num_sites = kMaxFleetSites + 1;
  EXPECT_FALSE(fleet_from_header(fleet_header_for(spec)).has_value());
  DeploymentSpec site = small_spec();
  site.num_aps = 2;
  site.antennas = 8;
  site.subbands = 64;
  EXPECT_TRUE(deployment_from_header(capture_header_for(site)).has_value());
  site.num_aps = 3;
  EXPECT_FALSE(deployment_from_header(capture_header_for(site)).has_value());
}

TEST(Replay, HeaderPolicyAndTrackedBoundReachEverySite) {
  // The fuzz loop's --policies / --max-tracked ride the replayed header
  // as sa.policies / sa.max_tracked; a fleet header carries them to
  // every site's engine.
  FleetSpec spec = small_fleet(3);
  spec.site.policies = {PolicyKind::kAcl, PolicyKind::kFence,
                        PolicyKind::kSpoof, PolicyKind::kRateLimit};
  spec.site.max_tracked_macs = 16;
  const auto parsed = fleet_from_header(fleet_header_for(spec));
  ASSERT_TRUE(parsed.has_value());
  FleetConfig config;
  config.spec = *parsed;
  FleetCoordinator fleet(config);
  ASSERT_EQ(fleet.num_sites(), 3u);
  for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
    const CoordinatorConfig& c = fleet.deployment(s).engine.coordinator;
    EXPECT_EQ(c.policies, spec.site.policies) << "site " << s;
    EXPECT_EQ(c.max_tracked_macs, 16u) << "site " << s;
    EXPECT_EQ(c.rate_limit.max_tracked_macs, 16u) << "site " << s;
  }
  fleet.close();

  // A recorded capture rewritten to that chain and bound replays every
  // chunk through it, and the recorded track no longer matches.
  const ByteStream recorded =
      record_scenario(small_spec(5), short_scenario(ScenarioKind::kOffice),
                      temp_path("rewrite"));
  Parsed rewritten = parse(recorded);
  for (auto& [key, value] : rewritten.header.metadata) {
    if (key == "sa.policies") value = "acl,fence,spoof,rate";
  }
  rewritten.header.metadata.emplace_back("sa.max_tracked", "16");
  const FleetReplayResult changed = replay_fleet_capture(assemble(rewritten), 1);
  EXPECT_FALSE(changed.ok);
  EXPECT_FALSE(changed.refused);
  EXPECT_EQ(changed.chunks_submitted,
            CaptureReader{ByteStream(recorded)}.validate().chunks)
      << changed.error;
}

TEST(Replay, HeaderRoundTripsDeploymentSpec) {
  DeploymentSpec spec;
  spec.seed = 1234;
  spec.num_aps = 4;
  spec.antennas = 6;
  spec.estimator = AoaBackend::kRootMusic;
  spec.subbands = 2;
  spec.policies = {PolicyKind::kAcl, PolicyKind::kRateLimit};
  spec.max_tracked_macs = 16;
  const auto round = deployment_from_header(capture_header_for(spec));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->seed, spec.seed);
  EXPECT_EQ(round->num_aps, spec.num_aps);
  EXPECT_EQ(round->antennas, spec.antennas);
  EXPECT_EQ(round->estimator, spec.estimator);
  EXPECT_EQ(round->subbands, spec.subbands);
  EXPECT_EQ(round->policies, spec.policies);
  EXPECT_EQ(round->max_tracked_macs, spec.max_tracked_macs);
  // Unbounded specs write no sa.max_tracked key, so older captures and
  // new ones of the same deployment carry identical headers.
  spec.max_tracked_macs = 0;
  EXPECT_FALSE(capture_header_for(spec).meta("sa.max_tracked").has_value());

  // A header that does not announce the known deployment is refused, and
  // so is a uniform circular array of fewer than 3 antennas.
  CaptureHeader foreign = capture_header_for(spec);
  foreign.metadata[0].second = "some-other-testbed";
  EXPECT_FALSE(deployment_from_header(foreign).has_value());
  spec.antennas = 2;
  EXPECT_FALSE(deployment_from_header(capture_header_for(spec)).has_value());
}

}  // namespace
}  // namespace sa
