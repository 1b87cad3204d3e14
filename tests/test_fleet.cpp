// Fleet-tier tests: FleetWire round-trip and total decode, fleet
// header round-trip, the handoff state machine (generation guard,
// stale/malformed/bad-site rejection, handoff under a backpressured
// pipeline), cross-thread/cross-site determinism of recorded fleet
// captures, fleet replay at several thread counts, the roaming
// scenario's shape, and the acceptance oracle: a roaming client's
// post-handoff decisions must be byte-identical to a single session that
// never split the state at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "sa/capture/format.hpp"
#include "sa/capture/reader.hpp"
#include "sa/capture/writer.hpp"
#include "sa/engine/session.hpp"
#include "sa/fleet/coordinator.hpp"
#include "sa/fleet/replay.hpp"
#include "sa/fleet/wire.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"
#include "sa/sim/deployment.hpp"
#include "sa/sim/scenario.hpp"

namespace sa {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "fleet_" + name + ".sacp";
}

TrackerSnapshot sample_snapshot() {
  TrackerSnapshot snap;
  snap.trained = true;
  snap.training_seen = 12;
  snap.observations = 40;
  snap.mismatches = 3;
  TrackerSnapshot::Band band;
  for (int i = 0; i < 32; ++i) {
    band.angles_deg.push_back(-180.0 + 360.0 * i / 32.0);
    band.values.push_back(0.25 + 0.01 * i);
  }
  band.wraps = true;
  snap.bands.push_back(band);
  return snap;
}

FleetClientState sample_state() {
  FleetClientState msg;
  msg.mac = MacAddress::from_index(42);
  msg.generation = 7;
  msg.source_site = 1;
  msg.dest_site = 2;
  msg.state.tracker = sample_snapshot();
  msg.state.acl_allowed = true;
  msg.state.rate_in_window = 5;
  return msg;
}

// ------------------------------------------------------------ FleetWire

TEST(FleetWire, RoundTripsFullState) {
  const FleetClientState msg = sample_state();
  const ByteStream wire = encode_client_state(msg);
  const auto back = decode_client_state(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mac, msg.mac);
  EXPECT_EQ(back->generation, 7u);
  EXPECT_EQ(back->source_site, 1u);
  EXPECT_EQ(back->dest_site, 2u);
  ASSERT_TRUE(back->state.tracker.has_value());
  EXPECT_EQ(back->state.tracker->observations, 40u);
  ASSERT_EQ(back->state.tracker->bands.size(), 1u);
  EXPECT_EQ(back->state.tracker->bands[0].angles_deg,
            msg.state.tracker->bands[0].angles_deg);
  EXPECT_EQ(back->state.tracker->bands[0].values,
            msg.state.tracker->bands[0].values);
  ASSERT_TRUE(back->state.acl_allowed.has_value());
  EXPECT_TRUE(*back->state.acl_allowed);
  ASSERT_TRUE(back->state.rate_in_window.has_value());
  EXPECT_EQ(*back->state.rate_in_window, 5u);
}

TEST(FleetWire, RoundTripsEmptyState) {
  FleetClientState msg;
  msg.mac = MacAddress::from_index(1);
  msg.generation = 2;
  msg.dest_site = 1;
  const auto back = decode_client_state(encode_client_state(msg));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->state.tracker.has_value());
  EXPECT_FALSE(back->state.acl_allowed.has_value());
  EXPECT_FALSE(back->state.rate_in_window.has_value());
}

TEST(FleetWire, RejectsStructuralDamage) {
  const ByteStream wire = encode_client_state(sample_state());
  // Empty / truncated at every prefix length.
  EXPECT_FALSE(decode_client_state(ByteStream{}).has_value());
  for (std::size_t len = 0; len < wire.size(); len += 7) {
    const ByteStream cut(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(decode_client_state(cut).has_value()) << "len=" << len;
  }
  // Trailing garbage.
  ByteStream extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(decode_client_state(extended).has_value());
  // Wrong magic / version / type.
  ByteStream bad = wire;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_client_state(bad).has_value());
  bad = wire;
  bad[4] = 99;
  EXPECT_FALSE(decode_client_state(bad).has_value());
  bad = wire;
  bad[8] = 77;
  EXPECT_FALSE(decode_client_state(bad).has_value());
  // Reserved flag bit. The flags word sits after the 16-byte message
  // framing and the 6 + 8 + 4 + 4 byte payload prefix.
  bad = wire;
  bad[16 + 22] |= 0x80;
  EXPECT_FALSE(decode_client_state(bad).has_value());
}

TEST(FleetWire, FuzzedMessagesNeverCrash) {
  const ByteStream wire = encode_client_state(sample_state());
  std::size_t decoded = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ByteStream mutant = mutate_capture(wire, seed, 6);
    if (decode_client_state(mutant)) ++decoded;  // valid or nullopt, never UB
  }
  // The loop passing *is* the assertion; the count only documents that
  // some mutants stay decodable (mutations in value bytes).
  EXPECT_LE(decoded, 200u);
}

// ---------------------------------------------------------- fleet header

TEST(FleetHeader, RoundTripsSpec) {
  FleetSpec spec;
  spec.site.seed = 11;
  spec.site.num_aps = 4;
  spec.site.antennas = 4;
  spec.num_sites = 8;
  spec.site_seed_stride = 3;
  const CaptureHeader header = fleet_header_for(spec);
  EXPECT_EQ(header.version, kSacpVersionFleet);
  EXPECT_EQ(header.num_aps, 32u);
  const auto back = fleet_from_header(header);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_sites, 8u);
  EXPECT_EQ(back->site_seed_stride, 3u);
  EXPECT_EQ(back->site.seed, 11u);
  EXPECT_EQ(back->site.num_aps, 4u);
  EXPECT_EQ(back->site.antennas, 4u);
}

TEST(FleetHeader, RejectsNonFleetAndBadShape) {
  DeploymentSpec site;
  EXPECT_FALSE(fleet_from_header(capture_header_for(site)).has_value());
  FleetSpec spec;
  CaptureHeader header = fleet_header_for(spec);
  header.num_aps = 7;  // not divisible by num_sites = 2
  EXPECT_FALSE(fleet_from_header(header).has_value());
  header = fleet_header_for(spec);
  header.metadata.emplace_back("sa.fleet.sites", "0");
  // First value wins, so corrupt the original entry instead.
  for (auto& [key, value] : header.metadata) {
    if (key == "sa.fleet.sites") value = "zero";
  }
  EXPECT_FALSE(fleet_from_header(header).has_value());
}

// ------------------------------------------------------- handoff machine

FleetConfig small_fleet(std::size_t sites, std::size_t threads,
                        bool with_sim = false) {
  FleetConfig config;
  config.spec.site.num_aps = 2;
  config.spec.site.antennas = 4;
  config.spec.num_sites = sites;
  config.threads_per_site = threads;
  config.with_sim = with_sim;
  config.spoof_idle_frames = 0;
  return config;
}

TEST(FleetHandoff, GenerationGuardRejectsStaleAndReplays) {
  FleetCoordinator fleet(small_fleet(3, 1));
  const MacAddress mac = MacAddress::from_index(1);

  // First association homes the client, generation 1, no migration.
  auto first = fleet.notify_association(mac, 0);
  EXPECT_EQ(first.outcome, FleetImportOutcome::kApplied);
  EXPECT_FALSE(first.migrated);
  EXPECT_EQ(first.generation, 1u);
  EXPECT_EQ(fleet.home_site(mac), std::optional<std::uint32_t>(0));

  // Same-site re-association is a no-op.
  auto again = fleet.notify_association(mac, 0);
  EXPECT_FALSE(again.migrated);
  EXPECT_EQ(fleet.generation_of(mac), std::optional<std::uint64_t>(1));

  // Cross-site move migrates and bumps the generation.
  auto move = fleet.notify_association(mac, 1);
  EXPECT_EQ(move.outcome, FleetImportOutcome::kApplied);
  EXPECT_TRUE(move.migrated);
  EXPECT_EQ(move.generation, 2u);
  EXPECT_FALSE(move.wire.empty());
  EXPECT_EQ(fleet.home_site(mac), std::optional<std::uint32_t>(1));

  // Replaying the same wire message is stale: the generation guard
  // holds even though the bytes are perfectly well-formed.
  EXPECT_EQ(fleet.apply_handoff(move.wire), FleetImportOutcome::kStale);
  EXPECT_EQ(fleet.home_site(mac), std::optional<std::uint32_t>(1));

  // An older generation is stale too.
  FleetClientState old_state;
  old_state.mac = mac;
  old_state.generation = 1;
  old_state.dest_site = 2;
  EXPECT_EQ(fleet.apply_handoff(encode_client_state(old_state)),
            FleetImportOutcome::kStale);

  // A fresher externally produced message applies and moves the home.
  FleetClientState fresh;
  fresh.mac = mac;
  fresh.generation = 9;
  fresh.dest_site = 2;
  EXPECT_EQ(fleet.apply_handoff(encode_client_state(fresh)),
            FleetImportOutcome::kApplied);
  EXPECT_EQ(fleet.home_site(mac), std::optional<std::uint32_t>(2));
  EXPECT_EQ(fleet.generation_of(mac), std::optional<std::uint64_t>(9));

  // Malformed bytes and out-of-range sites are rejected, not UB.
  EXPECT_EQ(fleet.apply_handoff(ByteStream{1, 2, 3}),
            FleetImportOutcome::kMalformed);
  FleetClientState bad_site;
  bad_site.mac = mac;
  bad_site.generation = 20;
  bad_site.dest_site = 99;
  EXPECT_EQ(fleet.apply_handoff(encode_client_state(bad_site)),
            FleetImportOutcome::kBadSite);
  EXPECT_EQ(fleet.notify_association(mac, 99).outcome,
            FleetImportOutcome::kBadSite);

  const FleetStats& stats = fleet.stats();
  EXPECT_EQ(stats.handoffs_applied, 2u);  // the migration + the fresh apply
  EXPECT_EQ(stats.handoffs_stale, 2u);
  EXPECT_EQ(stats.handoffs_malformed, 1u);
  EXPECT_EQ(stats.handoffs_bad_site, 2u);
  fleet.close();
}

TEST(FleetHandoff, SurvivesBackpressuredPipelineAndDrain) {
  FleetConfig config = small_fleet(2, 2, /*with_sim=*/false);
  config.spec.site.num_aps = 3;
  FleetCoordinator fleet(config);

  // A real waveform source shared by both phases (stride-independent:
  // the chunks are what they are; this test is about pipeline safety,
  // not byte-identity).
  BuiltDeployment wavegen =
      build_deployment(site_spec(config.spec, 0), /*with_sim=*/true);
  const MacAddress mac = MacAddress::from_index(1);
  const Vec2 pos = wavegen.testbed.client(1).position;
  std::uint16_t seq = 0;
  auto next_round = [&]() {
    const Frame f =
        Frame::data(MacAddress::from_index(0xFF), mac, Bytes{1, 2, 3}, seq++);
    const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    wavegen.sim->advance(0.05);
    return wavegen.sim->transmit(pos, w, nullptr);
  };

  fleet.notify_association(mac, 0);
  // Pile rounds into site 0 without draining, then hand off while the
  // pipeline is still chewing: notify_association must quiesce both
  // dataplanes itself.
  for (int i = 0; i < 10; ++i) fleet.submit_round(0, next_round());
  const auto hr = fleet.notify_association(mac, 1);
  EXPECT_EQ(hr.outcome, FleetImportOutcome::kApplied);
  EXPECT_TRUE(hr.migrated);
  for (int i = 0; i < 10; ++i) fleet.submit_round(1, next_round());
  fleet.drain_all();
  // Handoff straight after a drain (already quiescent) works too.
  EXPECT_EQ(fleet.notify_association(mac, 0).outcome,
            FleetImportOutcome::kApplied);
  EXPECT_EQ(fleet.decisions(0).size() + fleet.decisions(1).size(), 20u);
  fleet.close();
}

// ------------------------------------------------- roaming + determinism

/// The scenario-driver loop of `scenario_runner --fleet-sites`, in
/// miniature: roaming walkers, handoff on first sighting or site
/// change, one fleet capture out.
void record_roaming(const std::string& path, std::size_t sites,
                    std::size_t threads, double duration_s,
                    const std::string& fault_plan = "") {
  ScenarioConfig sc;
  sc.kind = ScenarioKind::kRoaming;
  sc.arrival_rate = 60.0;
  sc.duration_s = duration_s;
  sc.roaming_sites = sites;
  sc.roaming_fault_plan = fault_plan;

  FleetSpec spec;
  spec.site.num_aps = 2;
  spec.site.antennas = 4;
  spec.num_sites = sites;

  BuiltDeployment proto = build_deployment(site_spec(spec, 0), false);
  ScenarioGenerator gen(proto.testbed, sc, proto.traffic_rng,
                        spec.site.estimator);
  const std::uint64_t idle = roaming_idle_horizon_frames(sc);

  FaultPlan plan;
  if (!fault_plan.empty()) {
    const auto parsed = FaultPlan::parse(fault_plan);
    ASSERT_TRUE(parsed.has_value()) << fault_plan;
    plan = *parsed;
  }

  CaptureHeader header = fleet_header_for(spec);
  header.metadata.emplace_back("sa.fleet.spoof_idle", std::to_string(idle));
  if (plan.active()) {
    // Mirror the scenario_runner recipe: a lossy fleet capture is
    // version 3 and names its channel in the header, so replay rebuilds
    // the identical transport stack.
    header.version = kSacpVersionChaos;
    header.metadata.emplace_back("sa.fleet.fault_plan", plan.to_string());
  }
  CaptureWriter writer(path, std::move(header));

  FleetConfig config;
  config.spec = spec;
  config.threads_per_site = threads;
  config.with_sim = true;
  config.capture = &writer;
  config.spoof_idle_frames = static_cast<std::size_t>(idle);
  config.fault_plan = plan;
  FleetCoordinator fleet(config);

  std::uint16_t seq = 0;
  std::set<MacAddress> seen;
  while (auto ev = gen.next()) {
    for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
      fleet.deployment(s).sim->advance(ev->dt_s);
    }
    if (seen.insert(ev->mac).second || ev->site_changed) {
      fleet.notify_association(ev->mac, ev->site);
    }
    const Frame f = Frame::data(MacAddress::from_index(0xFF), ev->mac,
                                Bytes{1, 2, 3}, seq++);
    const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    fleet.submit_round(ev->site,
                       fleet.deployment(ev->site).sim->transmit(
                           ev->from, w, ev->pattern ? &*ev->pattern : nullptr));
  }
  fleet.drain_all();
  writer.close();
  fleet.close();
}

TEST(FleetRoaming, ScenarioEmitsCoherentSitesAndIsDeterministic) {
  ScenarioConfig sc;
  sc.kind = ScenarioKind::kRoaming;
  sc.arrival_rate = 200.0;
  sc.duration_s = 2.0;
  sc.roaming_sites = 4;
  ScenarioConfig defaults;
  defaults.kind = ScenarioKind::kRoaming;
  // defaults: 8 * 0.4s * 40/s
  EXPECT_EQ(roaming_idle_horizon_frames(defaults), 128u);

  BuiltDeployment proto = build_deployment(DeploymentSpec{}, false);
  ScenarioGenerator a(proto.testbed, sc, Rng(123), AoaBackend::kMusic);
  ScenarioGenerator b(proto.testbed, sc, Rng(123), AoaBackend::kMusic);
  std::size_t events = 0, moves = 0;
  while (auto ea = a.next()) {
    const auto eb = b.next();
    ASSERT_TRUE(eb.has_value());
    EXPECT_EQ(ea->mac, eb->mac);
    EXPECT_EQ(ea->site, eb->site);
    EXPECT_EQ(ea->site_changed, eb->site_changed);
    EXPECT_LT(ea->site, 4u);
    if (ea->site_changed) ++moves;
    ++events;
  }
  EXPECT_FALSE(b.next().has_value());
  EXPECT_GT(events, 100u);
  EXPECT_GT(moves, 0u);  // walkers really do cross site boundaries
}

TEST(FleetDeterminism, CapturesIdenticalAcrossThreadsAndSites) {
  for (const std::size_t sites : {2u, 4u}) {
    const std::string base =
        temp_path("det_s" + std::to_string(sites) + "_t1");
    record_roaming(base, sites, 1, 0.6);
    for (const std::size_t threads : {2u, 8u}) {
      const std::string other = temp_path(
          "det_s" + std::to_string(sites) + "_t" + std::to_string(threads));
      record_roaming(other, sites, threads, 0.6);
      auto ra = CaptureReader::from_file(base);
      auto rb = CaptureReader::from_file(other);
      ASSERT_TRUE(ra && rb);
      const CaptureDiff diff = diff_captures(*ra, *rb);
      EXPECT_TRUE(diff.equal) << "sites=" << sites << " threads=" << threads
                              << ": " << diff.detail;
      std::remove(other.c_str());
    }
    std::remove(base.c_str());
  }
}

TEST(FleetReplay, RoundTripsAtSeveralThreadCounts) {
  const std::string path = temp_path("replay");
  record_roaming(path, 2, 1, 0.6);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const FleetReplayResult result = replay_fleet_capture(path, threads);
    EXPECT_TRUE(result.ok) << "threads=" << threads << ": " << result.error;
    EXPECT_EQ(result.sites, 2u);
    EXPECT_GT(result.chunks_submitted, 0u);
    EXPECT_GT(result.decisions_checked, 0u);
  }
  // A truncated copy must fail cleanly.
  auto reader = CaptureReader::from_file(path);
  ASSERT_TRUE(reader.has_value());
  ByteStream cut(reader->bytes().begin(),
                 reader->bytes().begin() + reader->bytes().size() / 2);
  const FleetReplayResult bad = replay_fleet_capture(std::move(cut), 1);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  std::remove(path.c_str());
}

// ------------------------------------------------------ lossy transport

/// A fault plan whose only effect is a non-default seed is not active:
/// the transport stack must stay pure loopback and the capture must be
/// byte-identical to one recorded with no plan at all — the version-2
/// compatibility guarantee.
TEST(FleetTransportCapture, InactivePlanRecordsIdenticalBytes) {
  const std::string plain = temp_path("quiet_none");
  const std::string seeded = temp_path("quiet_seeded");
  record_roaming(plain, 2, 1, 0.4);
  record_roaming(seeded, 2, 1, 0.4, "seed=9");
  auto ra = CaptureReader::from_file(plain);
  auto rb = CaptureReader::from_file(seeded);
  ASSERT_TRUE(ra && rb);
  ASSERT_TRUE(ra->header());
  EXPECT_EQ(ra->header()->version, kSacpVersionFleet);  // not chaos
  const CaptureDiff diff = diff_captures(*ra, *rb);
  EXPECT_TRUE(diff.equal) << diff.detail;
  std::remove(plain.c_str());
  std::remove(seeded.c_str());
}

/// A lossy roaming run is recorded deterministically at any dataplane
/// thread count, carries kTransport verdicts, and replays byte-for-byte
/// — the capture fixes the channel, not just the radio.
TEST(FleetTransportCapture, LossyRunIsDeterministicAndReplays) {
  const std::string kPlan =
      "seed=3,drop=0.15,dup=0.05,reorder=0.05,delay=0.05,corrupt=0.05";
  const std::string base = temp_path("lossy_t1");
  record_roaming(base, 2, 1, 0.6, kPlan);
  {
    auto reader = CaptureReader::from_file(base);
    ASSERT_TRUE(reader.has_value());
    ASSERT_TRUE(reader->header());
    EXPECT_EQ(reader->header()->version, kSacpVersionChaos);
    const ValidationReport report = reader->validate();
    EXPECT_TRUE(report.ok) << report.error;
  }
  for (const std::size_t threads : {2u, 8u}) {
    const std::string other =
        temp_path("lossy_t" + std::to_string(threads));
    record_roaming(other, 2, threads, 0.6, kPlan);
    auto ra = CaptureReader::from_file(base);
    auto rb = CaptureReader::from_file(other);
    ASSERT_TRUE(ra && rb);
    const CaptureDiff diff = diff_captures(*ra, *rb);
    EXPECT_TRUE(diff.equal) << "threads=" << threads << ": " << diff.detail;
    std::remove(other.c_str());
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const FleetReplayResult result = replay_fleet_capture(base, threads);
    EXPECT_TRUE(result.ok) << "threads=" << threads << ": " << result.error;
  }
  // A capture whose fault plan is tampered with must fail to replay:
  // either outright (bad plan string) or because the transport verdicts
  // no longer match the recorded ones.
  {
    auto reader = CaptureReader::from_file(base);
    ASSERT_TRUE(reader.has_value());
    ByteStream bytes = reader->bytes();
    const std::string needle = "drop=0.15";
    const std::string swap = "drop=0.95";
    auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                          needle.end());
    ASSERT_NE(it, bytes.end());
    std::copy(swap.begin(), swap.end(), it);
    const FleetReplayResult tampered =
        replay_fleet_capture(std::move(bytes), 1);
    EXPECT_FALSE(tampered.ok);
    EXPECT_FALSE(tampered.error.empty());
  }
  std::remove(base.c_str());
}

/// Forced total loss: the migration degrades to a cold start — the
/// destination owns the client at the bumped generation, the stranded
/// export can never be imported afterwards, and the source forgot the
/// client.
TEST(FleetTransportCapture, ColdStartDegradesGracefully) {
  FleetConfig config = small_fleet(2, 1);
  config.fault_plan.drop = 1.0;
  config.link.max_attempts = 2;
  config.link.rto_ticks = 2;
  FleetCoordinator fleet(config);
  const MacAddress mac = MacAddress::from_index(4);

  fleet.notify_association(mac, 0);
  const HandoffResult move = fleet.notify_association(mac, 1);
  EXPECT_EQ(move.outcome, FleetImportOutcome::kApplied);
  EXPECT_TRUE(move.migrated);
  EXPECT_EQ(move.transport, HandoffOutcome::kColdStart);
  EXPECT_EQ(move.attempts, 2u);
  EXPECT_EQ(fleet.home_site(mac), std::optional<std::uint32_t>(1));
  EXPECT_EQ(fleet.generation_of(mac), std::optional<std::uint64_t>(2));

  // The export that never arrived is stale by construction now.
  ASSERT_FALSE(move.wire.empty());
  EXPECT_EQ(fleet.apply_handoff(move.wire), FleetImportOutcome::kStale);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cold_starts, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.handoffs_stale, 1u);
  fleet.close();
}

/// The in-process chaos matrix: every fault kind, three seeds, full
/// convergence — the capture_tool `chaos` command's contract, asserted
/// where ctest can see it.
TEST(FleetTransportCapture, ChaosMatrixConverges) {
  const std::vector<std::string> plans = {
      "drop=0.25", "dup=0.2", "reorder=0.2", "corrupt=0.2",
      "drop=0.1,dup=0.1,reorder=0.1,corrupt=0.1"};
  const std::size_t kClients = 6, kMoves = 4, kSites = 3;
  for (const auto& text : plans) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto plan = FaultPlan::parse(text);
      ASSERT_TRUE(plan.has_value()) << text;
      plan->seed = seed;
      FleetConfig config = small_fleet(kSites, 1);
      config.fault_plan = *plan;
      FleetCoordinator fleet(config);
      for (std::size_t m = 0; m < kMoves; ++m) {
        for (std::size_t c = 0; c < kClients; ++c) {
          fleet.notify_association(
              MacAddress::from_index(static_cast<std::uint32_t>(c + 1)),
              static_cast<std::uint32_t>((c + m) % kSites));
        }
      }
      fleet.close();
      for (std::size_t c = 0; c < kClients; ++c) {
        const MacAddress mac =
            MacAddress::from_index(static_cast<std::uint32_t>(c + 1));
        EXPECT_EQ(fleet.home_site(mac),
                  std::optional<std::uint32_t>((c + kMoves - 1) % kSites))
            << text << " seed=" << seed << " client=" << c;
        EXPECT_EQ(fleet.generation_of(mac),
                  std::optional<std::uint64_t>(kMoves))
            << text << " seed=" << seed << " client=" << c;
      }
      const FleetStats stats = fleet.stats();
      EXPECT_EQ(stats.handoffs_malformed, 0u);
      EXPECT_EQ(stats.handoffs_bad_site, 0u);
      EXPECT_EQ(stats.cold_starts, stats.timeouts);
      EXPECT_GE(stats.handoffs_applied + stats.cold_starts,
                kClients * (kMoves - 1));
    }
  }
}

/// The home map rides the compact FlatLruMap substrate and reports its
/// footprint through FleetStats.
TEST(FleetTransportCapture, HomeMapFootprintIsAccounted) {
  FleetConfig config = small_fleet(2, 1);
  FleetCoordinator fleet(config);
  EXPECT_EQ(fleet.stats().home_clients, 0u);
  for (std::uint32_t c = 0; c < 48; ++c) {
    fleet.notify_association(MacAddress::from_index(c + 1), c % 2);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.home_clients, 48u);
  EXPECT_GT(stats.home_map_bytes, 48 * (6 + 12));  // > keys + values raw
  fleet.close();
}

// ------------------------------------------------------------ the oracle

/// Acceptance: a client that roams site 0 -> site 1 must, after the
/// handoff, receive decisions byte-identical to a single session that
/// owned both sites' APs all along (sequence numbers normalized: the
/// fleet numbers per site, the oracle globally). Stride 0 makes the two
/// sites bit-identical deployments; silence rounds keep every AP's
/// round/sample clock aligned between the two worlds.
TEST(FleetOracle, PostHandoffDecisionsMatchSingleSession) {
  FleetSpec spec;
  spec.site.num_aps = 3;
  spec.site.antennas = 4;
  spec.site.policies = {PolicyKind::kAcl, PolicyKind::kSpoof,
                        PolicyKind::kFence};
  spec.num_sites = 2;
  spec.site_seed_stride = 0;  // bit-identical sites

  // Pre-synthesize every frame's waveform once; both worlds consume
  // copies of the same chunks.
  BuiltDeployment wavegen = build_deployment(site_spec(spec, 0), true);
  const MacAddress mac = MacAddress::from_index(1);
  const Vec2 pos = wavegen.testbed.client(1).position;
  const std::size_t k1 = 6, guard = 2, k2 = 6;
  std::uint16_t seq = 0;
  std::vector<std::vector<CMat>> frames;
  for (std::size_t i = 0; i < k1 + k2; ++i) {
    const Frame f =
        Frame::data(MacAddress::from_index(0xFF), mac, Bytes{1, 2, 3}, seq++);
    const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    wavegen.sim->advance(0.05);
    frames.push_back(wavegen.sim->transmit(pos, w, nullptr));
  }
  auto silence_like = [](const std::vector<CMat>& round) {
    std::vector<CMat> s;
    for (const auto& c : round) s.emplace_back(c.rows(), c.cols());
    return s;
  };

  // --- fleet world ---
  FleetConfig config;
  config.spec = spec;
  config.threads_per_site = 1;
  config.spoof_idle_frames = 0;  // oracle configuration: no idle expiry
  FleetCoordinator fleet(config);
  fleet.notify_association(mac, 0);
  for (std::size_t i = 0; i < k1; ++i) {
    fleet.submit_round(0, frames[i]);
    fleet.submit_round(1, silence_like(frames[i]));
  }
  for (std::size_t g = 0; g < guard; ++g) {
    fleet.submit_round(0, silence_like(frames[k1 - 1]));
    fleet.submit_round(1, silence_like(frames[k1 - 1]));
  }
  const auto hr = fleet.notify_association(mac, 1);
  ASSERT_EQ(hr.outcome, FleetImportOutcome::kApplied);
  ASSERT_TRUE(hr.migrated);
  for (std::size_t j = 0; j < k2; ++j) {
    fleet.submit_round(1, frames[k1 + j]);
    fleet.submit_round(0, silence_like(frames[k1 + j]));
  }
  fleet.drain_all();

  // --- oracle world: one session over both sites' APs ---
  BuiltDeployment left = build_deployment(site_spec(spec, 0), false);
  BuiltDeployment right = build_deployment(site_spec(spec, 1), false);
  std::vector<AccessPoint*> aps = left.ap_ptrs;
  aps.insert(aps.end(), right.ap_ptrs.begin(), right.ap_ptrs.end());
  SessionConfig scfg;
  scfg.engine = left.engine;
  std::vector<EngineDecision> oracle;
  EngineSession session(scfg, aps,
                        [&](const EngineDecision& d) { oracle.push_back(d); });
  auto submit_oracle = [&](const std::vector<CMat>& active, bool at_left) {
    const std::vector<CMat> quiet = silence_like(active);
    for (std::size_t ap = 0; ap < 3; ++ap) {
      session.submit(ap, at_left ? active[ap] : quiet[ap]);
      session.submit(3 + ap, at_left ? quiet[ap] : active[ap]);
    }
  };
  for (std::size_t i = 0; i < k1; ++i) submit_oracle(frames[i], true);
  for (std::size_t g = 0; g < guard; ++g) {
    submit_oracle(silence_like(frames[k1 - 1]), true);
  }
  for (std::size_t j = 0; j < k2; ++j) submit_oracle(frames[k1 + j], false);
  session.drain();
  session.close();

  // --- compare, sequence-normalized ---
  const auto& site0 = fleet.decisions(0);
  const auto& site1 = fleet.decisions(1);
  ASSERT_EQ(site0.size(), k1);
  ASSERT_EQ(site1.size(), k2);
  ASSERT_EQ(oracle.size(), k1 + k2);
  auto canon = [](const EngineDecision& d) {
    return encode_decision(0, d.absolute_start, d.decision);
  };
  for (std::size_t i = 0; i < k1; ++i) {
    EXPECT_EQ(canon(site0[i]), canon(oracle[i])) << "pre-handoff frame " << i;
  }
  for (std::size_t j = 0; j < k2; ++j) {
    EXPECT_EQ(canon(site1[j]), canon(oracle[k1 + j]))
        << "post-handoff frame " << j;
  }
  // The spoof tracker really moved: the client trained at site 0, so
  // post-handoff frames must not be treated as a fresh, untrained MAC.
  ASSERT_TRUE(hr.wire.size() > 0);
  const auto shipped = decode_client_state(hr.wire);
  ASSERT_TRUE(shipped.has_value());
  EXPECT_TRUE(shipped->state.tracker.has_value());
  EXPECT_EQ(shipped->state.tracker->observations, k1);
  fleet.close();
}

}  // namespace
}  // namespace sa
