// Scenario runner: a CLI over the full SecureAngle system. Builds the
// Figure-4 office with a configurable multi-AP deployment, runs a
// selectable traffic scenario (sa/sim/scenario.hpp) — benign, bursty,
// mobile, adversarial or overload — streams every AP's samples through
// the engine, and prints a security report with per-policy statistics.
// With --capture the whole run (chunk streams, decisions, drain
// boundaries) is recorded to a SACP file that capture_tool can inspect
// and replay bit-exactly.
//
// Two modes:
//  - batch (default): the three-phase scripted workload through an
//    EngineSession run lock-step: each transmission is one round whose
//    decisions are out before the next is submitted, and each phase
//    ends with a drain.
//  - streaming (--duration or --scenario): scenario-driven arrivals
//    pushed into an EngineSession for a simulated wall-clock span —
//    chunks go in as they "arrive" while earlier rounds are still
//    deciding, with periodic interval reports (the final, partial
//    interval included).
//
// Usage: scenario_runner [options] [seed [packets [num-aps]]]
//   --seed N            RNG seed                       (default 7)
//   --packets N         frames per client per phase    (default 10)
//   --aps N             access points, any count >= 1  (default 3)
//   --antennas N        per-AP antennas; 8 = the paper's octagon,
//                       anything else a circular array (default 8)
//   --threads N         engine worker threads, 0=auto  (default 1)
//   --estimator NAME    music|capon|bartlett|root-music|esprit
//   --subbands K        wideband subbands per packet, power of two
//   --band-fusion F     uniform|snr wideband signature fusion
//   --policies LIST     comma-separated from acl,fence,spoof,rate
//   --scenario NAME     office|mmpp|flash-crowd|mobile|adaptive-spoof|
//                       flood — selects streaming mode
//   --duration S        streaming mode: simulated seconds of traffic
//   --arrival-rate R    streaming mode: mean frame arrivals/sec
//   --report-interval S streaming mode: seconds between interval
//                       reports (default 0.5)
//   --capture PATH      record the run as a SACP capture
//   --fleet-sites N     fleet mode: N >= 2 sites under a
//                       FleetCoordinator running the roaming scenario,
//                       with cross-site handoff on every site change;
//                       --threads becomes threads per site and --capture
//                       records one version-2 fleet capture
//   --fleet-stride N    per-site seed stride (0 = identical sites)
//   --fault-plan SPEC   fleet mode: inject transport faults into the
//                       handoff channel (FaultPlan string, e.g.
//                       "seed=3,drop=0.25,corrupt=0.05"); the capture
//                       becomes version 3 and records the plan plus
//                       per-migration transport verdicts
// e.g.:  ./build/examples/scenario_runner --scenario flood --threads 4
//        ./build/examples/scenario_runner --scenario mmpp --capture run.sacp
//        ./build/examples/scenario_runner --fleet-sites 4 --capture roam.sacp
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "sa/capture/writer.hpp"
#include "sa/fleet/coordinator.hpp"
#include "sa/common/rng.hpp"
#include "sa/dsp/fft.hpp"
#include "sa/engine/session.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"
#include "sa/sim/deployment.hpp"
#include "sa/sim/scenario.hpp"

using namespace sa;

namespace {

[[noreturn]] void print_usage(std::FILE* to, const char* argv0, int status) {
  std::fprintf(to,
               "usage: %s [--seed N] [--packets N] [--aps N] [--antennas N]\n"
               "          [--threads N]\n"
               "          [--estimator music|capon|bartlett|root-music|esprit]\n"
               "          [--subbands K] [--band-fusion uniform|snr]\n"
               "          [--policies acl,fence,spoof,rate]\n"
               "          [--scenario %s]\n"
               "          [--duration S] [--arrival-rate R]\n"
               "          [--report-interval S] [--capture PATH]\n"
               "          [--fleet-sites N] [--fleet-stride N]\n"
               "          [--fault-plan SPEC]\n"
               "          [seed [packets [num-aps]]]\n",
               argv0, scenario_names());
  std::exit(status);
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0, 2);
}

// With --capture this driver records the streams it owns: each round's
// chunks just before it submits them, and a drain marker just before it
// drains. Its decision sink records each decision first thing. (In fleet
// mode the FleetCoordinator records all three itself.)
void submit_recorded(EngineSession& session, CaptureWriter* writer,
                     std::vector<CMat> chunks) {
  if (writer != nullptr) {
    for (std::size_t ap = 0; ap < chunks.size(); ++ap) {
      writer->record_chunk(ap, chunks[ap]);
    }
  }
  session.submit_round(std::move(chunks));
}

void drain_recorded(EngineSession& session, CaptureWriter* writer) {
  if (writer != nullptr) writer->record_drain();
  session.drain();
}

}  // namespace

int main(int argc, char** argv) {
  DeploymentSpec spec;
  int packets = 10;
  std::size_t threads = 1;
  std::optional<ScenarioKind> scenario;
  double duration_s = 0.0;      // > 0 selects streaming mode
  double arrival_rate = 40.0;   // mean frames/sec in streaming mode
  double report_interval = 0.5;
  std::string capture_path;
  std::size_t fleet_sites = 0;     // >= 2 selects fleet mode
  std::uint64_t fleet_stride = 1;  // per-site seed stride
  std::string fault_plan_text;     // fleet handoff-channel fault plan

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Every flag accepts both "--flag value" and "--flag=value".
    std::optional<std::string> inline_value;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    auto value = [&]() -> const char* {
      if (inline_value) return inline_value->c_str();
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed") {
      spec.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--packets") {
      packets = std::atoi(value());
    } else if (arg == "--aps") {
      spec.num_aps = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--antennas") {
      spec.antennas = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--estimator") {
      const char* name = value();
      const auto parsed = aoa_backend_from_string(name);
      if (!parsed) {
        std::fprintf(stderr, "unknown estimator '%s' (valid: %s)\n", name,
                     aoa_backend_names());
        usage(argv[0]);
      }
      spec.estimator = *parsed;
    } else if (arg == "--subbands") {
      spec.subbands = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--band-fusion") {
      const char* name = value();
      const auto parsed = band_fusion_from_string(name);
      if (!parsed) {
        std::fprintf(stderr, "unknown band fusion '%s' (valid: uniform, snr)\n",
                     name);
        usage(argv[0]);
      }
      spec.band_fusion = *parsed;
    } else if (arg == "--scenario") {
      const char* name = value();
      scenario = scenario_from_string(name);
      if (!scenario) {
        std::fprintf(stderr, "unknown scenario '%s' (valid: %s)\n", name,
                     scenario_names());
        usage(argv[0]);
      }
    } else if (arg == "--duration") {
      duration_s = std::strtod(value(), nullptr);
    } else if (arg == "--arrival-rate") {
      arrival_rate = std::strtod(value(), nullptr);
    } else if (arg == "--report-interval") {
      report_interval = std::strtod(value(), nullptr);
    } else if (arg == "--capture") {
      capture_path = value();
    } else if (arg == "--fleet-sites") {
      fleet_sites = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--fleet-stride") {
      fleet_stride = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--fault-plan") {
      fault_plan_text = value();
    } else if (arg == "--policies") {
      const char* list = value();
      const auto parsed = policies_from_string(list);
      if (!parsed) {
        std::fprintf(stderr, "bad policy list '%s'\n", list);
        usage(argv[0]);
      }
      spec.policies = *parsed;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0], 0);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      // Legacy positional form: seed packets num-aps.
      switch (positional++) {
        case 0: spec.seed = std::strtoull(arg.c_str(), nullptr, 10); break;
        case 1: packets = std::atoi(arg.c_str()); break;
        case 2: spec.num_aps = std::strtoul(arg.c_str(), nullptr, 10); break;
        default: usage(argv[0]);
      }
    }
  }
  if (packets < 1 || spec.num_aps < 1) usage(argv[0]);
  if (spec.antennas < 2 || spec.antennas > 64) {
    std::fprintf(stderr, "--antennas must be in [2, 64], got %zu\n",
                 spec.antennas);
    usage(argv[0]);
  }
  if (!is_pow2(spec.subbands) || spec.subbands > 64) {
    std::fprintf(stderr,
                 "--subbands must be a power of two in [1, 64], got %zu\n",
                 spec.subbands);
    usage(argv[0]);
  }
  if (scenario && duration_s <= 0.0) duration_s = 2.0;
  if (duration_s < 0.0 || (duration_s > 0.0 && arrival_rate <= 0.0)) {
    std::fprintf(stderr, "--duration needs a positive --arrival-rate\n");
    usage(argv[0]);
  }
  if (duration_s > 0.0 && report_interval <= 0.0) {
    std::fprintf(stderr, "--report-interval must be positive\n");
    usage(argv[0]);
  }
  // Record only what capture_tool replay accepts: the recorder applies
  // replay's header bounds (sa/capture/format.hpp).
  if (!capture_path.empty()) {
    const bool replayable =
        fleet_sites > 0
            ? fleet_from_header(fleet_header_for(
                                    FleetSpec{spec, fleet_sites, fleet_stride}))
                  .has_value()
            : deployment_from_header(capture_header_for(spec)).has_value();
    if (!replayable) {
      std::fprintf(stderr,
                   "--capture: replay would refuse this deployment (it takes "
                   "3-64 antennas, at most %zu sites and at most %zu APs x "
                   "antennas x subbands)\n",
                   kMaxFleetSites, kMaxAntennaBands);
      usage(argv[0]);
    }
  }

  // ---- Fleet mode: N sites under a FleetCoordinator running the
  // roaming scenario. Walkers wander the fleet; every site change
  // triggers a cross-site handoff before the walker's first frame at
  // the new site. With --capture the whole fleet records one version-2
  // SACP file that replay_fleet_capture can verify byte-for-byte.
  if (fleet_sites > 0) {
    if (fleet_sites < 2) {
      std::fprintf(stderr, "--fleet-sites needs at least 2 sites\n");
      usage(argv[0]);
    }
    if (scenario && *scenario != ScenarioKind::kRoaming) {
      std::fprintf(stderr, "fleet mode only runs the roaming scenario\n");
      usage(argv[0]);
    }
    if (duration_s <= 0.0) duration_s = 2.0;

    std::optional<FaultPlan> fault_plan;
    if (!fault_plan_text.empty()) {
      fault_plan = FaultPlan::parse(fault_plan_text);
      if (!fault_plan) {
        std::fprintf(stderr, "bad --fault-plan \"%s\"\n",
                     fault_plan_text.c_str());
        usage(argv[0]);
      }
    }

    ScenarioConfig sc;
    sc.kind = ScenarioKind::kRoaming;
    sc.arrival_rate = arrival_rate;
    sc.duration_s = duration_s;
    sc.roaming_sites = fleet_sites;
    if (fault_plan) sc.roaming_fault_plan = fault_plan->to_string();

    FleetSpec fspec;
    fspec.site = spec;
    fspec.num_sites = fleet_sites;
    fspec.site_seed_stride = fleet_stride;
    const std::uint64_t idle = roaming_idle_horizon_frames(sc);

    // The generator runs over site 0's testbed and traffic Rng. A
    // sim-less throwaway build gives us both before the writer needs
    // the scenario description (the coordinator rebuilds site 0
    // bit-identically — same seed, same draw order).
    BuiltDeployment proto = build_deployment(site_spec(fspec, 0), false);
    ScenarioGenerator gen(proto.testbed, sc, proto.traffic_rng,
                          spec.estimator);

    std::optional<CaptureWriter> writer;
    if (!capture_path.empty()) {
      CaptureHeader header = fleet_header_for(fspec);
      header.metadata.emplace_back("sa.scenario", gen.describe());
      // Stamp the idle horizon actually applied, so replay re-applies
      // the same expiry timing.
      header.metadata.emplace_back("sa.fleet.spoof_idle",
                                   std::to_string(idle));
      if (fault_plan && fault_plan->active()) {
        // A lossy run is a version-3 capture: the plan rides in the
        // header (replay rebuilds the same channel) and every migration
        // records its transport verdict.
        header.version = kSacpVersionChaos;
        header.metadata.emplace_back("sa.fleet.fault_plan",
                                     fault_plan->to_string());
      }
      writer.emplace(capture_path, std::move(header));
    }

    FleetConfig fc;
    fc.spec = fspec;
    fc.threads_per_site = threads == 0 ? 1 : threads;
    fc.with_sim = true;
    fc.capture = writer ? &*writer : nullptr;
    fc.spoof_idle_frames = static_cast<std::size_t>(idle);
    if (fault_plan) fc.fault_plan = *fault_plan;
    FleetCoordinator fleet(fc);

    std::printf("fleet: %zu site(s) x %zu AP(s), %zu thread(s)/site, "
                "seed stride %llu, spoof idle horizon %llu frames\n",
                fleet.num_sites(), fleet.aps_per_site(), fc.threads_per_site,
                static_cast<unsigned long long>(fleet_stride),
                static_cast<unsigned long long>(idle));
    std::printf("config: %s\n", describe(spec).c_str());
    std::printf("config: %s\n", gen.describe().c_str());

    std::uint16_t sseq = 0;
    std::size_t sent = 0;
    std::vector<std::size_t> site_frames(fleet.num_sites(), 0);
    std::set<MacAddress> seen;
    while (auto ev = gen.next()) {
      // Simulated time passes for every site's channel, not just the
      // one hearing this frame.
      for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
        fleet.deployment(s).sim->advance(ev->dt_s);
      }
      if (seen.insert(ev->mac).second || ev->site_changed) {
        fleet.notify_association(ev->mac, ev->site);
      }
      const Frame f = Frame::data(MacAddress::from_index(0xFF), ev->mac,
                                  Bytes{1, 2, 3}, sseq++);
      const CVec w =
          PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
      fleet.submit_round(ev->site,
                         fleet.deployment(ev->site).sim->transmit(
                             ev->from, w, ev->pattern ? &*ev->pattern : nullptr));
      ++sent;
      ++site_frames[ev->site];
    }
    fleet.drain_all();

    std::size_t accepted = 0, dropped = 0;
    for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
      for (const auto& d : fleet.decisions(s)) {
        (d.decision.accepted ? accepted : dropped)++;
      }
    }
    const auto& fs = fleet.stats();
    std::printf("\ntraffic: %zu frames across the fleet\n", sent);
    for (std::size_t s = 0; s < fleet.num_sites(); ++s) {
      std::printf("  site %zu: %zu frames, %zu decisions\n", s, site_frames[s],
                  fleet.decisions(s).size());
    }
    std::printf("decisions: %zu accepted, %zu dropped\n", accepted, dropped);
    std::printf("handoffs: %llu associations, %llu migrations applied, "
                "%llu stale rejected\n",
                static_cast<unsigned long long>(fs.associations),
                static_cast<unsigned long long>(fs.handoffs_applied),
                static_cast<unsigned long long>(fs.handoffs_stale));
    if (fault_plan && fault_plan->active()) {
      const TransportStats ts = fleet.transport_stats();
      std::printf("transport: %llu datagrams (%llu dropped, %llu dup, "
                  "%llu reordered, %llu delayed, %llu corrupted); "
                  "%llu retries, %llu timeouts -> %llu cold starts, "
                  "%llu duplicates suppressed\n",
                  static_cast<unsigned long long>(ts.sent),
                  static_cast<unsigned long long>(ts.dropped),
                  static_cast<unsigned long long>(ts.duplicated),
                  static_cast<unsigned long long>(ts.reordered),
                  static_cast<unsigned long long>(ts.delayed),
                  static_cast<unsigned long long>(ts.corrupted),
                  static_cast<unsigned long long>(fs.retries),
                  static_cast<unsigned long long>(fs.timeouts),
                  static_cast<unsigned long long>(fs.cold_starts),
                  static_cast<unsigned long long>(fs.duplicates_suppressed));
    }
    if (writer) {
      writer->close();
      std::printf("\ncapture: %s (%llu chunks, %llu decisions, %llu assocs, "
                  "%llu drains)\n",
                  writer->path().c_str(),
                  static_cast<unsigned long long>(writer->chunks_recorded()),
                  static_cast<unsigned long long>(writer->decisions_recorded()),
                  static_cast<unsigned long long>(writer->assocs_recorded()),
                  static_cast<unsigned long long>(writer->drains_recorded()));
    }
    fleet.close();
    return 0;
  }

  BuiltDeployment dep = build_deployment(spec, /*with_sim=*/true);
  const OfficeTestbed& tb = dep.testbed;
  UplinkSimulation& sim = *dep.sim;

  EngineConfig ecfg = dep.engine;
  ecfg.num_threads = threads;

  // ---- Streaming mode: scenario-driven arrivals pushed into an
  // EngineSession. There is no round cadence the caller could batch on:
  // frames arrive whenever the arrival process says, the session
  // pipelines them, and decisions stream out through the sink while
  // later chunks go in.
  if (duration_s > 0.0) {
    ScenarioConfig sc;
    sc.kind = scenario.value_or(ScenarioKind::kOffice);
    sc.arrival_rate = arrival_rate;
    sc.duration_s = duration_s;
    ScenarioGenerator gen(tb, sc, dep.traffic_rng, spec.estimator);

    std::optional<CaptureWriter> writer;
    if (!capture_path.empty()) {
      CaptureHeader header = capture_header_for(spec);
      header.metadata.emplace_back("sa.scenario", gen.describe());
      writer.emplace(capture_path, std::move(header));
    }
    CaptureWriter* const recorder = writer ? &*writer : nullptr;

    SessionConfig scfg;
    scfg.engine = ecfg;
    // The sink counts on the session's control thread while report_span
    // reads mid-run on this one.
    std::atomic<std::size_t> accepted{0}, dropped{0};
    EngineSession session(scfg, dep.ap_ptrs, [&](const EngineDecision& d) {
      if (recorder != nullptr) {
        recorder->record_decision(d.sequence, d.absolute_start, d.decision);
      }
      (d.decision.accepted ? accepted : dropped)
          .fetch_add(1, std::memory_order_relaxed);
    });
    std::printf("streaming deployment: %zu AP(s), %zu engine thread(s)\n",
                spec.num_aps, session.num_threads());
    std::printf("config: %s\n", describe(spec).c_str());
    std::printf("config: %s\n", gen.describe().c_str());

    std::uint16_t sseq = 0;
    std::size_t sent = 0, spoofed = 0, offsite = 0, flooded = 0;
    std::size_t interval_sent = 0;
    double interval_start = 0.0;
    double now = 0.0;
    const auto report_span = [&](double from, double to, bool final_span) {
      std::printf(
          "t=%5.2f..%5.2f%s %5zu frames submitted | decisions so far: "
          "%zu accepted, %zu dropped\n",
          from, to, final_span ? " (final)" : "        ", interval_sent,
          accepted.load(), dropped.load());
      interval_sent = 0;
    };
    while (auto ev = gen.next()) {
      while (ev->time_s >= interval_start + report_interval) {
        report_span(interval_start, interval_start + report_interval, false);
        interval_start += report_interval;
      }
      now = ev->time_s;
      sim.advance(ev->dt_s);
      switch (ev->kind) {
        case TrafficEvent::Kind::kSpoof: ++spoofed; break;
        case TrafficEvent::Kind::kOffsite: ++offsite; break;
        case TrafficEvent::Kind::kFlood: ++flooded; break;
        case TrafficEvent::Kind::kLegit: break;
      }
      const Frame f = Frame::data(MacAddress::from_index(0xFF), ev->mac,
                                  Bytes{1, 2, 3}, sseq++);
      const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
      submit_recorded(
          session, recorder,
          sim.transmit(ev->from, w, ev->pattern ? &*ev->pattern : nullptr));
      ++sent;
      ++interval_sent;
    }
    drain_recorded(session, recorder);
    // The horizon rarely lands on an interval boundary: always flush the
    // final, partial interval so its frames are reported too.
    report_span(interval_start, duration_s, true);
    (void)now;

    const auto policy_rows = session.policy_stats();
    const auto ss = session.session_stats();
    const auto sp = session.spoof_detector().stats();
    std::printf(
        "\ntraffic: %zu frames sent (%zu spoofed, %zu off-site, %zu flood)\n",
        sent, spoofed, offsite, flooded);
    // Every frame enters the chain at its decode link.
    std::printf("decisions: %zu frames | %zu accepted | %zu dropped\n",
                policy_rows.front().evaluated, accepted.load(), dropped.load());
    std::printf("\n%-10s %10s %10s %10s\n", "policy", "evaluated", "accepted",
                "dropped");
    for (const auto& ps : policy_rows) {
      std::printf("%-10.*s %10zu %10zu %10zu\n",
                  static_cast<int>(ps.name.size()), ps.name.data(),
                  ps.evaluated, ps.accepted, ps.dropped);
    }
    std::printf("\nspoof trackers: %zu MAC(s) across %zu shard(s), %zu alarms\n",
                sp.tracked_macs, session.spoof_detector().num_shards(),
                sp.alarms);
    std::printf(
        "pipeline: %zu rounds (%zu data rounds retired), %zu decisions "
        "emitted, max %zu rounds overlapped in the dataplane, %zu candidate "
        "frames in the largest round, %zu deferred retries\n",
        ss.rounds_completed, ss.rounds_retired, ss.decisions_emitted,
        ss.max_overlapped_rounds, ss.max_inflight_frames, ss.stale_retries);
    std::printf(
        "pipeline: %zu worker jobs in %zu bursts (max burst %zu), "
        "%zu submit-ring blocks, %zu spin polls, %zu parks\n",
        ss.worker_jobs, ss.worker_bursts, ss.max_worker_burst,
        ss.submit_ring_full_blocks, ss.spin_polls, ss.parks);
    if (writer) {
      writer->close();
      std::printf("\ncapture: %s (%llu chunks, %llu decisions, %llu drains)\n",
                  writer->path().c_str(),
                  static_cast<unsigned long long>(writer->chunks_recorded()),
                  static_cast<unsigned long long>(writer->decisions_recorded()),
                  static_cast<unsigned long long>(writer->drains_recorded()));
    }
    session.close();
    return 0;
  }

  std::optional<CaptureWriter> writer;
  if (!capture_path.empty()) {
    CaptureHeader header = capture_header_for(spec);
    header.metadata.emplace_back("sa.scenario", "batch-three-phase");
    writer.emplace(capture_path, std::move(header));
  }
  CaptureWriter* const recorder = writer ? &*writer : nullptr;

  SessionConfig scfg;
  scfg.engine = ecfg;
  std::vector<EngineDecision> decided;
  EngineSession session(scfg, dep.ap_ptrs, [&](const EngineDecision& d) {
    if (recorder != nullptr) {
      recorder->record_decision(d.sequence, d.absolute_start, d.decision);
    }
    decided.push_back(d);
  });

  std::string chain_names = "decode";
  const auto rows = session.policy_stats();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    chain_names += "->";
    chain_names += rows[i].name;
  }
  std::printf("deployment: %zu AP(s), %zu engine thread(s), %d packets/client\n",
              spec.num_aps, session.num_threads(), packets);
  std::printf("config: %s\n", describe(spec).c_str());
  std::printf("policy chain: %s\n", chain_names.c_str());

  std::uint16_t seq = 0;
  auto send = [&](Vec2 from, MacAddress mac, const TxPattern* pat) {
    const Frame f =
        Frame::data(MacAddress::from_index(0xFF), mac, Bytes{1, 2, 3}, seq++);
    const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    submit_recorded(session, recorder, sim.transmit(from, w, pat));
    session.wait_idle();
    sim.advance(0.25);
  };
  // A phase ends with a drain; its decisions are everything the sink
  // appended since the previous phase ended.
  auto end_phase = [&] {
    drain_recorded(session, recorder);
    return std::exchange(decided, {});
  };

  // Phase 1: every client associates and sends `packets` frames.
  int accepted = 0, dropped = 0;
  for (int p = 0; p < packets; ++p) {
    for (const auto& c : tb.clients()) {
      send(c.position, MacAddress::from_index(c.id), nullptr);
    }
  }
  for (const auto& d : end_phase()) {
    (d.decision.accepted ? accepted : dropped)++;
  }
  std::printf("\nphase 1 — legitimate traffic: %d accepted, %d dropped "
              "(%.1f%% false drop)\n",
              accepted, dropped,
              100.0 * dropped / std::max(accepted + dropped, 1));

  // Phase 2: an insider spoofs client 2's MAC from the far office. The
  // ACL waves these through (the MAC is on the list) — only the
  // signature check catches them.
  int spoof_caught = 0, spoof_missed = 0;
  for (int p = 0; p < packets; ++p) {
    send(tb.client(17).position, MacAddress::from_index(2), nullptr);
  }
  for (const auto& d : end_phase()) {
    (d.decision.policy == SpoofPolicy::kName ? spoof_caught : spoof_missed)++;
  }
  std::printf("phase 2 — MAC spoofing insider: %d/%d forged frames dropped\n",
              spoof_caught, spoof_caught + spoof_missed);

  // Phase 3: off-site transmitter with a power amp. Fail-closed fence:
  // frames heard by too few APs to localize are dropped rather than
  // waved through (and its unknown MAC fails the ACL, when enabled).
  TxPattern amp;
  amp.tx_power_db = 15.0;
  int offsite_drops = 0, outdoor_frames = 0;
  for (int p = 0; p < packets; ++p) {
    send(tb.outdoor_positions()[0], MacAddress::from_index(200), &amp);
  }
  for (const auto& d : end_phase()) {
    ++outdoor_frames;
    if (!d.decision.accepted) ++offsite_drops;
  }
  std::printf("phase 3 — off-site transmitter: %d/%d frames denied\n",
              offsite_drops, outdoor_frames);

  // Every frame enters the chain at its decode link, then is either
  // accepted by the whole chain or dropped by exactly one policy.
  const auto policy_rows = session.policy_stats();
  const std::size_t frames = policy_rows.front().evaluated;
  std::size_t drops = 0;
  for (const auto& ps : policy_rows) drops += ps.dropped;
  const auto sp = session.spoof_detector().stats();
  std::printf("\ntotals: %zu frames | %zu accepted | %zu dropped\n", frames,
              frames - drops, drops);
  std::printf("\n%-10s %10s %10s %10s\n", "policy", "evaluated", "accepted",
              "dropped");
  for (const auto& ps : policy_rows) {
    std::printf("%-10.*s %10zu %10zu %10zu\n",
                static_cast<int>(ps.name.size()), ps.name.data(), ps.evaluated,
                ps.accepted, ps.dropped);
  }
  std::printf("\nspoof trackers: %zu MAC(s) across %zu shard(s), %zu alarms, "
              "%zu evicted\n",
              sp.tracked_macs, session.spoof_detector().num_shards(), sp.alarms,
              sp.evictions);
  if (writer) {
    writer->close();
    std::printf("\ncapture: %s (%llu chunks, %llu decisions, %llu drains)\n",
                writer->path().c_str(),
                static_cast<unsigned long long>(writer->chunks_recorded()),
                static_cast<unsigned long long>(writer->decisions_recorded()),
                static_cast<unsigned long long>(writer->drains_recorded()));
  }
  return 0;
}
