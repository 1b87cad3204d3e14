// Tests for the EngineSession: lock-step and pipelined submission must
// both emit a decision stream identical to the serial single-threaded
// reference — serial StreamingReceivers feeding the same grouping and a
// plain Coordinator — at any thread count and any shard count, over the
// Figure-4 office scenario across multiple seeds. Backpressure must
// bound the in-flight work without changing output, drain()/close()
// lifecycle semantics must hold mid-stream, and a session must run one
// control thread beside its workers. The cross-AP grouping rules
// themselves are tested in test_engine.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sa/common/rng.hpp"
#include "sa/engine/session.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"
#include "sa/testbed/office.hpp"
#include "sa/testbed/uplink.hpp"

namespace sa {
namespace {

/// Figure-4 office, 3 APs, and a pre-generated mixed workload:
/// legitimate ring clients, a MAC-spoofing insider, and an off-site
/// transmitter.
struct SessionRig {
  OfficeTestbed tb = OfficeTestbed::figure4();
  Rng rng;
  std::vector<std::unique_ptr<AccessPoint>> aps;
  std::vector<AccessPoint*> ptrs;
  std::vector<std::vector<CMat>> rounds;  // one vector<CMat> per transmission

  explicit SessionRig(std::uint64_t seed, std::size_t subbands = 1)
      : rng(seed) {
    UplinkConfig ucfg;
    ucfg.channel.noise_power = 1e-5;
    UplinkSimulation sim(tb, ucfg, rng);
    for (const Vec2& spot : tb.ap_mounting_points(3)) {
      AccessPointConfig cfg;
      cfg.position = spot;
      cfg.subbands = subbands;
      aps.push_back(std::make_unique<AccessPoint>(cfg, rng));
      ptrs.push_back(aps.back().get());
      sim.add_ap(aps.back()->placement());
    }
    std::uint16_t seq = 0;
    auto shoot = [&](Vec2 from, std::uint32_t mac_index, const TxPattern* pat) {
      const Frame f = Frame::data(MacAddress::from_index(0xFF),
                                  MacAddress::from_index(mac_index),
                                  Bytes{1, 2, 3}, seq++);
      const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
      rounds.push_back(sim.transmit(from, w, pat));
      sim.advance(0.25);
    };
    for (int p = 0; p < 2; ++p) {
      for (int id : {1, 2}) shoot(tb.client(id).position, id, nullptr);
    }
    // Insider spoofing client 2's MAC from the far office.
    for (int p = 0; p < 2; ++p) shoot(tb.client(17).position, 2, nullptr);
    // Off-site transmitter with a power amp.
    TxPattern amp;
    amp.tx_power_db = 15.0;
    shoot(tb.outdoor_positions()[0], 200, &amp);
  }

  SessionConfig session_config(std::size_t threads) const {
    SessionConfig cfg;
    cfg.engine.num_threads = threads;
    cfg.engine.coordinator.fence_boundary = tb.building_outline();
    cfg.engine.coordinator.min_aps_for_fence = 2;
    return cfg;
  }

  /// Decode + acl + spoof + fence + rate: the full built-in chain. The
  /// ACL allows the legitimate MACs (so the spoofed insider passes it and
  /// must be caught downstream) but not the off-site transmitter's; the
  /// tight rate limit fires on the busiest MAC.
  SessionConfig five_policy_config(std::size_t threads) const {
    SessionConfig cfg = session_config(threads);
    cfg.engine.coordinator.policies = {PolicyKind::kAcl, PolicyKind::kSpoof,
                                       PolicyKind::kFence,
                                       PolicyKind::kRateLimit};
    AccessControlList acl;
    acl.allow(MacAddress::from_index(1));
    acl.allow(MacAddress::from_index(2));
    cfg.engine.coordinator.acl = std::move(acl);
    cfg.engine.coordinator.rate_limit.max_frames = 3;
    cfg.engine.coordinator.rate_limit.window_frames = 1024;
    return cfg;
  }

  /// Submit every round, then drain. Lock-step waits each round's
  /// decisions out before submitting the next; otherwise every round is
  /// pushed without waiting (the pipelined schedule: round N+1 is
  /// scanned while round N is still being decided).
  void feed(EngineSession& session, bool lockstep) const {
    for (const auto& round : rounds) {
      session.submit_round(round);
      if (lockstep) session.wait_idle();
    }
    session.drain();
  }

  std::vector<EngineDecision> run_session(const SessionConfig& cfg,
                                          bool lockstep = false,
                                          SessionStats* stats_out = nullptr) {
    std::vector<EngineDecision> out;
    EngineSession session(cfg, ptrs,
                          [&](const EngineDecision& d) { out.push_back(d); });
    feed(session, lockstep);
    if (stats_out != nullptr) *stats_out = session.session_stats();
    session.close();
    return out;
  }

  /// The single-threaded reference: serial streaming receivers, the same
  /// grouping, a plain Coordinator::process. `flush_after` marks round
  /// indices after which a mid-stream flush happens (the end always
  /// flushes).
  std::vector<EngineDecision> run_serial_reference(
      std::vector<std::size_t> flush_after = {}) {
    const SessionConfig cfg = session_config(1);
    std::vector<std::unique_ptr<StreamingReceiver>> streams;
    for (AccessPoint* ap : ptrs) {
      streams.push_back(
          std::make_unique<StreamingReceiver>(*ap, cfg.engine.streaming));
    }
    std::vector<Vec2> positions;
    for (const AccessPoint* ap : ptrs) {
      positions.push_back(ap->config().position);
    }
    Coordinator coord(cfg.engine.coordinator);
    std::size_t sequence = 0;
    std::vector<EngineDecision> out;
    auto decide_round =
        [&](std::vector<std::vector<StreamingReceiver::StreamPacket>> per_ap) {
          for (auto& g : group_frame_observations(
                   std::move(per_ap), positions,
                   cfg.engine.group_slack_samples)) {
            out.push_back(
                {sequence++, g.absolute_start, coord.process(g.observations)});
          }
        };
    auto flush_all = [&] {
      std::vector<std::vector<StreamingReceiver::StreamPacket>> tail;
      for (auto& s : streams) tail.push_back(s->flush());
      decide_round(std::move(tail));
    };
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      std::vector<std::vector<StreamingReceiver::StreamPacket>> per_ap;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        per_ap.push_back(streams[i]->push(rounds[r][i]));
      }
      decide_round(std::move(per_ap));
      for (std::size_t f : flush_after) {
        if (f == r) flush_all();
      }
    }
    flush_all();
    return out;
  }
};

void expect_identical_streams(const std::vector<EngineDecision>& a,
                              const std::vector<EngineDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].sequence, b[i].sequence);
    EXPECT_EQ(a[i].absolute_start, b[i].absolute_start);
    const FrameDecision& da = a[i].decision;
    const FrameDecision& db = b[i].decision;
    EXPECT_EQ(da.accepted, db.accepted);
    EXPECT_EQ(da.policy, db.policy);
    EXPECT_EQ(da.source, db.source);
    EXPECT_EQ(da.spoof, db.spoof);
    EXPECT_EQ(da.spoof_score, db.spoof_score);  // bit-exact, not approximate
    ASSERT_EQ(da.location.has_value(), db.location.has_value());
    if (da.location) {
      EXPECT_EQ(da.location->position.x, db.location->position.x);
      EXPECT_EQ(da.location->position.y, db.location->position.y);
      EXPECT_EQ(da.location->residual_deg, db.location->residual_deg);
      EXPECT_EQ(da.location->aps_used, db.location->aps_used);
    }
    EXPECT_EQ(da.detail, db.detail);
    ASSERT_EQ(da.trace.size(), db.trace.size());
    for (std::size_t t = 0; t < da.trace.size(); ++t) {
      EXPECT_EQ(da.trace[t].policy, db.trace[t].policy);
      EXPECT_EQ(da.trace[t].dropped, db.trace[t].dropped);
      EXPECT_EQ(da.trace[t].detail, db.trace[t].detail);
    }
  }
}

/// Names one (thread count, schedule) point for SCOPED_TRACE.
std::string schedule_name(std::size_t threads, bool lockstep) {
  return std::to_string(threads) +
         (lockstep ? " thread(s), lock-step" : " thread(s), pipelined");
}

TEST(Session, LockStepAndPipelinedMatchSerialReferenceAtAnyThreadCount) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    SCOPED_TRACE(seed);
    SessionRig rig(seed);
    const auto reference = rig.run_serial_reference();
    // The workload must actually exercise the pipeline: every
    // transmission heard, and multiple verdicts represented.
    ASSERT_GE(reference.size(), 5u);
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (bool lockstep : {true, false}) {
        SCOPED_TRACE(schedule_name(threads, lockstep));
        expect_identical_streams(
            rig.run_session(rig.session_config(threads), lockstep), reference);
      }
    }
  }
}

TEST(Session, WidebandSubbandsMatchSerialReferenceAtAnyThreadCount) {
  // subbands = 4: the decision stream must still be identical at any
  // thread count — and identical to the serial reference, whose
  // demodulate runs the same per-band pipeline inline.
  SessionRig rig(11, /*subbands=*/4);
  const auto reference = rig.run_serial_reference();
  ASSERT_GE(reference.size(), 5u);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (bool lockstep : {true, false}) {
      SCOPED_TRACE(schedule_name(threads, lockstep));
      expect_identical_streams(
          rig.run_session(rig.session_config(threads), lockstep), reference);
    }
  }
}

TEST(Session, ShardCountDoesNotChangeDecisions) {
  SessionRig rig(11);
  SessionConfig one = rig.session_config(2);
  one.engine.num_shards = 1;
  SessionConfig many = rig.session_config(2);
  many.engine.num_shards = 32;
  expect_identical_streams(rig.run_session(one, /*lockstep=*/true),
                           rig.run_session(many, /*lockstep=*/true));
}

TEST(Session, StatsMatchSerialCoordinatorWithGapFreeSequences) {
  SessionRig rig(12);
  std::vector<EngineDecision> out;
  EngineSession session(rig.session_config(4), rig.ptrs,
                        [&](const EngineDecision& d) { out.push_back(d); });
  rig.feed(session, /*lockstep=*/true);
  const auto rows = session.policy_stats();
  EXPECT_EQ(rows.front().evaluated, out.size());
  EXPECT_EQ(rows.front().evaluated, rig.run_serial_reference().size());
  // Decisions come back in one gap-free global order.
  ASSERT_FALSE(out.empty());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].sequence, i);
  // Both defenses fired somewhere in the mixed workload.
  EXPECT_GT(rows.back().accepted, 0u);
  EXPECT_GT(session.spoof_detector().stats().tracked_macs, 0u);
  session.close();
}

// --------------------------------------------------------- policy chain

TEST(Session, FivePolicyChainIsScheduleAndThreadCountInvariant) {
  // acl -> spoof -> fence -> rate: stateful policies (rate limiting by
  // global frame index, spoof trackers) must see exactly the same stream
  // under either schedule at any thread count.
  SessionRig rig(11);
  const auto reference =
      rig.run_session(rig.five_policy_config(1), /*lockstep=*/true);
  ASSERT_GE(reference.size(), 5u);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (bool lockstep : {true, false}) {
      if (threads == 1 && lockstep) continue;  // the reference itself
      SCOPED_TRACE(schedule_name(threads, lockstep));
      expect_identical_streams(
          rig.run_session(rig.five_policy_config(threads), lockstep),
          reference);
    }
  }
}

TEST(Session, BindingRateLimitBoundIsThreadCountInvariant) {
  // One rate slot for the whole session: every MAC that sends evicts the
  // last one's window from the limiter's LRU. The session runs one
  // policy chain, so which MAC is evicted, and hence every decision,
  // must not depend on the worker count.
  SessionRig rig(11);
  const auto config = [&](std::size_t threads) {
    SessionConfig cfg = rig.five_policy_config(threads);
    cfg.engine.coordinator.rate_limit.max_frames = 1;
    cfg.engine.coordinator.rate_limit.max_tracked_macs = 1;
    return cfg;
  };
  const auto reference = rig.run_session(config(1), /*lockstep=*/true);
  ASSERT_GE(reference.size(), 5u);
  std::size_t rate_drops = 0;
  for (const EngineDecision& d : reference) {
    if (d.decision.policy == RateLimitPolicy::kName) ++rate_drops;
  }
  EXPECT_GT(rate_drops, 0u);  // the limiter fires with the bound binding
  for (std::size_t threads : {2u, 4u, 8u}) {
    for (bool lockstep : {true, false}) {
      SCOPED_TRACE(schedule_name(threads, lockstep));
      expect_identical_streams(rig.run_session(config(threads), lockstep),
                               reference);
    }
  }
}

TEST(Session, FivePolicyChainStatsSumToFrames) {
  SessionRig rig(12);
  std::size_t decisions = 0;
  EngineSession session(rig.five_policy_config(4), rig.ptrs,
                        [&](const EngineDecision&) { ++decisions; });
  rig.feed(session, /*lockstep=*/true);

  const auto rows = session.policy_stats();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].name, DecodePolicy::kName);
  EXPECT_EQ(rows[1].name, AclPolicy::kName);
  EXPECT_EQ(rows[2].name, SpoofPolicy::kName);
  EXPECT_EQ(rows[3].name, FencePolicy::kName);
  EXPECT_EQ(rows[4].name, RateLimitPolicy::kName);

  // Every frame is either accepted by the whole chain or dropped by
  // exactly one policy.
  EXPECT_EQ(rows.front().evaluated, decisions);
  std::size_t drops = 0;
  for (const auto& ps : rows) {
    drops += ps.dropped;
    EXPECT_EQ(ps.evaluated, ps.accepted + ps.dropped);
  }
  EXPECT_EQ(rows.back().accepted + drops, decisions);

  // A policy only ever evaluates what its predecessors let through.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].evaluated, rows[i - 1].accepted);
  }

  // The off-site transmitter's unknown MAC hits the ACL; the busiest MAC
  // trips the tight rate limit.
  EXPECT_GT(rows[1].dropped + rows[0].dropped, 0u);
  EXPECT_GT(rows[4].dropped, 0u);
  session.close();
}

TEST(Session, ConcurrentStatsReadersSeeTheDrainedTotals) {
  SessionRig rig(12);
  std::size_t decisions = 0;
  EngineSession session(rig.five_policy_config(4), rig.ptrs,
                        [&](const EngineDecision&) { ++decisions; });
  rig.feed(session, /*lockstep=*/false);
  const auto want_rows = session.policy_stats();
  ASSERT_EQ(want_rows.front().evaluated, decisions);
  ASSERT_GT(decisions, 0u);

  // The session is drained, so every call from every reader must see
  // exactly these totals.
  std::atomic<std::size_t> mismatches{0};
  const auto reader = [&] {
    for (int i = 0; i < 10000; ++i) {
      const auto rows = session.policy_stats();
      bool same = rows.size() == want_rows.size();
      for (std::size_t j = 0; same && j < rows.size(); ++j) {
        same = rows[j].evaluated == want_rows[j].evaluated &&
               rows[j].accepted == want_rows[j].accepted &&
               rows[j].dropped == want_rows[j].dropped;
      }
      if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0u);
  session.close();
}

TEST(Session, ChainWithoutSpoofSkipsTrackerState) {
  SessionRig rig(11);
  SessionConfig cfg = rig.session_config(2);
  cfg.engine.coordinator.policies = {PolicyKind::kFence};
  EngineSession session(cfg, rig.ptrs, [](const EngineDecision&) {});
  rig.feed(session, /*lockstep=*/true);
  // No SpoofPolicy in the chain: trackers must not have trained.
  EXPECT_EQ(session.spoof_detector().stats().packets, 0u);
  EXPECT_EQ(session.spoof_detector().stats().tracked_macs, 0u);
  for (const auto& ps : session.policy_stats()) {
    EXPECT_NE(ps.name, SpoofPolicy::kName);
  }
  session.close();
}

// ------------------------------------------------------------- session

TEST(Session, MidStreamDrainMatchesMidStreamFlush) {
  SessionRig rig(11);
  const std::size_t cut = 3;
  const auto reference = rig.run_serial_reference({cut});

  std::vector<EngineDecision> out;
  EngineSession session(rig.session_config(2), rig.ptrs,
                        [&](const EngineDecision& d) { out.push_back(d); });
  for (std::size_t r = 0; r <= cut; ++r) session.submit_round(rig.rounds[r]);
  session.drain();
  const std::size_t after_first_drain = out.size();
  EXPECT_GT(after_first_drain, 0u);
  // The session stays usable: keep streaming after the mid-stream drain.
  for (std::size_t r = cut + 1; r < rig.rounds.size(); ++r) {
    session.submit_round(rig.rounds[r]);
  }
  session.drain();
  session.close();
  EXPECT_GT(out.size(), after_first_drain);
  expect_identical_streams(out, reference);
}

TEST(Session, PerApRaggedSubmissionFormsRoundsByChunkIndex) {
  SessionRig rig(13);
  const auto reference = rig.run_serial_reference();

  std::vector<EngineDecision> out;
  EngineSession session(rig.session_config(2), rig.ptrs,
                        [&](const EngineDecision& d) { out.push_back(d); });
  // Push each AP's whole stream in turn: round r must still be formed
  // from the r-th chunk of every AP, exactly as aligned submission.
  for (std::size_t i = 0; i < rig.ptrs.size(); ++i) {
    for (const auto& round : rig.rounds) session.submit(i, round[i]);
  }
  session.drain();
  session.close();
  expect_identical_streams(out, reference);
}

TEST(Session, CloseIsIdempotentAndRejectsLateWork) {
  SessionRig rig(11);
  std::size_t decisions = 0;
  EngineSession session(rig.session_config(2), rig.ptrs,
                        [&](const EngineDecision&) { ++decisions; });
  session.submit_round(rig.rounds[0]);
  session.close();
  session.close();  // idempotent
  EXPECT_THROW(session.submit_round(rig.rounds[1]), StateError);
  EXPECT_THROW(session.drain(), StateError);
  // close() drained: the submitted round (plus the flush pass) was
  // fully decided before the pipeline stopped.
  EXPECT_GE(session.session_stats().rounds_completed, 2u);
}

TEST(Session, StatsCountChunksRoundsAndDecisions) {
  SessionRig rig(12);
  SessionStats stats;
  const auto out =
      rig.run_session(rig.session_config(4), /*lockstep=*/false, &stats);
  EXPECT_EQ(stats.chunks_submitted, rig.rounds.size() * rig.ptrs.size());
  // Every submitted round plus the drain's flush pass completed.
  EXPECT_GE(stats.rounds_completed, rig.rounds.size() + 1);
  EXPECT_EQ(stats.decisions_emitted, out.size());
  EXPECT_GE(stats.max_inflight_frames, 1u);
}

TEST(Session, SubmitRingBackpressureBlocksWithoutChangingOutput) {
  SessionRig rig(11);
  const auto reference = rig.run_serial_reference();

  // One-slot submit rings and a lock-step pipeline: the submitter runs
  // far ahead of the dataplane and must repeatedly find its AP's ring
  // full, block on the doorbell, and resume — with zero effect on the
  // decision stream.
  SessionConfig cfg = rig.session_config(2);
  cfg.max_pending_chunks = 1;
  cfg.max_inflight_rounds = 1;
  SessionStats stats;
  expect_identical_streams(rig.run_session(cfg, /*lockstep=*/false, &stats),
                           reference);
  EXPECT_GT(stats.submit_ring_full_blocks, 0u);
  EXPECT_LE(stats.max_submit_ring_occupancy, 1u);
}

#if defined(__linux__)
/// This process's threads, per the kernel's task list.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(Session, RunsOneControlThreadBesideItsWorkers) {
  // A sanitizer runtime may start a helper thread at the first thread
  // creation; let that happen before the baseline count.
  std::thread([] {}).join();
  SessionRig rig(11);
  const std::size_t before = process_threads();
  EngineSession one(rig.session_config(1), rig.ptrs,
                    [](const EngineDecision&) {});
  EXPECT_EQ(process_threads() - before, 1u + 1u);
  EngineSession four(rig.session_config(4), rig.ptrs,
                     [](const EngineDecision&) {});
  EXPECT_EQ(process_threads() - before, (1u + 1u) + (4u + 1u));
  four.close();
  one.close();
}
#endif

TEST(Session, RejectsInvalidSubmissions) {
  SessionRig rig(11);
  EngineSession session(rig.session_config(1), rig.ptrs,
                        [](const EngineDecision&) {});
  EXPECT_THROW(session.submit_round(std::vector<CMat>(rig.ptrs.size() + 1)),
               InvalidArgument);
  EXPECT_THROW(session.submit(rig.ptrs.size(), rig.rounds[0][0]),
               InvalidArgument);
  EXPECT_THROW(session.submit(0, CMat(1, 8)), InvalidArgument);  // wrong rows
  session.close();
}

// Regression for the robustness gap the capture fuzz loop found:
// NaN-laced IQ used to flow through conditioning into the covariance
// EVD and trip eig()'s Hermitian precondition deep inside a worker.
// submit() must reject non-finite samples at the ingest boundary, and
// the session must stay usable for clean chunks afterwards.
TEST(Session, RejectsNonFiniteIqAtSubmit) {
  SessionRig rig(11);
  EngineSession session(rig.session_config(1), rig.ptrs,
                        [](const EngineDecision&) {});

  CMat nan_chunk = rig.rounds[0][0];
  nan_chunk(0, nan_chunk.cols() / 2) =
      cd(std::numeric_limits<double>::quiet_NaN(), 0.0);
  EXPECT_THROW(session.submit(0, nan_chunk), InvalidArgument);

  CMat inf_chunk = rig.rounds[0][0];
  inf_chunk(inf_chunk.rows() - 1, 0) =
      cd(0.0, std::numeric_limits<double>::infinity());
  EXPECT_THROW(session.submit(0, inf_chunk), InvalidArgument);

  // A poisoned chunk must not poison the session: the rejection happens
  // before the rings, so clean rounds still flow end to end.
  for (const auto& round : rig.rounds) session.submit_round(round);
  session.drain();
  session.close();
}

// Finite IQ can overflow too: a 1e200 component squares past DBL_MAX in
// the detector's |P|^2 and the EVD's Frobenius sum, and used to kill the
// session on eig()'s Hermitian precondition or the Capon inverse.
// submit() refuses any component beyond kMaxIqMagnitude, and the session
// still decides every later round exactly as a clean one does.
TEST(Session, RejectsOverflowSizeIqAtSubmit) {
  SessionRig rig(11);
  std::vector<EngineDecision> out;
  EngineSession session(rig.session_config(1), rig.ptrs,
                        [&](const EngineDecision& d) { out.push_back(d); });

  CMat huge_re = rig.rounds[0][0];
  huge_re(0, huge_re.cols() / 2) = cd(1e200, 0.0);
  EXPECT_THROW(session.submit(0, huge_re), InvalidArgument);
  CMat huge_im = rig.rounds[0][1];
  huge_im(huge_im.rows() - 1, 0) = cd(0.5, -1e200);
  EXPECT_THROW(session.submit(1, huge_im), InvalidArgument);
  CMat over_bound = rig.rounds[0][0];
  over_bound(0, 0) = cd(0.0, std::nextafter(kMaxIqMagnitude, 1e300));
  EXPECT_THROW(session.submit(0, over_bound), InvalidArgument);

  rig.feed(session, /*lockstep=*/false);
  session.close();
  expect_identical_streams(out, rig.run_serial_reference());
}

}  // namespace
}  // namespace sa
