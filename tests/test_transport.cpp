// Transport-layer tests: FaultPlan determinism and string round-trip,
// the FaultyTransport fault kinds under forced schedules, the
// ReliableLink ARQ (retry/backoff, duplicate suppression, corruption
// repair, cold-start timeout, the stale-ack-after-cold-start
// regression), total decode of the kTransportData/kAck envelopes
// (truncation at every prefix, reserved flags, fuzz parity with
// kClientState), and concurrent handoffs of distinct MACs through a
// lossy FleetCoordinator while another thread reads its counters — the
// TSan surface for the fleet's control-plane lock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sa/capture/format.hpp"
#include "sa/fleet/coordinator.hpp"
#include "sa/fleet/transport.hpp"
#include "sa/fleet/wire.hpp"

namespace sa {
namespace {

ByteStream bytes_of(std::initializer_list<std::uint8_t> list) {
  return ByteStream(list);
}

// The envelope checksum, re-derived: part of the wire contract, so the
// tests can build frames whose framing is flawless on purpose.
std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x01000193u;
  }
  return h;
}

ByteStream raw_frame(FleetWireType type, const ByteStream& payload) {
  ByteStream out;
  put_u32(out, kFleetWireMagic);
  put_u32(out, kFleetWireVersion);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, VerdictIsDeterministicAndTracksProbabilities) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 0.3;
  plan.corrupt = 0.1;
  std::size_t drops = 0, corrupts = 0, nones = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    const FaultKind v = plan.verdict(i);
    EXPECT_EQ(v, plan.verdict(i));  // pure function of (seed, index)
    if (v == FaultKind::kDrop) ++drops;
    if (v == FaultKind::kCorrupt) ++corrupts;
    if (v == FaultKind::kNone) ++nones;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(corrupts) / n, 0.1, 0.02);
  EXPECT_EQ(drops + corrupts + nones, n);

  // A different seed is a different channel.
  FaultPlan other = plan;
  other.seed = 8;
  bool differs = false;
  for (std::size_t i = 0; i < 64 && !differs; ++i) {
    differs = other.verdict(i) != plan.verdict(i);
  }
  EXPECT_TRUE(differs);

  // Forced schedule overrides the draw, and activates an otherwise
  // quiet plan.
  FaultPlan forced;
  EXPECT_FALSE(forced.active());
  forced.schedule[3] = FaultKind::kDrop;
  EXPECT_TRUE(forced.active());
  EXPECT_EQ(forced.verdict(3), FaultKind::kDrop);
  EXPECT_EQ(forced.verdict(4), FaultKind::kNone);
}

TEST(FaultPlan, StringRoundTripAndRejection) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop = 0.15;
  plan.duplicate = 0.05;
  plan.delay_ticks = 9;
  plan.schedule[3] = FaultKind::kCorrupt;
  plan.schedule[11] = FaultKind::kDrop;

  const std::string text = plan.to_string();
  EXPECT_EQ(text, "seed=42,drop=0.15,dup=0.05,delay_ticks=9,"
                  "force=3:corrupt;11:drop");
  const auto back = FaultPlan::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, 42u);
  EXPECT_EQ(back->drop, 0.15);
  EXPECT_EQ(back->duplicate, 0.05);
  EXPECT_EQ(back->delay_ticks, 9u);
  EXPECT_EQ(back->schedule, plan.schedule);
  EXPECT_EQ(back->to_string(), text);  // stable fixed point

  EXPECT_FALSE(FaultPlan::parse("bogus=1").has_value());
  EXPECT_FALSE(FaultPlan::parse("drop").has_value());
  EXPECT_FALSE(FaultPlan::parse("drop=1.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("drop=-0.1").has_value());
  EXPECT_FALSE(FaultPlan::parse("drop=0.6,dup=0.6").has_value());  // > 1
  EXPECT_FALSE(FaultPlan::parse("force=3").has_value());
  EXPECT_FALSE(FaultPlan::parse("force=x:drop").has_value());
  EXPECT_FALSE(FaultPlan::parse("force=3:explode").has_value());
}

// ------------------------------------------------------ FaultyTransport

struct Delivered {
  std::vector<ByteStream> datagrams;
  void attach(FleetTransport& t) {
    t.set_receiver([this](const ByteStream& d) { datagrams.push_back(d); });
  }
};

TEST(FaultyTransport, ForcedVerdictsShapeTheChannel) {
  LoopbackTransport inner;
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kDrop;
  plan.schedule[1] = FaultKind::kReorder;
  plan.schedule[3] = FaultKind::kDuplicate;
  plan.schedule[4] = FaultKind::kDelay;
  plan.delay_ticks = 3;
  FaultyTransport channel(inner, plan);
  Delivered sink;
  sink.attach(channel);

  channel.send(bytes_of({0}));  // dropped
  channel.send(bytes_of({1}));  // reordered: held one extra tick
  channel.send(bytes_of({2}));  // normal: leapfrogs datagram 1
  channel.send(bytes_of({3}));  // duplicated
  channel.send(bytes_of({4}));  // delayed delay_ticks extra
  EXPECT_EQ(channel.pending(), 5u);  // 1, 2, 3, 3', 4 in flight

  std::size_t ticks = 0;
  while (channel.pending() > 0 && ticks < 32) {
    channel.tick();
    ++ticks;
  }
  // Tick 1: {2, 3, 3'}; tick 2: {1}; tick 4: {4}.
  ASSERT_EQ(sink.datagrams.size(), 5u);
  EXPECT_EQ(sink.datagrams[0], bytes_of({2}));
  EXPECT_EQ(sink.datagrams[1], bytes_of({3}));
  EXPECT_EQ(sink.datagrams[2], bytes_of({3}));
  EXPECT_EQ(sink.datagrams[3], bytes_of({1}));
  EXPECT_EQ(sink.datagrams[4], bytes_of({4}));

  const TransportStats& stats = channel.stats();
  EXPECT_EQ(stats.sent, 5u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.reordered, 1u);
  EXPECT_EQ(stats.duplicated, 1u);
  EXPECT_EQ(stats.delayed, 1u);
  EXPECT_EQ(stats.delivered, 5u);  // the duplicate's copy counts
}

TEST(FaultyTransport, CorruptionFlipsBitsButDelivers) {
  LoopbackTransport inner;
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kCorrupt;
  FaultyTransport channel(inner, plan);
  Delivered sink;
  sink.attach(channel);

  const ByteStream original = bytes_of({10, 20, 30, 40});
  channel.send(original);
  channel.tick();
  ASSERT_EQ(sink.datagrams.size(), 1u);
  EXPECT_EQ(sink.datagrams[0].size(), original.size());
  EXPECT_NE(sink.datagrams[0], original);  // the flip is never a no-op
  EXPECT_EQ(channel.stats().corrupted, 1u);

  // Same plan, same index -> the same corrupted bytes (replay safety).
  LoopbackTransport inner2;
  FaultyTransport channel2(inner2, plan);
  Delivered sink2;
  sink2.attach(channel2);
  channel2.send(original);
  channel2.tick();
  ASSERT_EQ(sink2.datagrams.size(), 1u);
  EXPECT_EQ(sink2.datagrams[0], sink.datagrams[0]);
}

// --------------------------------------------------------- ReliableLink

ByteStream sample_message() {
  FleetClientState msg;
  msg.mac = MacAddress::from_index(9);
  msg.generation = 2;
  msg.source_site = 0;
  msg.dest_site = 1;
  msg.state.acl_allowed = true;
  return encode_client_state(msg);
}

struct LossyLink {
  LoopbackTransport inner;
  FaultyTransport channel;
  ReliableLink link;
  std::vector<ByteStream> imported;

  explicit LossyLink(FaultPlan plan, ReliableLinkConfig config = {})
      : channel(inner, std::move(plan)), link(channel, config) {
    link.set_import(
        [this](const ByteStream& m) { imported.push_back(m); });
  }
};

TEST(ReliableLink, DeliversFirstTryOnAQuietChannel) {
  LossyLink l{FaultPlan{}};
  const ByteStream msg = sample_message();
  const auto report = l.link.send_reliable(msg);
  EXPECT_TRUE(report.acked);
  EXPECT_EQ(report.attempts, 1u);
  ASSERT_EQ(l.imported.size(), 1u);
  EXPECT_EQ(l.imported[0], msg);
  EXPECT_EQ(l.link.stats().retransmits, 0u);
}

TEST(ReliableLink, RetriesThroughADroppedFrame) {
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kDrop;  // first data frame dies
  LossyLink l{plan};
  const ByteStream msg = sample_message();
  const auto report = l.link.send_reliable(msg);
  EXPECT_TRUE(report.acked);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_GE(report.ticks, ReliableLinkConfig{}.rto_ticks);  // waited out rto
  ASSERT_EQ(l.imported.size(), 1u);
  EXPECT_EQ(l.imported[0], msg);
  const ReliableLinkStats& stats = l.link.stats();
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST(ReliableLink, SuppressesDuplicateDeliveries) {
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kDuplicate;
  LossyLink l{plan};
  const auto report = l.link.send_reliable(sample_message());
  EXPECT_TRUE(report.acked);
  EXPECT_EQ(l.imported.size(), 1u);  // imported once, not twice
  EXPECT_EQ(l.link.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(l.link.stats().acks_sent, 2u);  // the duplicate is re-acked
}

TEST(ReliableLink, CorruptionIsDetectedAndRepairedByRetry) {
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kCorrupt;
  LossyLink l{plan};
  const ByteStream msg = sample_message();
  const auto report = l.link.send_reliable(msg);
  EXPECT_TRUE(report.acked);
  EXPECT_EQ(report.attempts, 2u);
  // The corrupted copy never reached the import callback; the clean
  // retransmission did, byte-exact.
  ASSERT_EQ(l.imported.size(), 1u);
  EXPECT_EQ(l.imported[0], msg);
  EXPECT_EQ(l.link.stats().corrupt_dropped, 1u);
}

TEST(ReliableLink, TimesOutWhenEveryAttemptDies) {
  FaultPlan plan;
  plan.drop = 1.0;
  ReliableLinkConfig config;
  config.max_attempts = 3;
  config.rto_ticks = 2;
  LossyLink l{plan, config};
  const auto report = l.link.send_reliable(sample_message());
  EXPECT_FALSE(report.acked);  // the coordinator's cold-start cue
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_TRUE(l.imported.empty());
  EXPECT_EQ(l.link.stats().timeouts, 1u);
  EXPECT_EQ(l.link.stats().retransmits, 2u);
}

TEST(ReliableLink, BackoffScheduleIsDeterministic) {
  FaultPlan plan;
  plan.drop = 1.0;
  auto run = [&] {
    LossyLink l{plan};
    return l.link.send_reliable(sample_message()).ticks;
  };
  const std::uint64_t first = run();
  EXPECT_EQ(first, run());  // same (plan, config) -> same virtual time
  EXPECT_GE(first, 8u + 16u + 32u + 64u + 64u);  // doubling, clamped
}

// The regression the cold-start path must survive: a datagram delayed
// past its whole retry budget arrives during a LATER send's pump. Its
// import fires late (the coordinator's generation guard is what makes
// that safe), its ack must be counted stale — and must not ack the
// in-flight send.
TEST(ReliableLink, StaleAckAfterColdStartIsIgnored) {
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kDelay;
  plan.delay_ticks = 6;  // beyond the single 4-tick attempt below
  ReliableLinkConfig config;
  config.max_attempts = 1;
  config.rto_ticks = 4;
  LossyLink l{plan, config};

  const ByteStream first = sample_message();
  const auto report1 = l.link.send_reliable(first);
  EXPECT_FALSE(report1.acked);  // timed out; coordinator cold-starts
  EXPECT_TRUE(l.imported.empty());

  FleetClientState second_msg;
  second_msg.mac = MacAddress::from_index(10);
  second_msg.generation = 3;
  const ByteStream second = encode_client_state(second_msg);
  const auto report2 = l.link.send_reliable(second);
  EXPECT_TRUE(report2.acked);

  // Drain the channel: the delayed first message surfaces late (during
  // the second pump or here, depending on the jitter draw) — exactly
  // once, after the second, without stealing the second send's ack —
  // and the straggler's own ack comes home to a link with nothing
  // pending and is ignored as stale.
  std::size_t guard = 0;
  while (l.channel.pending() > 0 && guard++ < 64) l.channel.tick();
  ASSERT_EQ(l.imported.size(), 2u);
  EXPECT_EQ(l.imported[0], second);
  EXPECT_EQ(l.imported[1], first);
  EXPECT_EQ(l.link.stats().stale_acks, 1u);
  EXPECT_EQ(l.link.stats().timeouts, 1u);
}

// A fleet hands off on every migration, so the receiver must not keep
// every seq it ever saw — only those a copy still in the channel could
// bring back, which duplicate suppression still needs.
TEST(ReliableLink, RemembersOnlySeqsThatCanStillArrive) {
  {
    LoopbackTransport channel;
    ReliableLink link(channel, ReliableLinkConfig{});
    std::size_t imported = 0;
    link.set_import([&](const ByteStream&) { ++imported; });
    const ByteStream msg = sample_message();
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE(link.send_reliable(msg).acked);
    }
    EXPECT_EQ(imported, 10000u);
    EXPECT_LE(link.remembered_seqs(), 1u);
  }

  // The first attempt is delayed past the retransmit that delivers it,
  // so it is still in the channel when both sends below return.
  FaultPlan plan;
  plan.schedule[0] = FaultKind::kDelay;
  plan.delay_ticks = 40;
  LossyLink l{plan};
  const ByteStream first = sample_message();
  ASSERT_TRUE(l.link.send_reliable(first).acked);
  ASSERT_GT(l.channel.pending(), 0u);
  EXPECT_EQ(l.link.remembered_seqs(), 1u);
  ASSERT_TRUE(l.link.send_reliable(first).acked);
  std::size_t guard = 0;
  while (l.channel.pending() > 0 && guard++ < 64) l.channel.tick();
  EXPECT_EQ(l.imported.size(), 2u);  // the late copy is suppressed
  EXPECT_EQ(l.link.stats().duplicates_suppressed, 1u);
  // Once a send leaves the channel empty, nothing is remembered.
  ASSERT_TRUE(l.link.send_reliable(first).acked);
  EXPECT_EQ(l.link.remembered_seqs(), 0u);
}

// ------------------------------------------- envelope total decode

TEST(TransportWire, DataAndAckRoundTrip) {
  FleetTransportData data;
  data.seq = 77;
  data.retransmit = true;
  data.inner = sample_message();
  const ByteStream wire = encode_transport_data(data);
  EXPECT_EQ(peek_type(wire), FleetWireType::kTransportData);
  const auto back = decode_transport_data(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 77u);
  EXPECT_TRUE(back->retransmit);
  EXPECT_EQ(back->inner, data.inner);

  FleetAck ack;
  ack.seq = 77;
  ack.duplicate = true;
  const ByteStream ack_wire = encode_ack(ack);
  EXPECT_EQ(peek_type(ack_wire), FleetWireType::kAck);
  const auto ack_back = decode_ack(ack_wire);
  ASSERT_TRUE(ack_back.has_value());
  EXPECT_EQ(ack_back->seq, 77u);
  EXPECT_TRUE(ack_back->duplicate);
}

TEST(TransportWire, TruncationAtEveryPrefixIsRejected) {
  FleetTransportData data;
  data.seq = 5;
  data.inner = sample_message();
  const ByteStream wire = encode_transport_data(data);
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    const ByteStream cut(wire.begin(), wire.begin() + keep);
    EXPECT_FALSE(decode_transport_data(cut).has_value()) << "keep=" << keep;
    EXPECT_FALSE(peek_type(cut).has_value()) << "keep=" << keep;
  }
  FleetAck ack;
  ack.seq = 5;
  const ByteStream ack_wire = encode_ack(ack);
  for (std::size_t keep = 0; keep < ack_wire.size(); ++keep) {
    const ByteStream cut(ack_wire.begin(), ack_wire.begin() + keep);
    EXPECT_FALSE(decode_ack(cut).has_value()) << "keep=" << keep;
    EXPECT_FALSE(peek_type(cut).has_value()) << "keep=" << keep;
  }
}

TEST(TransportWire, ReservedFlagsAndBadChecksumAreRejected) {
  // Reserved data flags with a CORRECT checksum: only the flag check
  // can reject it.
  ByteStream payload;
  put_u64(payload, 1);
  put_u32(payload, 0x2);  // bit1 is reserved
  put_u32(payload, 0);
  put_u32(payload, fnv1a32(payload.data(), payload.size()));
  EXPECT_FALSE(decode_transport_data(
                   raw_frame(FleetWireType::kTransportData, payload))
                   .has_value());

  // A single flipped bit anywhere fails the checksum.
  FleetTransportData data;
  data.seq = 1;
  data.inner = sample_message();
  ByteStream wire = encode_transport_data(data);
  wire[20] ^= 0x01;  // inside seq
  EXPECT_FALSE(decode_transport_data(wire).has_value());

  // Reserved ack flags.
  ByteStream ack_payload;
  put_u64(ack_payload, 1);
  put_u32(ack_payload, 0xFFFFFFFEu);
  EXPECT_FALSE(
      decode_ack(raw_frame(FleetWireType::kAck, ack_payload)).has_value());

  // Trailing garbage after a complete ack payload.
  ByteStream ack_long;
  put_u64(ack_long, 1);
  put_u32(ack_long, 0);
  put_u8(ack_long, 0x55);
  EXPECT_FALSE(
      decode_ack(raw_frame(FleetWireType::kAck, ack_long)).has_value());

  // An envelope whose inner_len disagrees with the payload.
  ByteStream lying;
  put_u64(lying, 1);
  put_u32(lying, 0);
  put_u32(lying, 3);  // claims 3 bytes of cargo
  put_u8(lying, 0xAB);  // ships 1
  put_u32(lying, fnv1a32(lying.data(), lying.size()));
  EXPECT_FALSE(decode_transport_data(
                   raw_frame(FleetWireType::kTransportData, lying))
                   .has_value());
}

// Fuzz parity with kClientState: the new envelope decoders face the
// same 200-mutant gauntlet the fleet wire format has always run —
// reject or decode, never crash (the CI sanitizer jobs make the "never
// crash" part load-bearing).
TEST(TransportWire, FuzzedEnvelopesNeverMisbehave) {
  FleetTransportData data;
  data.seq = 3;
  data.inner = sample_message();
  const ByteStream wire = encode_transport_data(data);
  FleetAck ack;
  ack.seq = 3;
  const ByteStream ack_wire = encode_ack(ack);
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const ByteStream m1 = mutate_capture(wire, 1000 + i, 8);
    const ByteStream m2 = mutate_capture(ack_wire, 2000 + i, 8);
    (void)peek_type(m1);
    (void)peek_type(m2);
    if (!decode_transport_data(m1).has_value()) ++rejected;
    if (!decode_ack(m2).has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0u);  // virtually all mutants must die in decode
}

// -------------------------------------- concurrent lossy handoffs

// The TSan surface for the control-plane lock: distinct MACs hand off
// concurrently through one lossy shared link while a monitor thread
// reads the fleet and channel counters and the home map. Convergence
// must not depend on the interleaving.
TEST(TransportFleet, ConcurrentHandoffsOfDistinctMacsConverge) {
  FleetConfig config;
  config.spec.site.num_aps = 2;
  config.spec.site.antennas = 4;
  config.spec.num_sites = 3;
  config.threads_per_site = 1;
  config.spoof_idle_frames = 0;
  const auto plan =
      FaultPlan::parse("seed=5,drop=0.15,dup=0.1,reorder=0.1,corrupt=0.1");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  FleetCoordinator fleet(config);

  const std::size_t kThreads = 8, kMoves = 4;
  // The monitor starts first, so it overlaps every handoff.
  std::atomic<bool> joined{false};
  std::uint64_t max_seen = 0;
  bool monotonic = true;
  std::thread monitor([&] {
    while (!joined.load(std::memory_order_acquire)) {
      const std::uint64_t seen = fleet.stats().associations;
      monotonic = monotonic && seen >= max_seen;
      max_seen = std::max(max_seen, seen);
      (void)fleet.transport_stats();
      (void)fleet.home_site(MacAddress::from_index(1));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> drivers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&fleet, t] {
      const MacAddress mac =
          MacAddress::from_index(static_cast<std::uint32_t>(t + 1));
      for (std::size_t m = 0; m < kMoves; ++m) {
        fleet.notify_association(mac,
                                 static_cast<std::uint32_t>((t + m) % 3));
      }
    });
  }
  for (auto& d : drivers) d.join();
  joined.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_TRUE(monotonic);
  EXPECT_LE(max_seen, kThreads * kMoves);
  fleet.close();

  for (std::size_t t = 0; t < kThreads; ++t) {
    const MacAddress mac =
        MacAddress::from_index(static_cast<std::uint32_t>(t + 1));
    EXPECT_EQ(fleet.home_site(mac),
              std::optional<std::uint32_t>((t + kMoves - 1) % 3));
    EXPECT_EQ(fleet.generation_of(mac),
              std::optional<std::uint64_t>(kMoves));
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.associations, kThreads * kMoves);
  EXPECT_EQ(stats.handoffs_malformed, 0u);
  EXPECT_EQ(stats.handoffs_bad_site, 0u);
  EXPECT_EQ(stats.cold_starts, stats.timeouts);
  EXPECT_GE(stats.handoffs_applied + stats.cold_starts,
            kThreads * (kMoves - 1));
  EXPECT_GT(stats.home_map_bytes, 0u);
  EXPECT_EQ(stats.home_clients, kThreads);
}

}  // namespace
}  // namespace sa
