// capture_tool: inspect, validate, diff, corrupt and replay SACP
// captures (sa/capture). The replay command is the record/replay
// contract made executable: rebuild the recorded deployment (or fleet)
// from the capture header, feed the recorded records back through it at
// any thread count, and require every decision track to come out
// byte-identical to the recorded one. Every SACP version replays through
// the one driver, replay_fleet_capture (sa/fleet/replay.hpp); a
// version-1 capture is a 1-site fleet. The truncate/mutate/fuzz commands
// are the adversarial side: they produce damaged captures and assert the
// parser and the replay path reject them cleanly instead of crashing —
// run the fuzz command under ASan for the real guarantee.
//
// Usage:
//   capture_tool inspect  FILE
//   capture_tool validate FILE...
//   capture_tool diff     A B
//   capture_tool truncate IN OUT BYTES     # keep the first BYTES bytes
//   capture_tool mutate   IN OUT SEED [OPS]
//   capture_tool mutate-nan IN OUT [VALUE] # poison the first IQ sample
//                         # (VALUE defaults to a quiet NaN)
//   capture_tool replay   FILE [--threads N] [--expect-reject]
//                         # rebuild the fleet from the header (a version-1
//                         # capture is one site), re-drive chunks,
//                         # handoffs and drains in file order and
//                         # byte-compare every site's decision track;
//                         # --expect-reject passes only if the engine
//                         # refuses a recorded chunk at submit
//   capture_tool fuzz     FILE [--seed S] [--count N] [--ops K]
//                              [--no-replay] [--policies CSV]
//                              [--max-tracked N]
//                         # mutants replay through the same driver (a
//                         # mutant whose header no longer parses under
//                         # the original header); --policies /
//                         # --max-tracked (num_shards..kMaxTrackedMacs)
//                         # are written into the replayed header as
//                         # sa.policies / sa.max_tracked, replacing
//                         # every site's policy chain / tracked-MAC bound
//   capture_tool fuzz-wire [--seed S] [--count N] [--ops K]
//                         # blind byte-flips of every FleetWire frame
//                         # kind (kClientState, kTransportData, kAck)
//                         # PLUS structure-aware hostiles: valid SAFW
//                         # framing around truncated nested SAT1
//                         # blocks, max-length tracker claims, bad
//                         # checksums, reserved flags, and inner
//                         # messages truncated at every prefix — decode
//                         # must reject cleanly, never UB
//   capture_tool chaos    [--sites N] [--clients C] [--moves M]
//                         [--seeds CSV] [--plan SPEC]... [--drivers D]
//                         # in-process fault-matrix: roam C clients
//                         # across N sites under each (plan, seed) cell
//                         # and require convergence — every client ends
//                         # homed at its final site with an exact
//                         # generation, no malformed import accepted.
//                         # --plan is repeatable ("none" = perfect
//                         # channel); --drivers D issues handoffs from
//                         # D concurrent threads (distinct MACs).
// Exit status: 0 = success / equal / all replays clean; 1 = mismatch or
// invalid input; 2 = usage.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sa/capture/reader.hpp"
#include "sa/fleet/coordinator.hpp"
#include "sa/fleet/replay.hpp"
#include "sa/fleet/transport.hpp"
#include "sa/fleet/wire.hpp"
#include "sa/signature/serialize.hpp"
#include "sa/sim/deployment.hpp"

using namespace sa;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: capture_tool inspect  FILE\n"
               "       capture_tool validate FILE...\n"
               "       capture_tool diff     A B\n"
               "       capture_tool truncate IN OUT BYTES\n"
               "       capture_tool mutate   IN OUT SEED [OPS]\n"
               "       capture_tool mutate-nan IN OUT [VALUE]\n"
               "       capture_tool replay   FILE [--threads N] [--expect-reject]\n"
               "       capture_tool fuzz     FILE [--seed S] [--count N]\n"
               "                                  [--ops K] [--no-replay]\n"
               "                                  [--policies CSV]\n"
               "                                  [--max-tracked N]\n"
               "       capture_tool fuzz-wire [--seed S] [--count N] [--ops K]\n"
               "       capture_tool chaos    [--sites N] [--clients C]\n"
               "                             [--moves M] [--seeds CSV]\n"
               "                             [--plan SPEC]... [--drivers D]\n");
  std::exit(2);
}

ByteStream read_file_or_die(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "capture_tool: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  ByteStream data;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

void write_file_or_die(const std::string& path, const ByteStream& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    std::fprintf(stderr, "capture_tool: cannot write '%s'\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    std::exit(1);
  }
  std::fclose(f);
}

int cmd_inspect(const std::string& path) {
  CaptureReader reader(read_file_or_die(path));
  if (!reader.header()) {
    std::fprintf(stderr, "%s: malformed SACP header\n", path.c_str());
    return 1;
  }
  const CaptureHeader& h = *reader.header();
  std::printf("%s: SACP v%u, %u AP(s), seed %llu\n", path.c_str(), h.version,
              h.num_aps, static_cast<unsigned long long>(h.seed));
  for (const auto& [key, val] : h.metadata) {
    std::printf("  %-16s %s\n", key.c_str(), val.c_str());
  }

  std::vector<std::uint64_t> chunks_per_ap(h.num_aps, 0);
  std::vector<std::uint64_t> samples_per_ap(h.num_aps, 0);
  std::uint64_t decisions = 0, accepted = 0, drains = 0, assocs = 0;
  std::uint64_t transports = 0, cold_starts = 0, transport_attempts = 0;
  std::map<std::uint32_t, std::uint64_t> decisions_per_site;
  std::optional<EndRecord> end;
  for (;;) {
    auto rec = reader.next();
    if (!rec) break;
    switch (rec->type) {
      case RecordType::kChunk:
        if (rec->chunk->ap < h.num_aps) {
          ++chunks_per_ap[rec->chunk->ap];
          samples_per_ap[rec->chunk->ap] += rec->chunk->samples.cols();
        }
        break;
      case RecordType::kDecision:
        ++decisions;
        if (rec->decision->accepted) ++accepted;
        break;
      case RecordType::kSiteDecision:
        ++decisions;
        ++decisions_per_site[rec->site_decision->site];
        if (rec->site_decision->decision.accepted) ++accepted;
        break;
      case RecordType::kAssoc: ++assocs; break;
      case RecordType::kTransport:
        ++transports;
        if (rec->transport->outcome ==
            static_cast<std::uint32_t>(HandoffOutcome::kColdStart)) {
          ++cold_starts;
        }
        transport_attempts += rec->transport->attempts;
        break;
      case RecordType::kDrain: ++drains; break;
      case RecordType::kEnd: end = rec->end; break;
    }
  }
  for (std::uint32_t ap = 0; ap < h.num_aps; ++ap) {
    std::printf("  ap %u: %llu chunk(s), %llu samples\n", ap,
                static_cast<unsigned long long>(chunks_per_ap[ap]),
                static_cast<unsigned long long>(samples_per_ap[ap]));
  }
  std::printf("  decisions: %llu (%llu accepted, %llu dropped)\n",
              static_cast<unsigned long long>(decisions),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(decisions - accepted));
  for (const auto& [site, n] : decisions_per_site) {
    std::printf("  site %u: %llu decision(s)\n", site,
                static_cast<unsigned long long>(n));
  }
  if (assocs > 0) {
    std::printf("  assocs: %llu\n", static_cast<unsigned long long>(assocs));
  }
  if (transports > 0) {
    std::printf("  transports: %llu (%llu cold start(s), %llu attempt(s))\n",
                static_cast<unsigned long long>(transports),
                static_cast<unsigned long long>(cold_starts),
                static_cast<unsigned long long>(transport_attempts));
  }
  std::printf("  drains: %llu\n", static_cast<unsigned long long>(drains));
  if (!reader.error().empty()) {
    std::printf("  PARSE ERROR: %s\n", reader.error().c_str());
    return 1;
  }
  if (!end) {
    std::printf("  TRUNCATED: no end record\n");
    return 1;
  }
  std::printf("  end record: %llu chunks, %llu decisions, %llu drains\n",
              static_cast<unsigned long long>(end->chunks),
              static_cast<unsigned long long>(end->decisions),
              static_cast<unsigned long long>(end->drains));
  return 0;
}

int cmd_validate(const std::vector<std::string>& paths) {
  int status = 0;
  for (const auto& path : paths) {
    CaptureReader reader(read_file_or_die(path));
    const ValidationReport report = reader.validate();
    if (report.ok) {
      std::printf(
          "%s: OK (%llu chunks, %llu decisions, %llu drains", path.c_str(),
          static_cast<unsigned long long>(report.chunks),
          static_cast<unsigned long long>(report.decisions),
          static_cast<unsigned long long>(report.drains));
      if (report.transports > 0) {
        std::printf(", %llu transports",
                    static_cast<unsigned long long>(report.transports));
      }
      std::printf(")\n");
    } else {
      std::printf("%s: INVALID at record %zu: %s\n", path.c_str(),
                  report.record_index, report.error.c_str());
      status = 1;
    }
  }
  return status;
}

int cmd_diff(const std::string& a, const std::string& b) {
  CaptureReader ra(read_file_or_die(a));
  CaptureReader rb(read_file_or_die(b));
  const CaptureDiff d = diff_captures(ra, rb);
  if (d.equal) {
    std::printf("captures are logically identical\n");
    return 0;
  }
  std::printf("captures differ: %s\n", d.detail.c_str());
  return 1;
}

int cmd_truncate(const std::string& in, const std::string& out,
                 std::size_t bytes) {
  ByteStream data = read_file_or_die(in);
  if (bytes < data.size()) data.resize(bytes);
  write_file_or_die(out, data);
  std::printf("%s: kept %zu byte(s) -> %s\n", in.c_str(), data.size(),
              out.c_str());
  return 0;
}

int cmd_mutate(const std::string& in, const std::string& out,
               std::uint64_t seed, std::size_t ops) {
  const ByteStream data = read_file_or_die(in);
  const ByteStream mutated = mutate_capture(data, seed, ops);
  write_file_or_die(out, mutated);
  std::printf("%s: %zu mutation op(s), seed %llu -> %s (%zu bytes)\n",
              in.c_str(), ops, static_cast<unsigned long long>(seed),
              out.c_str(), mutated.size());
  return 0;
}

/// Poison the real part of the first IQ sample of the first chunk
/// record with `value` (a quiet NaN unless given), leaving the rest of
/// the capture untouched. SACP carries no checksums, so the result still
/// parses and validates — only the engine's submit()-time range gate
/// can catch it. This is the reproducible recipe behind
/// corpus/rejects/nan_iq.sacp and corpus/rejects/huge_iq.sacp.
int cmd_mutate_nan(const std::string& in, const std::string& out,
                   double value) {
  ByteStream data = read_file_or_die(in);
  auto u32_at = [&](std::size_t off) -> std::optional<std::uint32_t> {
    if (off + 4 > data.size()) return std::nullopt;
    return static_cast<std::uint32_t>(data[off]) |
           (static_cast<std::uint32_t>(data[off + 1]) << 8) |
           (static_cast<std::uint32_t>(data[off + 2]) << 16) |
           (static_cast<std::uint32_t>(data[off + 3]) << 24);
  };
  // Header: magic u32 | version u32 | payload_len u32 | payload.
  const auto magic = u32_at(0);
  const auto header_len = u32_at(8);
  if (!magic || *magic != kSacpMagic || !header_len) {
    std::fprintf(stderr, "%s: malformed SACP header\n", in.c_str());
    return 1;
  }
  std::size_t off = 12 + *header_len;
  // Records: payload_len u32 | type u32 | payload. A chunk payload is
  // ap u32 | round u64 | base u64 | rows u32 | cols u32 | f64 re/im...
  // so the first sample's real part sits at payload offset 28.
  while (off + 8 <= data.size()) {
    const std::uint32_t len = *u32_at(off);
    const std::uint32_t type = *u32_at(off + 4);
    const std::size_t payload = off + 8;
    if (payload + len > data.size()) break;
    if (type == static_cast<std::uint32_t>(RecordType::kChunk) &&
        len >= 28 + sizeof(double)) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
      for (std::size_t i = 0; i < 8; ++i) {
        data[payload + 28 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
      }
      write_file_or_die(out, data);
      std::printf("%s: first IQ sample -> %g at byte %zu -> %s\n", in.c_str(),
                  value, payload + 28, out.c_str());
      return 0;
    }
    off = payload + len;
  }
  std::fprintf(stderr, "%s: no chunk record with samples\n", in.c_str());
  return 1;
}

int cmd_replay(const std::string& path, std::size_t threads,
               bool expect_reject) {
  const FleetReplayResult result = replay_fleet_capture(path, threads);
  if (expect_reject) {
    // Inverted contract for hostile captures (e.g. corpus/rejects/):
    // success means the engine's ingress validation refused the stream.
    if (result.refused) {
      std::printf("%s: rejected as expected: %s\n", path.c_str(),
                  result.error.c_str());
      return 0;
    }
    std::printf("%s: NOT rejected (%s)\n", path.c_str(),
                result.ok ? "replayed cleanly" : result.error.c_str());
    return 1;
  }
  if (!result.ok) {
    std::printf("%s: replay failed: %s\n", path.c_str(),
                result.error.c_str());
    return 1;
  }
  std::printf(
      "%s: %zu site(s), %llu chunk(s), %llu handoff(s), %llu drain(s), "
      "%llu decision(s) byte-identical\n",
      path.c_str(), result.sites,
      static_cast<unsigned long long>(result.chunks_submitted),
      static_cast<unsigned long long>(result.assocs_replayed),
      static_cast<unsigned long long>(result.drains_run),
      static_cast<unsigned long long>(result.decisions_checked));
  return 0;
}

/// A raw SAFW frame with a caller-controlled payload — the hostile
/// framing builder the real encoders refuse to be.
ByteStream raw_frame(std::uint32_t type, const ByteStream& payload) {
  ByteStream out;
  put_u32(out, kFleetWireMagic);
  put_u32(out, kFleetWireVersion);
  put_u32(out, type);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// A kTransportData envelope with a valid checksum around arbitrary
/// cargo: the framing is flawless, so only the nested decode can save
/// the receiver.
ByteStream hostile_envelope(std::uint64_t seq, std::uint32_t flags,
                            const ByteStream& inner) {
  ByteStream payload;
  put_u64(payload, seq);
  put_u32(payload, flags);
  put_u32(payload, static_cast<std::uint32_t>(inner.size()));
  payload.insert(payload.end(), inner.begin(), inner.end());
  put_u32(payload, fnv1a32(payload.data(), payload.size()));
  return raw_frame(static_cast<std::uint32_t>(FleetWireType::kTransportData),
                   payload);
}

/// FleetWire decode fuzz, two regimes over every frame kind:
///
///  1. Blind byte-flips: mutate well-formed kClientState /
///     kTransportData / kAck messages and require each decoder (and
///     peek_type) to return nullopt or a valid message, never UB.
///  2. Structure-aware hostiles: frames whose OUTER framing is
///     flawless — valid magic/version/type/length, correct envelope
///     checksum — but whose interior is malicious: a nested SAT1
///     tracker block truncated mid-structure, a tracker length field
///     claiming the 64 MiB maximum over a tiny buffer, the inner
///     message truncated at every prefix, reserved flag bits, a
///     max-length rate residue with trailing garbage. These bypass
///     every cheap outer check, so they pin down the deep validation;
///     each one MUST be rejected, and an unexpected accept fails the
///     run.
int cmd_fuzz_wire(std::uint64_t seed, std::size_t count, std::size_t ops) {
  FleetClientState msg;
  msg.mac = MacAddress::from_index(42);
  msg.generation = 7;
  msg.source_site = 1;
  msg.dest_site = 2;
  TrackerSnapshot snap;
  snap.trained = true;
  snap.training_seen = 12;
  snap.observations = 40;
  snap.mismatches = 3;
  TrackerSnapshot::Band band;
  for (int i = 0; i < 64; ++i) {
    band.angles_deg.push_back(-180.0 + 360.0 * i / 64.0);
    band.values.push_back(0.25 + 0.01 * i);
  }
  band.wraps = true;
  snap.bands.push_back(band);
  msg.state.tracker = std::move(snap);
  msg.state.acl_allowed = true;
  msg.state.rate_in_window = 5;
  const ByteStream original = encode_client_state(msg);
  FleetTransportData data_msg;
  data_msg.seq = 9;
  data_msg.retransmit = true;
  data_msg.inner = original;
  const ByteStream original_data = encode_transport_data(data_msg);
  FleetAck ack_msg;
  ack_msg.seq = 9;
  ack_msg.duplicate = true;
  const ByteStream original_ack = encode_ack(ack_msg);
  if (!decode_client_state(original) ||
      !decode_transport_data(original_data) || !decode_ack(original_ack)) {
    std::printf("fuzz-wire: round-trip of a seed message failed\n");
    return 1;
  }

  // Regime 1: blind byte-flips of each frame kind.
  std::size_t decoded = 0, rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ByteStream m1 = mutate_capture(original, seed + i, ops);
    const ByteStream m2 = mutate_capture(original_data, seed + i, ops);
    const ByteStream m3 = mutate_capture(original_ack, seed + i, ops);
    (void)peek_type(m1);
    (void)peek_type(m2);
    (void)peek_type(m3);
    decoded += decode_client_state(m1).has_value();
    decoded += decode_transport_data(m2).has_value();
    decoded += decode_ack(m3).has_value();
    rejected += !decode_client_state(m1).has_value();
    rejected += !decode_transport_data(m2).has_value();
    rejected += !decode_ack(m3).has_value();
  }

  // Regime 2: structure-aware hostiles — each must be rejected.
  std::vector<std::pair<std::string, bool>> hostiles;  // (name, rejected)
  auto expect_reject_state = [&](const std::string& name,
                                 const ByteStream& bytes) {
    hostiles.emplace_back(name, !decode_client_state(bytes).has_value());
  };
  auto expect_reject_data = [&](const std::string& name,
                                const ByteStream& bytes) {
    hostiles.emplace_back(name, !decode_transport_data(bytes).has_value());
  };
  auto expect_reject_ack = [&](const std::string& name,
                               const ByteStream& bytes) {
    hostiles.emplace_back(name, !decode_ack(bytes).has_value());
  };

  const std::uint32_t kStateType =
      static_cast<std::uint32_t>(FleetWireType::kClientState);
  const std::uint32_t kAckType =
      static_cast<std::uint32_t>(FleetWireType::kAck);
  auto state_prefix = [&](std::uint32_t flags) {
    ByteStream p;
    for (std::uint8_t octet : msg.mac.octets()) put_u8(p, octet);
    put_u64(p, msg.generation);
    put_u32(p, msg.source_site);
    put_u32(p, msg.dest_site);
    put_u32(p, flags);
    return p;
  };

  // Truncated nested SAT1 block: the outer tracker_len is honest about
  // the truncation, so only the snapshot parser can notice.
  const ByteStream sat1 = serialize_tracker_snapshot(*msg.state.tracker);
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, sat1.size() / 2,
                           sat1.size() - 1}) {
    ByteStream p = state_prefix(/*flags=*/1u << 0);
    put_u32(p, static_cast<std::uint32_t>(keep));
    p.insert(p.end(), sat1.begin(), sat1.begin() + keep);
    expect_reject_state("sat1-truncated@" + std::to_string(keep),
                        raw_frame(kStateType, p));
  }
  // Max-length tracker claim over a near-empty buffer: the 64 MiB
  // bound itself is in range, so the remaining-bytes check is the only
  // thing standing between the length field and a giant allocation.
  {
    ByteStream p = state_prefix(/*flags=*/1u << 0);
    put_u32(p, 1u << 26);
    put_u8(p, 0xAA);
    expect_reject_state("sat1-64MiB-claim", raw_frame(kStateType, p));
  }
  // Max-length residue: a valid rate field followed by trailing bytes
  // up to the frame's own length limit — total decode demands the
  // payload tile exactly.
  {
    ByteStream p = state_prefix(/*flags=*/1u << 3);
    put_u32(p, 0xFFFFFFFFu);
    for (int i = 0; i < 4096; ++i) put_u8(p, 0x55);
    expect_reject_state("rate-residue-trailing", raw_frame(kStateType, p));
  }
  // Reserved client-state flag bits.
  expect_reject_state("state-reserved-flags",
                      raw_frame(kStateType, state_prefix(0xFFFFFFF0u)));
  // Inner message truncated at every prefix, shipped inside an
  // envelope whose checksum is CORRECT for the truncated cargo: the
  // transport layer accepts it, the nested client-state decode must
  // not.
  std::size_t inner_truncations = 0;
  for (std::size_t keep = 0; keep < original.size(); ++keep) {
    const ByteStream inner(original.begin(), original.begin() + keep);
    const ByteStream env = hostile_envelope(1, 0, inner);
    const auto envelope = decode_transport_data(env);
    if (!envelope) {
      hostiles.emplace_back("envelope-of-prefix@" + std::to_string(keep),
                            false);  // envelope itself must stay valid
      continue;
    }
    if (decode_client_state(envelope->inner)) {
      hostiles.emplace_back("inner-prefix@" + std::to_string(keep), false);
    }
    ++inner_truncations;
  }
  // Transport envelope hostiles: reserved flags, checksum off by one
  // bit, inner_len disagreeing with the payload, ack truncated at
  // every prefix and with reserved flags.
  expect_reject_data("envelope-reserved-flags",
                     hostile_envelope(1, 0xFFFFFFFEu, original));
  {
    ByteStream env = hostile_envelope(1, 0, original);
    env.back() ^= 0x01;
    expect_reject_data("envelope-bad-checksum", env);
  }
  {
    ByteStream p;
    put_u64(p, 1);
    put_u32(p, 0);
    put_u32(p, static_cast<std::uint32_t>(original.size() + 1));  // lies
    p.insert(p.end(), original.begin(), original.end());
    put_u32(p, fnv1a32(p.data(), p.size()));
    expect_reject_data(
        "envelope-inner-len-mismatch",
        raw_frame(static_cast<std::uint32_t>(FleetWireType::kTransportData),
                  p));
  }
  for (std::size_t keep = 0; keep < original_ack.size(); ++keep) {
    expect_reject_ack(
        "ack-prefix@" + std::to_string(keep),
        ByteStream(original_ack.begin(), original_ack.begin() + keep));
  }
  {
    ByteStream p;
    put_u64(p, 9);
    put_u32(p, 0xFFFFFFFEu);
    expect_reject_ack("ack-reserved-flags", raw_frame(kAckType, p));
  }

  std::size_t hostile_accepted = 0;
  for (const auto& [name, behaved] : hostiles) {
    if (!behaved) {
      std::printf("fuzz-wire: hostile case FAILED: %s\n", name.c_str());
      ++hostile_accepted;
    }
  }
  std::printf(
      "fleet-wire: %zu blind mutant(s) x3 kinds, seed %llu, %zu op(s) each: "
      "%zu still decodable, %zu rejected; %zu structure-aware hostile(s) "
      "(%zu inner truncations) — %zu wrongly accepted, no crashes\n",
      count, static_cast<unsigned long long>(seed), ops, decoded, rejected,
      hostiles.size() + inner_truncations, inner_truncations,
      hostile_accepted);
  return hostile_accepted == 0 ? 0 : 1;
}

/// Set header metadata `key` to `value`, replacing an existing entry.
void set_meta(CaptureHeader& header, const std::string& key,
              std::string value) {
  for (auto& [k, v] : header.metadata) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  header.metadata.emplace_back(key, std::move(value));
}

/// What the fuzz loop replays for one mutant. A mutant whose header
/// still parses replays under it; one whose header no longer parses
/// takes the original header (its records start where the original's
/// did), so its records still reach the dataplane. `policies` /
/// `max_tracked`, when given, are written into that header as
/// "sa.policies" / "sa.max_tracked", which replay applies to every site.
ByteStream fuzz_replay_input(const ByteStream& mutant,
                             const std::optional<CaptureHeader>& own,
                             const std::optional<CaptureHeader>& original,
                             const std::string& policies,
                             std::size_t max_tracked) {
  const bool rewrite = !policies.empty() || max_tracked > 0;
  std::optional<CaptureHeader> header = own ? own : original;
  if (!header || (own && !rewrite)) return mutant;
  // A parsed header re-encodes to exactly the bytes it was parsed from.
  const std::size_t body = encode_header(*header).size();
  if (!policies.empty()) set_meta(*header, "sa.policies", policies);
  if (max_tracked > 0) {
    set_meta(*header, "sa.max_tracked", std::to_string(max_tracked));
  }
  ByteStream out = encode_header(*header);
  if (body < mutant.size()) {
    out.insert(out.end(), mutant.begin() + static_cast<long>(body),
               mutant.end());
  }
  return out;
}

/// Capture fuzz: every mutant goes through the parser and the full
/// replay path, which must come back with ok/error — the loop only fails
/// by crashing (run it under ASan/UBSan for the real guarantee).
/// `policies` / `max_tracked` replace every site's policy chain and
/// tracked-MAC bound, e.g. the full acl,fence,spoof,rate stack with a
/// bound small enough that the compact per-MAC state is forced to evict
/// under fire.
int cmd_fuzz(const std::string& path, std::uint64_t seed, std::size_t count,
             std::size_t ops, bool with_replay, const std::string& policies,
             std::size_t max_tracked) {
  const ByteStream original = read_file_or_die(path);
  const std::optional<CaptureHeader> original_header =
      CaptureReader{ByteStream(original)}.header();
  std::size_t parsed_ok = 0, rejected = 0, replays = 0, replay_errors = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ByteStream mutant = mutate_capture(original, seed + i, ops);
    CaptureReader reader{ByteStream(mutant)};
    if (reader.validate().ok) {
      ++parsed_ok;
    } else {
      ++rejected;
    }
    if (!with_replay) continue;
    const FleetReplayResult result = replay_fleet_capture(
        fuzz_replay_input(mutant, reader.header(), original_header, policies,
                          max_tracked),
        /*threads_per_site=*/1);
    if (result.ok) {
      ++replays;
    } else {
      ++replay_errors;
    }
  }
  std::printf(
      "%s: %zu mutant(s), seed %llu, %zu op(s) each: %zu still valid, "
      "%zu rejected by the parser",
      path.c_str(), count, static_cast<unsigned long long>(seed), ops,
      parsed_ok, rejected);
  if (with_replay) {
    std::printf(", %zu replayed, %zu rejected in replay", replays,
                replay_errors);
  }
  std::printf(" — no crashes\n");
  return 0;
}

/// One cell of the chaos matrix: roam `clients` walkers across `sites`
/// under `plan`, then require convergence. Every client visits site
/// (c + m) % sites on move m, so consecutive moves always migrate; the
/// end state is fully determined no matter what the channel did:
///   home(c)       == (c + moves - 1) % sites
///   generation(c) == moves            (first assoc = 1, +1 per move)
/// plus: no malformed or bad-site import ever accepted, cold starts
/// only from exhausted retry loops (cold_starts == timeouts), and
/// every migration accounted for as delivered or cold-started. With
/// `drivers` > 1 the handoffs are issued from that many concurrent
/// threads (distinct MACs race, same-MAC order is preserved), which is
/// the configuration the CI sanitizer jobs run.
bool chaos_cell(const FaultPlan& plan, std::size_t sites, std::size_t clients,
                std::size_t moves, std::size_t drivers) {
  FleetConfig config;
  config.spec.site.num_aps = 2;
  config.spec.site.antennas = 4;
  config.spec.num_sites = sites;
  config.threads_per_site = 1;
  config.spoof_idle_frames = 0;
  config.fault_plan = plan;
  FleetCoordinator fleet(config);

  auto mac_of = [](std::size_t c) {
    return MacAddress::from_index(static_cast<std::uint32_t>(c + 1));
  };
  auto drive = [&](std::size_t driver) {
    // Each driver owns clients c ≡ driver (mod drivers) and interleaves
    // their moves round-robin, keeping per-MAC order.
    for (std::size_t m = 0; m < moves; ++m) {
      for (std::size_t c = driver; c < clients; c += drivers) {
        fleet.notify_association(
            mac_of(c), static_cast<std::uint32_t>((c + m) % sites));
      }
    }
  };
  if (drivers <= 1) {
    drive(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < drivers; ++d) {
      threads.emplace_back(drive, d);
    }
    for (auto& t : threads) t.join();
  }
  fleet.close();

  bool ok = true;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto home = fleet.home_site(mac_of(c));
    const auto gen = fleet.generation_of(mac_of(c));
    const std::uint32_t want =
        static_cast<std::uint32_t>((c + moves - 1) % sites);
    if (home != std::optional<std::uint32_t>(want)) {
      std::printf("    FAIL: client %zu homed at %s, want site %u\n", c,
                  home ? std::to_string(*home).c_str() : "nowhere", want);
      ok = false;
    }
    if (gen != std::optional<std::uint64_t>(moves)) {
      std::printf("    FAIL: client %zu at generation %llu, want %zu\n", c,
                  gen ? static_cast<unsigned long long>(*gen) : 0ull, moves);
      ok = false;
    }
  }
  const FleetStats stats = fleet.stats();
  const std::uint64_t migrations =
      static_cast<std::uint64_t>(clients) * (moves - 1);
  if (stats.handoffs_malformed != 0 || stats.handoffs_bad_site != 0) {
    std::printf("    FAIL: %llu malformed / %llu bad-site imports accepted "
                "into the stats\n",
                static_cast<unsigned long long>(stats.handoffs_malformed),
                static_cast<unsigned long long>(stats.handoffs_bad_site));
    ok = false;
  }
  if (stats.cold_starts != stats.timeouts) {
    std::printf("    FAIL: %llu cold starts but %llu timeouts\n",
                static_cast<unsigned long long>(stats.cold_starts),
                static_cast<unsigned long long>(stats.timeouts));
    ok = false;
  }
  // Every migration ends delivered or cold-started. (The sum can exceed
  // the migration count: a delivered export whose acks all died counts
  // both ways, and a post-cold-start straggler lands in handoffs_stale.)
  if (stats.handoffs_applied + stats.cold_starts < migrations) {
    std::printf("    FAIL: %llu applied + %llu cold starts < %llu "
                "migrations\n",
                static_cast<unsigned long long>(stats.handoffs_applied),
                static_cast<unsigned long long>(stats.cold_starts),
                static_cast<unsigned long long>(migrations));
    ok = false;
  }
  const TransportStats tstats = fleet.transport_stats();
  std::printf(
      "    %llu migration(s): %llu applied, %llu cold start(s), %llu "
      "retries, %llu stale, %llu dup-suppressed, %llu corrupt-dropped | "
      "channel: %llu sent, %llu dropped, %llu dup, %llu reordered, %llu "
      "delayed, %llu corrupted %s\n",
      static_cast<unsigned long long>(migrations),
      static_cast<unsigned long long>(stats.handoffs_applied),
      static_cast<unsigned long long>(stats.cold_starts),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.handoffs_stale),
      static_cast<unsigned long long>(stats.duplicates_suppressed),
      static_cast<unsigned long long>(stats.corrupt_dropped),
      static_cast<unsigned long long>(tstats.sent),
      static_cast<unsigned long long>(tstats.dropped),
      static_cast<unsigned long long>(tstats.duplicated),
      static_cast<unsigned long long>(tstats.reordered),
      static_cast<unsigned long long>(tstats.delayed),
      static_cast<unsigned long long>(tstats.corrupted),
      ok ? "-> converged" : "-> FAILED");
  return ok;
}

int cmd_chaos(std::size_t sites, std::size_t clients, std::size_t moves,
              const std::vector<std::uint64_t>& seeds,
              std::vector<std::string> plans, std::size_t drivers) {
  if (sites < 2 || clients < 1 || moves < 2 || drivers < 1) {
    std::fprintf(stderr,
                 "capture_tool: chaos needs >=2 sites, >=1 client, >=2 "
                 "moves, >=1 driver\n");
    return 2;
  }
  if (plans.empty()) {
    // The default matrix: a perfect-channel baseline, each fault kind
    // in isolation, the everything-at-once mix, and a near-dead link
    // that forces the cold-start path.
    plans = {"none",
             "drop=0.05",
             "drop=0.25",
             "dup=0.2",
             "reorder=0.2",
             "corrupt=0.2",
             "drop=0.1,dup=0.1,reorder=0.1,corrupt=0.1",
             "drop=0.9"};
  }
  std::size_t cells = 0, failed = 0;
  for (const auto& text : plans) {
    FaultPlan plan;
    if (text != "none" && !text.empty()) {
      const auto parsed = FaultPlan::parse(text);
      if (!parsed) {
        std::fprintf(stderr, "capture_tool: bad fault plan '%s'\n",
                     text.c_str());
        return 2;
      }
      plan = *parsed;
    }
    for (const std::uint64_t seed : seeds) {
      plan.seed = seed;
      std::printf("  plan=%s seed=%llu:\n",
                  text.empty() ? "none" : text.c_str(),
                  static_cast<unsigned long long>(seed));
      ++cells;
      if (!chaos_cell(plan, sites, clients, moves, drivers)) ++failed;
    }
  }
  std::printf("chaos: %zu cell(s), %zu failed\n", cells, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (cmd == "inspect" && args.size() == 1) return cmd_inspect(args[0]);
  if (cmd == "validate" && !args.empty()) return cmd_validate(args);
  if (cmd == "diff" && args.size() == 2) return cmd_diff(args[0], args[1]);
  if (cmd == "truncate" && args.size() == 3) {
    return cmd_truncate(args[0], args[1],
                        std::strtoull(args[2].c_str(), nullptr, 10));
  }
  if (cmd == "mutate" && (args.size() == 3 || args.size() == 4)) {
    const std::uint64_t seed = std::strtoull(args[2].c_str(), nullptr, 10);
    const std::size_t ops =
        args.size() == 4 ? std::strtoull(args[3].c_str(), nullptr, 10) : 8;
    return cmd_mutate(args[0], args[1], seed, ops);
  }
  if (cmd == "mutate-nan" && (args.size() == 2 || args.size() == 3)) {
    double value = std::numeric_limits<double>::quiet_NaN();
    if (args.size() == 3) {
      char* end = nullptr;
      value = std::strtod(args[2].c_str(), &end);
      if (end == args[2].c_str() || *end != '\0') usage();
    }
    return cmd_mutate_nan(args[0], args[1], value);
  }
  if (cmd == "replay" && !args.empty()) {
    std::string path;
    std::size_t threads = 1;
    bool expect_reject = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--threads" && i + 1 < args.size()) {
        threads = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--expect-reject") {
        expect_reject = true;
      } else if (path.empty() && !args[i].empty() && args[i][0] != '-') {
        path = args[i];
      } else {
        usage();
      }
    }
    if (path.empty()) usage();
    return cmd_replay(path, threads, expect_reject);
  }
  if (cmd == "fuzz" && !args.empty()) {
    std::string path;
    std::uint64_t seed = 1;
    std::size_t count = 32;
    std::size_t ops = 8;
    bool with_replay = true;
    std::string policies;
    std::size_t max_tracked = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--seed" && i + 1 < args.size()) {
        seed = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--count" && i + 1 < args.size()) {
        count = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--ops" && i + 1 < args.size()) {
        ops = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--no-replay") {
        with_replay = false;
      } else if (args[i] == "--policies" && i + 1 < args.size()) {
        policies = args[++i];
        if (!policies_from_string(policies)) {
          std::fprintf(stderr, "capture_tool: bad policy list '%s'\n",
                       policies.c_str());
          usage();
        }
      } else if (args[i] == "--max-tracked" && i + 1 < args.size()) {
        max_tracked = std::strtoull(args[++i].c_str(), nullptr, 10);
        // 0 keeps each header's bound; any other value must give every
        // spoof shard a slot, or every mutant fails at fleet construction.
        const std::size_t shards = EngineConfig{}.num_shards;
        if (max_tracked > kMaxTrackedMacs ||
            (max_tracked > 0 && max_tracked < shards)) {
          std::fprintf(stderr,
                       "capture_tool: --max-tracked must be 0 or %zu..%zu\n",
                       shards, kMaxTrackedMacs);
          usage();
        }
      } else if (path.empty() && !args[i].empty() && args[i][0] != '-') {
        path = args[i];
      } else {
        usage();
      }
    }
    if (path.empty()) usage();
    return cmd_fuzz(path, seed, count, ops, with_replay, policies, max_tracked);
  }
  if (cmd == "fuzz-wire") {
    std::uint64_t seed = 1;
    std::size_t count = 256;
    std::size_t ops = 8;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--seed" && i + 1 < args.size()) {
        seed = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--count" && i + 1 < args.size()) {
        count = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--ops" && i + 1 < args.size()) {
        ops = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else {
        usage();
      }
    }
    return cmd_fuzz_wire(seed, count, ops);
  }
  if (cmd == "chaos") {
    std::size_t sites = 4;
    std::size_t clients = 12;
    std::size_t moves = 6;
    std::size_t drivers = 1;
    std::vector<std::uint64_t> seeds;
    std::vector<std::string> plans;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--sites" && i + 1 < args.size()) {
        sites = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--clients" && i + 1 < args.size()) {
        clients = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--moves" && i + 1 < args.size()) {
        moves = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--drivers" && i + 1 < args.size()) {
        drivers = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--seeds" && i + 1 < args.size()) {
        const std::string csv = args[++i];
        std::size_t start = 0;
        while (start <= csv.size()) {
          std::size_t comma = csv.find(',', start);
          if (comma == std::string::npos) comma = csv.size();
          seeds.push_back(std::strtoull(
              csv.substr(start, comma - start).c_str(), nullptr, 10));
          start = comma + 1;
        }
      } else if (args[i] == "--plan" && i + 1 < args.size()) {
        plans.push_back(args[++i]);
      } else {
        usage();
      }
    }
    if (seeds.empty()) seeds = {1, 2, 3};
    return cmd_chaos(sites, clients, moves, seeds, plans, drivers);
  }
  usage();
}
