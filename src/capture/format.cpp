#include "sa/capture/format.hpp"

#include <charconv>

#include "sa/common/error.hpp"
#include "sa/common/rng.hpp"

namespace sa {

// ------------------------------------------------------------ header

std::optional<std::string> CaptureHeader::meta(std::string_view key) const {
  for (const auto& [k, v] : metadata) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || at != end) return std::nullopt;
  return v;
}

ByteStream encode_header(const CaptureHeader& header) {
  ByteStream payload;
  put_u32(payload, header.num_aps);
  put_u64(payload, header.seed);
  put_u32(payload, static_cast<std::uint32_t>(header.metadata.size()));
  for (const auto& [k, v] : header.metadata) {
    put_str(payload, k);
    put_str(payload, v);
  }
  ByteStream out;
  put_u32(out, kSacpMagic);
  put_u32(out, header.version);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<CaptureHeader> decode_header(ByteReader& r) {
  const auto magic = r.u32();
  if (!magic || *magic != kSacpMagic) return std::nullopt;
  const auto version = r.u32();
  if (!version || *version < kSacpVersion || *version > kSacpVersionChaos) {
    return std::nullopt;
  }
  const auto payload_len = r.u32();
  if (!payload_len || *payload_len > r.remaining() ||
      *payload_len > kMaxRecordPayload) {
    return std::nullopt;
  }
  ByteReader p(r.cursor(), *payload_len);
  CaptureHeader h;
  h.version = *version;
  const auto num_aps = p.u32();
  const auto seed = p.u64();
  const auto meta_count = p.u32();
  if (!num_aps || !seed || !meta_count || *meta_count > kMaxMetaEntries) {
    return std::nullopt;
  }
  h.num_aps = *num_aps;
  h.seed = *seed;
  for (std::uint32_t i = 0; i < *meta_count; ++i) {
    auto key = p.str();
    auto value = p.str();
    if (!key || !value) return std::nullopt;
    h.metadata.emplace_back(std::move(*key), std::move(*value));
  }
  if (!p.done()) return std::nullopt;  // trailing garbage in the header
  r.skip(*payload_len);
  return h;
}

// ------------------------------------------------------------- records

void append_record(ByteStream& out, RecordType type,
                   const ByteStream& payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, static_cast<std::uint32_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

ByteStream encode_chunk(std::uint32_t ap, std::uint64_t round,
                        std::uint64_t base, const CMat& samples) {
  SA_EXPECTS(samples.rows() <= kMaxChunkRows);
  SA_EXPECTS(samples.cols() <= kMaxChunkCols);
  ByteStream payload;
  payload.reserve(32 + samples.rows() * samples.cols() * 16);
  put_u32(payload, ap);
  put_u64(payload, round);
  put_u64(payload, base);
  put_u32(payload, static_cast<std::uint32_t>(samples.rows()));
  put_u32(payload, static_cast<std::uint32_t>(samples.cols()));
  const cd* raw = samples.raw();
  const std::size_t n = samples.rows() * samples.cols();
  for (std::size_t i = 0; i < n; ++i) {
    put_f64(payload, raw[i].real());
    put_f64(payload, raw[i].imag());
  }
  return payload;
}

std::optional<ChunkRecord> decode_chunk(const ByteStream& payload) {
  ByteReader r(payload);
  ChunkRecord c;
  const auto ap = r.u32();
  const auto round = r.u64();
  const auto base = r.u64();
  const auto rows = r.u32();
  const auto cols = r.u32();
  if (!ap || !round || !base || !rows || !cols) return std::nullopt;
  if (*rows == 0 || *rows > kMaxChunkRows || *cols > kMaxChunkCols) {
    return std::nullopt;
  }
  // The payload length must match the dimensions exactly: a lying length
  // field is a parse error, not a partial read.
  const std::size_t n = static_cast<std::size_t>(*rows) * *cols;
  if (r.remaining() != n * 16) return std::nullopt;
  c.ap = *ap;
  c.round = *round;
  c.base = *base;
  c.samples.resize(*rows, *cols);
  cd* raw = c.samples.raw();
  for (std::size_t i = 0; i < n; ++i) {
    const auto re = r.f64();
    const auto im = r.f64();
    if (!re || !im) return std::nullopt;
    raw[i] = cd(*re, *im);
  }
  return c;
}

ByteStream encode_decision(std::uint64_t sequence,
                           std::uint64_t absolute_start,
                           const FrameDecision& d) {
  ByteStream payload;
  put_u64(payload, sequence);
  put_u64(payload, absolute_start);
  put_u8(payload, d.accepted ? 1 : 0);
  put_u8(payload, static_cast<std::uint8_t>(d.spoof));
  put_u8(payload, d.source.has_value() ? 1 : 0);
  put_u8(payload, d.location.has_value() ? 1 : 0);
  put_f64(payload, d.spoof_score);
  if (d.source) {
    for (std::uint8_t o : d.source->octets()) put_u8(payload, o);
  }
  if (d.location) {
    put_f64(payload, d.location->position.x);
    put_f64(payload, d.location->position.y);
    put_f64(payload, d.location->residual_deg);
    put_u32(payload, static_cast<std::uint32_t>(d.location->aps_used));
  }
  put_str(payload, d.policy);
  put_str(payload, d.detail);
  put_u32(payload, static_cast<std::uint32_t>(d.trace.size()));
  for (const auto& t : d.trace) {
    put_str(payload, t.policy);
    put_u8(payload, t.dropped ? 1 : 0);
    put_str(payload, t.detail);
  }
  return payload;
}

std::optional<DecisionRecord> decode_decision(const ByteStream& payload) {
  ByteReader r(payload);
  DecisionRecord d;
  const auto sequence = r.u64();
  const auto start = r.u64();
  const auto accepted = r.u8();
  const auto verdict = r.u8();
  const auto has_source = r.u8();
  const auto has_location = r.u8();
  const auto score = r.f64();
  if (!sequence || !start || !accepted || !verdict || !has_source ||
      !has_location || !score || *accepted > 1 || *has_source > 1 ||
      *has_location > 1 || *verdict > 2) {
    return std::nullopt;
  }
  d.sequence = *sequence;
  d.absolute_start = *start;
  d.accepted = *accepted != 0;
  d.spoof_verdict = *verdict;
  d.spoof_score = *score;
  if (*has_source != 0) {
    std::array<std::uint8_t, 6> octets{};
    for (auto& o : octets) {
      const auto b = r.u8();
      if (!b) return std::nullopt;
      o = *b;
    }
    d.source = octets;
  }
  if (*has_location != 0) {
    DecisionRecord::Location loc;
    const auto x = r.f64();
    const auto y = r.f64();
    const auto residual = r.f64();
    const auto aps_used = r.u32();
    if (!x || !y || !residual || !aps_used) return std::nullopt;
    loc.x = *x;
    loc.y = *y;
    loc.residual_deg = *residual;
    loc.aps_used = *aps_used;
    d.location = loc;
  }
  auto policy = r.str();
  auto detail = r.str();
  const auto trace_count = r.u32();
  if (!policy || !detail || !trace_count ||
      *trace_count > kMaxTraceEntries) {
    return std::nullopt;
  }
  d.policy = std::move(*policy);
  d.detail = std::move(*detail);
  for (std::uint32_t i = 0; i < *trace_count; ++i) {
    DecisionRecord::TraceEntry t;
    auto tp = r.str();
    const auto dropped = r.u8();
    auto td = r.str();
    if (!tp || !dropped || !td || *dropped > 1) return std::nullopt;
    t.policy = std::move(*tp);
    t.dropped = *dropped != 0;
    t.detail = std::move(*td);
    d.trace.push_back(std::move(t));
  }
  if (!r.done()) return std::nullopt;  // trailing garbage
  return d;
}

ByteStream encode_site_decision(std::uint32_t site, std::uint64_t sequence,
                                std::uint64_t absolute_start,
                                const FrameDecision& decision) {
  ByteStream payload;
  put_u32(payload, site);
  const ByteStream inner = encode_decision(sequence, absolute_start, decision);
  payload.insert(payload.end(), inner.begin(), inner.end());
  return payload;
}

std::optional<SiteDecisionRecord> decode_site_decision(
    const ByteStream& payload) {
  ByteReader r(payload);
  const auto site = r.u32();
  if (!site) return std::nullopt;
  auto inner = decode_decision(ByteStream(payload.begin() + 4, payload.end()));
  if (!inner) return std::nullopt;
  SiteDecisionRecord rec;
  rec.site = *site;
  rec.decision = std::move(*inner);
  return rec;
}

ByteStream encode_assoc(const AssocRecord& assoc) {
  ByteStream payload;
  put_u32(payload, assoc.site);
  put_u64(payload, assoc.generation);
  for (std::uint8_t o : assoc.mac) put_u8(payload, o);
  return payload;
}

std::optional<AssocRecord> decode_assoc(const ByteStream& payload) {
  ByteReader r(payload);
  AssocRecord a;
  const auto site = r.u32();
  const auto generation = r.u64();
  if (!site || !generation) return std::nullopt;
  a.site = *site;
  a.generation = *generation;
  for (auto& o : a.mac) {
    const auto b = r.u8();
    if (!b) return std::nullopt;
    o = *b;
  }
  if (!r.done()) return std::nullopt;  // trailing garbage
  return a;
}

ByteStream encode_transport(const TransportRecord& transport) {
  ByteStream payload;
  for (std::uint8_t o : transport.mac) put_u8(payload, o);
  put_u64(payload, transport.generation);
  put_u32(payload, transport.outcome);
  put_u32(payload, transport.attempts);
  return payload;
}

std::optional<TransportRecord> decode_transport(const ByteStream& payload) {
  ByteReader r(payload);
  TransportRecord t;
  for (auto& o : t.mac) {
    const auto b = r.u8();
    if (!b) return std::nullopt;
    o = *b;
  }
  const auto generation = r.u64();
  const auto outcome = r.u32();
  const auto attempts = r.u32();
  if (!generation || !outcome || !attempts) return std::nullopt;
  // Only the two HandoffOutcome values exist; anything else is garbage.
  if (*outcome > 1) return std::nullopt;
  t.generation = *generation;
  t.outcome = *outcome;
  t.attempts = *attempts;
  if (!r.done()) return std::nullopt;  // trailing garbage
  return t;
}

ByteStream encode_end(const EndRecord& end, std::uint32_t version) {
  ByteStream payload;
  put_u64(payload, end.chunks);
  put_u64(payload, end.decisions);
  put_u64(payload, end.drains);
  if (version >= kSacpVersionFleet) put_u64(payload, end.assocs);
  return payload;
}

std::optional<EndRecord> decode_end(const ByteStream& payload) {
  ByteReader r(payload);
  EndRecord e;
  const auto chunks = r.u64();
  const auto decisions = r.u64();
  const auto drains = r.u64();
  if (!chunks || !decisions || !drains) return std::nullopt;
  e.chunks = *chunks;
  e.decisions = *decisions;
  e.drains = *drains;
  if (!r.done()) {
    // Version >= 2 appends the assoc total; anything else is garbage.
    const auto assocs = r.u64();
    if (!assocs || !r.done()) return std::nullopt;
    e.assocs = *assocs;
  }
  return e;
}

// -------------------------------------------------------------- mutate

ByteStream mutate_capture(const ByteStream& input, std::uint64_t seed,
                          std::size_t ops) {
  ByteStream out = input;
  Rng rng(seed);
  // Leave the 4-byte magic alone most of the time so mutations exercise
  // the record parsers rather than dying at the first check; one op in
  // sixteen still hits the magic/version words.
  for (std::size_t op = 0; op < ops && !out.empty(); ++op) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.05 && out.size() > 16) {
      // Truncate the tail: simulates a crashed writer.
      out.resize(static_cast<std::size_t>(
          rng.uniform_int(8, static_cast<std::int64_t>(out.size()) - 1)));
      continue;
    }
    if (roll < 0.10) {
      // Append garbage: simulates trailing junk after the end record.
      const std::size_t extra =
          static_cast<std::size_t>(rng.uniform_int(1, 16));
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      continue;
    }
    const std::size_t lo = roll < 0.15 ? 0 : std::min<std::size_t>(4, out.size() - 1);
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(out.size()) - 1));
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.4) {
      out[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    } else if (kind < 0.7) {
      out[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else if (kind < 0.85) {
      out[at] = 0x00;
    } else {
      out[at] = 0xFF;
    }
  }
  return out;
}

}  // namespace sa
