#include "sa/capture/reader.hpp"

#include <cstdio>
#include <map>
#include <utility>

namespace sa {

namespace {

/// Whether a capture of `version` can hold a record of `type`: plain
/// decisions are single-site only, site decisions and assocs need a
/// fleet capture, transport verdicts a lossy one.
bool version_holds(std::uint32_t version, RecordType type) {
  switch (type) {
    case RecordType::kDecision: return version < kSacpVersionFleet;
    case RecordType::kSiteDecision:
    case RecordType::kAssoc: return version >= kSacpVersionFleet;
    case RecordType::kTransport: return version >= kSacpVersionChaos;
    default: return true;
  }
}

}  // namespace

CaptureReader::CaptureReader(ByteStream data) : data_(std::move(data)) {
  ByteReader r(data_);
  header_ = decode_header(r);
  if (!header_) {
    error_ = "malformed SACP header";
    body_offset_ = data_.size();
  } else {
    body_offset_ = r.offset();
  }
  cursor_ = body_offset_;
}

std::optional<CaptureReader> CaptureReader::from_file(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  ByteStream data;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return CaptureReader(std::move(data));
}

std::optional<CaptureRecord> CaptureReader::parse_record(
    ByteReader& r, bool& end_seen, std::string& error) const {
  if (r.done()) return std::nullopt;  // clean EOF
  if (end_seen) {
    error = "data after the end record";
    return std::nullopt;
  }
  const auto len = r.u32();
  const auto type = r.u32();
  if (!len || !type) {
    error = "truncated record framing";
    return std::nullopt;
  }
  if (*len > kMaxRecordPayload || *len > r.remaining()) {
    error = "record length exceeds remaining input";
    return std::nullopt;
  }
  if (!version_holds(header_->version, static_cast<RecordType>(*type))) {
    error = "record type " + std::to_string(*type) +
            " cannot appear in a SACP version " +
            std::to_string(header_->version) + " capture";
    return std::nullopt;
  }
  CaptureRecord rec;
  rec.payload.assign(r.cursor(), r.cursor() + *len);
  r.skip(*len);
  switch (static_cast<RecordType>(*type)) {
    case RecordType::kChunk:
      rec.type = RecordType::kChunk;
      rec.chunk = decode_chunk(rec.payload);
      if (!rec.chunk) {
        error = "malformed chunk record";
        return std::nullopt;
      }
      break;
    case RecordType::kDecision:
      rec.type = RecordType::kDecision;
      rec.decision = decode_decision(rec.payload);
      if (!rec.decision) {
        error = "malformed decision record";
        return std::nullopt;
      }
      break;
    case RecordType::kDrain:
      rec.type = RecordType::kDrain;
      if (!rec.payload.empty()) {
        error = "drain record with payload";
        return std::nullopt;
      }
      break;
    case RecordType::kSiteDecision:
      rec.type = RecordType::kSiteDecision;
      rec.site_decision = decode_site_decision(rec.payload);
      if (!rec.site_decision) {
        error = "malformed site-decision record";
        return std::nullopt;
      }
      break;
    case RecordType::kAssoc:
      rec.type = RecordType::kAssoc;
      rec.assoc = decode_assoc(rec.payload);
      if (!rec.assoc) {
        error = "malformed assoc record";
        return std::nullopt;
      }
      break;
    case RecordType::kTransport:
      rec.type = RecordType::kTransport;
      rec.transport = decode_transport(rec.payload);
      if (!rec.transport) {
        error = "malformed transport record";
        return std::nullopt;
      }
      break;
    case RecordType::kEnd:
      rec.type = RecordType::kEnd;
      rec.end = decode_end(rec.payload);
      if (!rec.end) {
        error = "malformed end record";
        return std::nullopt;
      }
      end_seen = true;
      break;
    default:
      error = "unknown record type " + std::to_string(*type);
      return std::nullopt;
  }
  return rec;
}

std::optional<CaptureRecord> CaptureReader::next() {
  if (!header_ || !error_.empty()) return std::nullopt;
  ByteReader r(data_.data() + cursor_, data_.size() - cursor_);
  auto rec = parse_record(r, end_seen_, error_);
  cursor_ += r.offset();
  return rec;
}

ValidationReport CaptureReader::validate() const {
  ValidationReport report;
  if (!header_) {
    report.error = "malformed SACP header";
    return report;
  }
  ByteReader r(data_.data() + body_offset_, data_.size() - body_offset_);
  bool end_seen = false;
  std::string error;
  std::optional<EndRecord> end;
  for (;;) {
    auto rec = parse_record(r, end_seen, error);
    if (!rec) break;
    switch (rec->type) {
      case RecordType::kChunk: ++report.chunks; break;
      case RecordType::kDecision: ++report.decisions; break;
      case RecordType::kSiteDecision: ++report.decisions; break;
      case RecordType::kAssoc: ++report.assocs; break;
      case RecordType::kTransport: ++report.transports; break;
      case RecordType::kDrain: ++report.drains; break;
      case RecordType::kEnd: end = rec->end; break;
    }
    ++report.record_index;
  }
  if (!error.empty()) {
    report.error = error;
    return report;
  }
  if (!end) {
    report.error = "no end record (truncated capture?)";
    return report;
  }
  report.end_seen = true;
  if (end->chunks != report.chunks || end->decisions != report.decisions ||
      end->drains != report.drains || end->assocs != report.assocs) {
    report.error = "end-record totals disagree with the records present";
    return report;
  }
  report.ok = true;
  return report;
}

namespace {

CaptureDiff not_equal(std::string detail) { return {false, std::move(detail)}; }

}  // namespace

CaptureDiff diff_captures(const CaptureReader& a, const CaptureReader& b) {
  if (!a.header() || !b.header()) {
    return not_equal("malformed header in one of the captures");
  }
  if (a.header()->num_aps != b.header()->num_aps) {
    return not_equal("AP counts differ: " +
                     std::to_string(a.header()->num_aps) + " vs " +
                     std::to_string(b.header()->num_aps));
  }

  struct Tracks {
    /// Per-AP chunk payloads in that AP's stream order: per-AP order is
    /// submission order regardless of how concurrent submitters
    /// interleaved in the file, so it is the right unit of comparison.
    std::vector<std::vector<ByteStream>> chunks_by_ap;
    std::vector<ByteStream> decisions;
    /// Per-site decision payloads in that site's sequence order (fleet
    /// sites emit concurrently, so only the per-site subsequence is
    /// deterministic — the chunk-track argument, one level up).
    std::map<std::uint32_t, std::vector<ByteStream>> decisions_by_site;
    std::vector<ByteStream> assocs;
    std::vector<ByteStream> transports;
    std::uint64_t drains = 0;
    bool ok = true;
  };
  const auto extract = [](const CaptureReader& reader) {
    Tracks t;
    t.chunks_by_ap.resize(reader.header()->num_aps);
    CaptureReader walk(reader.bytes());
    for (;;) {
      auto rec = walk.next();
      if (!rec) break;
      switch (rec->type) {
        case RecordType::kChunk:
          if (rec->chunk->ap >= t.chunks_by_ap.size()) {
            t.ok = false;
            return t;
          }
          t.chunks_by_ap[rec->chunk->ap].push_back(std::move(rec->payload));
          break;
        case RecordType::kDecision:
          t.decisions.push_back(std::move(rec->payload));
          break;
        case RecordType::kSiteDecision:
          t.decisions_by_site[rec->site_decision->site].push_back(
              std::move(rec->payload));
          break;
        case RecordType::kAssoc:
          t.assocs.push_back(std::move(rec->payload));
          break;
        case RecordType::kTransport:
          t.transports.push_back(std::move(rec->payload));
          break;
        case RecordType::kDrain: ++t.drains; break;
        case RecordType::kEnd: break;
      }
    }
    t.ok = walk.error().empty();
    return t;
  };
  const Tracks ta = extract(a);
  const Tracks tb = extract(b);
  if (!ta.ok || !tb.ok) return not_equal("malformed record in one capture");

  for (std::size_t ap = 0; ap < ta.chunks_by_ap.size(); ++ap) {
    const auto& ca = ta.chunks_by_ap[ap];
    const auto& cb = tb.chunks_by_ap[ap];
    if (ca.size() != cb.size()) {
      return not_equal("AP " + std::to_string(ap) + " chunk counts differ: " +
                       std::to_string(ca.size()) + " vs " +
                       std::to_string(cb.size()));
    }
    for (std::size_t i = 0; i < ca.size(); ++i) {
      if (ca[i] != cb[i]) {
        return not_equal("AP " + std::to_string(ap) + " chunk " +
                         std::to_string(i) + " differs byte-wise");
      }
    }
  }
  if (ta.decisions.size() != tb.decisions.size()) {
    return not_equal("decision counts differ: " +
                     std::to_string(ta.decisions.size()) + " vs " +
                     std::to_string(tb.decisions.size()));
  }
  for (std::size_t i = 0; i < ta.decisions.size(); ++i) {
    if (ta.decisions[i] != tb.decisions[i]) {
      return not_equal("decision record " + std::to_string(i) +
                       " differs byte-wise");
    }
  }
  if (ta.decisions_by_site.size() != tb.decisions_by_site.size()) {
    return not_equal("site counts differ: " +
                     std::to_string(ta.decisions_by_site.size()) + " vs " +
                     std::to_string(tb.decisions_by_site.size()));
  }
  for (const auto& [site, da] : ta.decisions_by_site) {
    const auto it = tb.decisions_by_site.find(site);
    if (it == tb.decisions_by_site.end()) {
      return not_equal("site " + std::to_string(site) +
                       " present in only one capture");
    }
    const auto& db = it->second;
    if (da.size() != db.size()) {
      return not_equal("site " + std::to_string(site) +
                       " decision counts differ: " + std::to_string(da.size()) +
                       " vs " + std::to_string(db.size()));
    }
    for (std::size_t i = 0; i < da.size(); ++i) {
      if (da[i] != db[i]) {
        return not_equal("site " + std::to_string(site) + " decision " +
                         std::to_string(i) + " differs byte-wise");
      }
    }
  }
  if (ta.assocs.size() != tb.assocs.size()) {
    return not_equal("assoc counts differ: " + std::to_string(ta.assocs.size()) +
                     " vs " + std::to_string(tb.assocs.size()));
  }
  for (std::size_t i = 0; i < ta.assocs.size(); ++i) {
    if (ta.assocs[i] != tb.assocs[i]) {
      return not_equal("assoc record " + std::to_string(i) +
                       " differs byte-wise");
    }
  }
  if (ta.transports.size() != tb.transports.size()) {
    return not_equal("transport record counts differ: " +
                     std::to_string(ta.transports.size()) + " vs " +
                     std::to_string(tb.transports.size()));
  }
  for (std::size_t i = 0; i < ta.transports.size(); ++i) {
    if (ta.transports[i] != tb.transports[i]) {
      return not_equal("transport record " + std::to_string(i) +
                       " differs byte-wise");
    }
  }
  if (ta.drains != tb.drains) {
    return not_equal("drain counts differ: " + std::to_string(ta.drains) +
                     " vs " + std::to_string(tb.drains));
  }
  return {true, ""};
}

}  // namespace sa
