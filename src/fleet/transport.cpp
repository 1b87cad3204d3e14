#include "sa/fleet/transport.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sa/common/error.hpp"
#include "sa/fleet/wire.hpp"

namespace sa {

namespace {

/// splitmix64 — the same finalizer the compact substrate uses; one
/// application is enough to decorrelate consecutive datagram indices.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A uniform draw in [0, 1) from 53 random bits.
double unit_draw(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::optional<double> parse_prob(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  if (!(v >= 0.0) || !(v <= 1.0)) return std::nullopt;
  return v;
}

std::optional<FaultKind> fault_kind_from(const std::string& s) {
  if (s == "drop") return FaultKind::kDrop;
  if (s == "dup") return FaultKind::kDuplicate;
  if (s == "reorder") return FaultKind::kReorder;
  if (s == "delay") return FaultKind::kDelay;
  if (s == "corrupt") return FaultKind::kCorrupt;
  if (s == "none") return FaultKind::kNone;
  return std::nullopt;
}

std::string prob_to_string(double v) {
  // Shortest representation that round-trips exactly, so
  // to_string(parse(s)) is stable and "0.15" stays "0.15".
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
  }
  return "none";
}

bool FaultPlan::active() const {
  if (drop > 0 || duplicate > 0 || reorder > 0 || delay > 0 || corrupt > 0) {
    return true;
  }
  for (const auto& [index, kind] : schedule) {
    (void)index;
    if (kind != FaultKind::kNone) return true;
  }
  return false;
}

FaultKind FaultPlan::verdict(std::uint64_t index) const {
  const auto forced = schedule.find(index);
  if (forced != schedule.end()) return forced->second;
  const double u = unit_draw(mix64(seed ^ (index * 0x9e3779b97f4a7c15ULL)));
  double edge = drop;
  if (u < edge) return FaultKind::kDrop;
  edge += duplicate;
  if (u < edge) return FaultKind::kDuplicate;
  edge += reorder;
  if (u < edge) return FaultKind::kReorder;
  edge += delay;
  if (u < edge) return FaultKind::kDelay;
  edge += corrupt;
  if (u < edge) return FaultKind::kCorrupt;
  return FaultKind::kNone;
}

std::string FaultPlan::to_string() const {
  std::string out = "seed=" + std::to_string(seed);
  const auto field = [&out](const char* name, double v) {
    if (v > 0) out += std::string(",") + name + "=" + prob_to_string(v);
  };
  field("drop", drop);
  field("dup", duplicate);
  field("reorder", reorder);
  field("delay", delay);
  field("corrupt", corrupt);
  if (delay_ticks != FaultPlan{}.delay_ticks) {
    out += ",delay_ticks=" + std::to_string(delay_ticks);
  }
  if (!schedule.empty()) {
    out += ",force=";
    bool first = true;
    for (const auto& [index, kind] : schedule) {
      if (!first) out += ";";
      first = false;
      out += std::to_string(index) + ":" + sa::to_string(kind);
    }
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t comma = text.find(',', at);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(at, comma - at);
    at = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      plan.seed = *v;
    } else if (key == "drop" || key == "dup" || key == "reorder" ||
               key == "delay" || key == "corrupt") {
      const auto v = parse_prob(value);
      if (!v) return std::nullopt;
      if (key == "drop") plan.drop = *v;
      if (key == "dup") plan.duplicate = *v;
      if (key == "reorder") plan.reorder = *v;
      if (key == "delay") plan.delay = *v;
      if (key == "corrupt") plan.corrupt = *v;
    } else if (key == "delay_ticks") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      plan.delay_ticks = *v;
    } else if (key == "force") {
      std::size_t fat = 0;
      while (fat < value.size()) {
        std::size_t semi = value.find(';', fat);
        if (semi == std::string::npos) semi = value.size();
        const std::string entry = value.substr(fat, semi - fat);
        fat = semi + 1;
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos) return std::nullopt;
        const auto index = parse_u64(entry.substr(0, colon));
        const auto kind = fault_kind_from(entry.substr(colon + 1));
        if (!index || !kind) return std::nullopt;
        plan.schedule[*index] = *kind;
      }
    } else {
      return std::nullopt;
    }
  }
  if (plan.drop + plan.duplicate + plan.reorder + plan.delay + plan.corrupt >
      1.0) {
    return std::nullopt;
  }
  return plan;
}

FaultyTransport::FaultyTransport(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultyTransport::deliver(const ByteStream& datagram) {
  ++stats_.delivered;
  if (receiver_) receiver_(datagram);
}

void FaultyTransport::enqueue(ByteStream bytes, std::uint64_t due) {
  Queued q;
  q.due = due;
  q.order = next_order_++;
  q.bytes = std::move(bytes);
  queue_.push_back(std::move(q));
}

void FaultyTransport::send(ByteStream datagram) {
  const std::uint64_t index = next_index_++;
  ++stats_.sent;
  if (!plan_.active()) {
    deliver(datagram);  // the zero-fault path stays a direct call
    return;
  }
  switch (plan_.verdict(index)) {
    case FaultKind::kDrop:
      ++stats_.dropped;
      return;
    case FaultKind::kDuplicate: {
      ++stats_.duplicated;
      ByteStream copy = datagram;
      enqueue(std::move(copy), now_ + 1);
      enqueue(std::move(datagram), now_ + 1);
      return;
    }
    case FaultKind::kReorder:
      // Held one extra tick, so the next datagram leapfrogs this one.
      ++stats_.reordered;
      enqueue(std::move(datagram), now_ + 2);
      return;
    case FaultKind::kDelay:
      ++stats_.delayed;
      enqueue(std::move(datagram), now_ + 1 + plan_.delay_ticks);
      return;
    case FaultKind::kCorrupt: {
      ++stats_.corrupted;
      if (!datagram.empty()) {
        const std::uint64_t h = mix64(plan_.seed ^ ~index);
        const std::size_t pos = static_cast<std::size_t>(h % datagram.size());
        const std::uint8_t flip =
            static_cast<std::uint8_t>((h >> 17) | 1u);  // never a no-op
        datagram[pos] ^= flip;
      }
      enqueue(std::move(datagram), now_ + 1);
      return;
    }
    case FaultKind::kNone:
      enqueue(std::move(datagram), now_ + 1);
      return;
  }
}

std::size_t FaultyTransport::tick() {
  ++now_;
  // Collect everything due first: delivery callbacks can send more
  // datagrams (acks), which must not be delivered within the same tick.
  std::vector<Queued> due;
  auto keep = queue_.begin();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->due <= now_) {
      due.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  queue_.erase(keep, queue_.end());
  std::sort(due.begin(), due.end(), [](const Queued& a, const Queued& b) {
    return a.due != b.due ? a.due < b.due : a.order < b.order;
  });
  for (const Queued& q : due) deliver(q.bytes);
  return due.size();
}

ReliableLink::ReliableLink(FaultyTransport& transport,
                           ReliableLinkConfig config)
    : transport_(transport), config_(config) {
  SA_EXPECTS(config_.max_attempts >= 1);
  SA_EXPECTS(config_.rto_ticks >= 1);
  transport_.set_receiver(
      [this](const ByteStream& datagram) { on_datagram(datagram); });
}

ReliableLink::SendReport ReliableLink::send_reliable(
    const ByteStream& message) {
  ++stats_.sends;
  SendReport report;
  const std::uint64_t seq = next_seq_++;
  awaiting_seq_ = seq;
  awaiting_acked_ = false;
  std::uint64_t rto = config_.rto_ticks;
  for (std::uint32_t attempt = 1;
       attempt <= config_.max_attempts && !awaiting_acked_; ++attempt) {
    ++report.attempts;
    if (attempt > 1) ++stats_.retransmits;
    FleetTransportData data;
    data.seq = seq;
    data.retransmit = attempt > 1;
    data.inner = message;
    transport_.send(encode_transport_data(data));
    // Exponential backoff with deterministic jitter: up to rto/4 extra
    // ticks, derived from (jitter_seed, seq, attempt) so a replayed run
    // pumps the virtual clock on exactly the same schedule.
    const std::uint64_t jitter =
        mix64(config_.jitter_seed ^ (seq << 8) ^ attempt) % (rto / 4 + 1);
    const std::uint64_t deadline = rto + jitter;
    for (std::uint64_t t = 0; t < deadline && !awaiting_acked_; ++t) {
      transport_.tick();
      ++report.ticks;
    }
    rto = std::min(rto * 2, config_.max_rto_ticks);
  }
  report.acked = awaiting_acked_;
  if (!report.acked) ++stats_.timeouts;
  awaiting_seq_.reset();
  awaiting_acked_ = false;
  // With nothing left in the channel, no seq sent so far can arrive
  // again.
  if (transport_.pending() == 0) seen_seqs_.clear();
  return report;
}

void ReliableLink::on_datagram(const ByteStream& datagram) {
  const auto type = peek_type(datagram);
  if (type == FleetWireType::kAck) {
    const auto ack = decode_ack(datagram);
    if (!ack) {
      ++stats_.corrupt_dropped;
      return;
    }
    if (awaiting_seq_ && ack->seq == *awaiting_seq_) {
      awaiting_acked_ = true;
    } else {
      // A delayed or duplicated ack for a send that already concluded
      // (possibly as a cold start) — safe to ignore: the generation
      // guard owns correctness, the ack only ends the retry loop.
      ++stats_.stale_acks;
    }
    return;
  }
  if (type == FleetWireType::kTransportData) {
    const auto data = decode_transport_data(datagram);
    if (!data) {
      // Truncated, reserved-flagged, or checksum-failed: a detected
      // drop. No ack — the sender's retry repairs it.
      ++stats_.corrupt_dropped;
      return;
    }
    const bool seen = std::find(seen_seqs_.begin(), seen_seqs_.end(),
                                data->seq) != seen_seqs_.end();
    if (seen) {
      ++stats_.duplicates_suppressed;
    } else {
      seen_seqs_.push_back(data->seq);
      if (import_) import_(data->inner);
    }
    FleetAck ack;
    ack.seq = data->seq;
    ack.duplicate = seen;
    ++stats_.acks_sent;
    transport_.send(encode_ack(ack));
    return;
  }
  // Unknown or mangled framing (a corrupted magic/type/length).
  ++stats_.corrupt_dropped;
}

}  // namespace sa
