// sa/fleet/transport: the delivery layer under FleetWire.
//
// PR 9's handoff handed the encoded kClientState message to
// apply_handoff in-process — a perfect channel. This layer models the
// channel explicitly so the fleet survives one worth distrusting:
//
//   FleetCoordinator::notify_association
//         │  encode kClientState
//         ▼
//   ReliableLink ── seq-numbered kTransportData frames, acks, bounded
//         │         retry with exponential backoff + jitter
//         ▼
//   FleetTransport (interface)
//     ├─ LoopbackTransport   in-process, in-order, lossless — the
//     │                      zero-fault channel; byte-identical to PR 9
//     └─ FaultyTransport     decorator over any inner transport: a
//                            seeded FaultPlan drops / duplicates /
//                            reorders / delays / bit-corrupts datagrams
//
// Everything is driven by a virtual clock: time only advances when
// someone calls tick(), so every retry schedule, delay, and timeout is
// deterministic given (FaultPlan, ReliableLinkConfig) — at any
// dataplane thread count. That determinism is what lets a lossy fleet
// run be recorded and replayed byte-for-byte.
//
// The fault verdict for datagram i is a pure function of
// (plan.seed, i): one splitmix64 draw, compared against cumulative
// per-fault probabilities. A `schedule` entry overrides the draw for
// a specific datagram index — the unit-test surface for "exactly this
// message is dropped".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sa/capture/format.hpp"

namespace sa {

/// What the channel does to one datagram. At most one fault per
/// datagram; kCorrupt flips bits but still delivers.
enum class FaultKind : std::uint32_t {
  kNone = 0,
  kDrop = 1,
  kDuplicate = 2,
  kReorder = 3,
  kDelay = 4,
  kCorrupt = 5,
};

const char* to_string(FaultKind kind);

/// A seeded, fully deterministic fault model for one channel. The
/// probabilities are cumulative-checked in declaration order (drop
/// first), so they must sum to <= 1. `schedule` pins specific datagram
/// indices (0-based, counted per FaultyTransport) to a forced verdict.
///
/// Round-trips through to_string()/parse() so a plan can ride in a
/// capture header (`sa.fleet.fault_plan`) or a CLI flag, e.g.
/// "seed=7,drop=0.05,corrupt=0.01,delay_ticks=6,force=3:drop;9:corrupt".
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double delay = 0.0;
  double corrupt = 0.0;
  /// Extra ticks a kDelay verdict holds a datagram in the channel.
  std::uint64_t delay_ticks = 4;
  /// Forced verdicts by datagram index; overrides the seeded draw.
  std::map<std::uint64_t, FaultKind> schedule;

  /// True when any fault can ever fire — an inactive plan means the
  /// channel behaves exactly like its inner transport.
  bool active() const;
  /// The (deterministic) verdict for datagram `index`.
  FaultKind verdict(std::uint64_t index) const;

  std::string to_string() const;
  static std::optional<FaultPlan> parse(const std::string& text);
};

/// A unidirectional best-effort datagram channel with a virtual clock.
/// send() accepts a datagram; the receiver callback fires during send()
/// or a later tick(), depending on the implementation. Not thread-safe:
/// the caller serializes send/tick and the stats readers
/// (FleetCoordinator holds its control-plane lock around every call into
/// the transport stack).
class FleetTransport {
 public:
  using DeliverFn = std::function<void(const ByteStream&)>;

  virtual ~FleetTransport() = default;

  virtual void set_receiver(DeliverFn fn) = 0;
  virtual void send(ByteStream datagram) = 0;
  /// Advance the virtual clock one tick; deliver anything due. Returns
  /// the number of datagrams delivered this tick.
  virtual std::size_t tick() = 0;
  /// Datagrams accepted but not yet delivered or dropped.
  virtual std::size_t pending() const = 0;
};

/// The perfect channel: every datagram is delivered synchronously,
/// in order, unmodified, inside send(). tick() is a no-op.
class LoopbackTransport final : public FleetTransport {
 public:
  void set_receiver(DeliverFn fn) override { receiver_ = std::move(fn); }
  void send(ByteStream datagram) override {
    if (receiver_) receiver_(datagram);
  }
  std::size_t tick() override { return 0; }
  std::size_t pending() const override { return 0; }

 private:
  DeliverFn receiver_;
};

/// What a FaultyTransport did to the traffic so far.
struct TransportStats {
  std::uint64_t sent = 0;       ///< datagrams offered to the channel
  std::uint64_t delivered = 0;  ///< datagrams handed to the inner transport
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;
  std::uint64_t corrupted = 0;
};

/// The lossy decorator. Datagrams are queued with a due tick derived
/// from the plan's verdict (normal: next tick; kReorder: two ticks, so
/// the following datagram leapfrogs it; kDelay: plan.delay_ticks extra)
/// and handed to the inner transport as ticks elapse. kDrop discards,
/// kDuplicate enqueues twice, kCorrupt flips seeded bits first.
class FaultyTransport final : public FleetTransport {
 public:
  /// `inner` is borrowed and must outlive this decorator.
  FaultyTransport(FleetTransport& inner, FaultPlan plan);

  void set_receiver(DeliverFn fn) override { inner_.set_receiver(std::move(fn)); }
  void send(ByteStream datagram) override;
  std::size_t tick() override;
  std::size_t pending() const override { return queue_.size(); }

  const TransportStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  std::uint64_t now() const { return now_; }

 private:
  struct Queued {
    std::uint64_t due = 0;    ///< virtual tick at which this delivers
    std::uint64_t order = 0;  ///< tiebreak: admission order
    ByteStream bytes;
  };

  void enqueue(ByteStream bytes, std::uint64_t due);

  FleetTransport& inner_;
  FaultPlan plan_;
  TransportStats stats_;
  std::vector<Queued> queue_;
  std::uint64_t now_ = 0;
  std::uint64_t next_index_ = 0;  ///< datagram index fed to the plan
  std::uint64_t next_order_ = 0;
};

/// ARQ tuning. All times are virtual-clock ticks; jitter is derived
/// deterministically from (jitter_seed, seq, attempt) so a replayed run
/// retries on exactly the same schedule.
struct ReliableLinkConfig {
  std::uint32_t max_attempts = 5;
  std::uint64_t rto_ticks = 8;       ///< initial retransmit timeout
  std::uint64_t max_rto_ticks = 64;  ///< backoff cap (doubling, clamped)
  std::uint64_t jitter_seed = 0x5ec0ffee;
};

/// Counters for the reliability layer (both roles of the link).
struct ReliableLinkStats {
  std::uint64_t sends = 0;        ///< send_reliable calls
  std::uint64_t retransmits = 0;  ///< data frames sent beyond the first
  std::uint64_t timeouts = 0;     ///< sends that exhausted every attempt
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_suppressed = 0;  ///< already-seen seqs re-acked
  std::uint64_t stale_acks = 0;       ///< acks for a no-longer-pending seq
  std::uint64_t corrupt_dropped = 0;  ///< undecodable datagrams discarded
};

/// Stop-and-wait ARQ over a FleetTransport: each message becomes one
/// sequence-numbered kTransportData frame (FNV-1a-checksummed), the
/// receiver side dedups by seq, delivers the inner message upward, and
/// acks; the sender retries on an exponential-backoff schedule until
/// acked or the attempt budget runs out. One link object serves both
/// roles (the in-process fleet is its own peer). Stop-and-wait is the
/// right shape here: a handoff is one message, and notify_association
/// is synchronous by contract.
class ReliableLink {
 public:
  /// Called with the validated inner message of each newly seen data
  /// frame, during send_reliable's pump. Returning normally acks it.
  using ImportFn = std::function<void(const ByteStream& inner)>;

  /// `transport` is borrowed and must outlive the link.
  ReliableLink(FleetTransport& transport, ReliableLinkConfig config);

  void set_import(ImportFn fn) { import_ = std::move(fn); }

  struct SendReport {
    bool acked = false;
    std::uint32_t attempts = 0;  ///< data-frame transmissions
    std::uint64_t ticks = 0;     ///< virtual time the send consumed
  };

  /// Ship one message reliably. Pumps the transport's virtual clock
  /// until the frame is acked or `max_attempts` deadlines expire; the
  /// import callback (and acks for any datagram that arrives, including
  /// unrelated delayed ones) runs inside this call.
  SendReport send_reliable(const ByteStream& message);

  const ReliableLinkStats& stats() const { return stats_; }
  /// Seqs the receiver role remembers for duplicate suppression: those
  /// imported since a send last left the channel empty.
  std::size_t remembered_seqs() const { return seen_seqs_.size(); }

 private:
  void on_datagram(const ByteStream& datagram);

  FleetTransport& transport_;
  ReliableLinkConfig config_;
  ImportFn import_;
  ReliableLinkStats stats_;
  std::uint64_t next_seq_ = 1;
  std::optional<std::uint64_t> awaiting_seq_;
  bool awaiting_acked_ = false;
  /// Seqs already imported (receiver role) — duplicates re-ack only.
  std::vector<std::uint64_t> seen_seqs_;
};

}  // namespace sa
