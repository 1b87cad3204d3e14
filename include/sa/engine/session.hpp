// EngineSession: the engine's push-based API, a lock-free SPSC-ring
// dataplane. It is built DPDK-style out of single-producer/
// single-consumer rings (sa/common/spsc_ring.hpp) and AP-affine
// run-to-completion workers, coordinated by one control thread:
//
//   submitters --- per-AP SPSC ring ---> control (forms rounds)
//   control    --- per-worker work ring ---> workers (run-to-completion)
//   workers    --- per-worker done ring ---> control (decides, emits)
//
// Every ring has exactly one producer and one consumer, so the hot path
// is wait-free: no producer lock, no condvar, no shared queue. Blocking
// only happens at the quiet edges, via Doorbell's bounded-spin-then-park
// (after ndn-dpdk's rxloop). A session with W workers runs W + 1
// threads.
//
// Two ownership rules make this deterministic:
//  - worker w owns APs {i : i mod W == w} — each AP's StreamingReceiver
//    is touched by exactly one thread, which runs scan -> demodulate
//    (PHY header, covariance, AoA) -> commit to completion in round
//    order. No stream mutex exists. The per-receiver schedule (commit N
//    before scan N+1) is the lock-step one StreamingReceiver's push()
//    runs.
//  - the control thread owns all per-MAC decision state: the session's
//    one Coordinator (policy chain, ACL, rate windows) and the calls
//    into the ShardedSpoofDetector. It is the only thread that sees
//    rounds whole. Each time it wakes it drains the workers' done rings,
//    then takes every scan-complete round strictly in round order
//    through one pass — group the round's frames (decoding each one's
//    DATA symbols once, at its strongest AP), number them, run the
//    spoof observation and the policy chain on each, hand each decision
//    to the sink, retire the round — and then forms and dispatches every
//    round the budget admits. So the decision stream is the serial
//    chain's at any worker count, whether or not a max_tracked_macs
//    bound binds.
//
// Backpressure: `max_inflight_rounds` bounds dispatched-but-undecided
// rounds; submit() blocks while that AP's ring holds max_pending_chunks
// chunks.
//
// Lifecycle: drain() processes every submitted chunk plus a final flush
// pass and returns once all resulting decisions have been emitted — the
// session stays usable. close() drains and stops the threads; the
// destructor closes.
//
// Schedules: pushing rounds without waiting pipelines them (the workers
// scan round N+1 while the control thread decides round N). A caller
// that owns the round cadence runs lock-step instead — submit_round(r);
// wait_idle(); per round, then drain() — and gets each round's
// decisions before it submits the next. Both emit the same decision
// stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sa/common/spsc_ring.hpp"
#include "sa/engine/deployment.hpp"

namespace sa {

/// Largest |re| or |im| of an IQ sample that EngineSession::submit()
/// accepts. The pipeline's largest intermediates scale with |x|^4:
///   - the detector's |P|^2 and R^2 over kScWindow = 96 samples, at most
///     96^2 * |x|^4;
///   - the EVD's Frobenius sum over the 2M x 2M real embedding of the
///     covariance, whose entries are at most |x|^2, so at most
///     4 M^2 * |x|^4, or 2.7e5 * |x|^4 for M <= kMaxChunkRows = 256.
/// With components at most 1e64, |x|^2 <= 2e128 and |x|^4 <= 4e256, so
/// both stay below 1.1e262: 46 decades under DBL_MAX (1.8e308), room for
/// conditioning gains and filter sums. Past the bound the sums overflow
/// to Inf and NaN deep in a worker and trip eigh()'s Hermitian check or
/// the Capon inverse. Recorded captures peak at 2.55.
inline constexpr double kMaxIqMagnitude = 1e64;

struct SessionConfig {
  EngineConfig engine;
  /// Rounds that may be dispatched but not yet fully decided at once;
  /// >= 1. 1 degenerates to lock-step.
  std::size_t max_inflight_rounds = 4;
  /// Chunks one AP may have queued (submitted but not yet formed into a
  /// round); >= 1. submit() blocks at this bound, so it must exceed the
  /// raggedness of the submission order: pushing one AP more than this
  /// many rounds ahead of another would block forever.
  std::size_t max_pending_chunks = 64;
};

/// Observable pipeline behavior (all monotonic counters / high-water
/// marks since construction).
struct SessionStats {
  std::size_t chunks_submitted = 0;
  std::size_t rounds_completed = 0;  ///< including drain flush passes
  /// Rounds retired in order that consumed at least one submitted chunk
  /// — the data rounds, excluding padded and drain flush passes (which
  /// rounds_completed counts).
  std::size_t rounds_retired = 0;
  std::size_t decisions_emitted = 0;
  /// Deferred-retry candidates re-decoded after the preceding commit.
  std::size_t stale_retries = 0;
  /// Always 0: a worker commits each round before it scans the next, and
  /// scan() already drops every candidate an earlier commit emitted.
  std::size_t stale_skips = 0;
  /// High-water mark of candidates scanned but not yet decided: the
  /// largest round's candidate count, since a round is decided in the
  /// pass that groups it.
  std::size_t max_inflight_frames = 0;
  /// High-water mark of rounds concurrently scanned-but-undecided: at
  /// most 1, for the same reason.
  std::size_t max_admitted_rounds = 0;
  /// High-water mark of rounds concurrently dispatched-but-unscanned
  /// (>= 2 proves round boundaries were actually overlapped).
  std::size_t max_overlapped_rounds = 0;

  // --- dataplane visibility ---
  /// submit() calls that found their AP's ring full and had to block.
  std::size_t submit_ring_full_blocks = 0;
  /// High-water mark of any submit ring's occupancy.
  std::size_t max_submit_ring_occupancy = 0;
  /// Worker wake-ups that found work, and the AP jobs they drained; the
  /// mean jobs/burst is the dataplane's batching factor.
  std::size_t worker_bursts = 0;
  std::size_t worker_jobs = 0;
  std::size_t max_worker_burst = 0;
  /// Empty doorbell polls (spin iterations that found nothing) and
  /// actual parks, summed over every dataplane thread. The spin:park
  /// ratio shows whether the spin budget absorbs the arrival jitter.
  std::size_t spin_polls = 0;
  std::size_t parks = 0;
  /// Always 0: the session never pins its workers to cores.
  std::size_t workers_pinned = 0;
};

/// A roaming client's exportable per-MAC state: everything the decision
/// pipeline remembers about one MAC. The unit of cross-site handoff —
/// each field is nullopt when the corresponding policy is absent from
/// the chain or holds no state for the MAC.
struct ClientHandoffState {
  /// Raw signature-tracker accumulators (see TrackerSnapshot).
  std::optional<TrackerSnapshot> tracker;
  /// ACL verdict, when the chain has an AclPolicy.
  std::optional<bool> acl_allowed;
  /// Rate-limit residue: in-window admit count at export time, when the
  /// chain has a RateLimitPolicy and the MAC has frames in flight.
  std::optional<std::uint32_t> rate_in_window;
};

class EngineSession {
 public:
  /// Called on the session's control thread, strictly in sequence
  /// order, never concurrently with itself. The sink must not call back
  /// into the session (submit, drain, wait_idle, close, ...): the thread
  /// that would serve the call is the one running the sink, so the call
  /// can deadlock.
  using DecisionSink = std::function<void(const EngineDecision&)>;

  /// `aps` are borrowed (not owned) and must outlive the session; one
  /// chunk stream is expected per AP, in the same order.
  EngineSession(SessionConfig config, std::vector<AccessPoint*> aps,
                DecisionSink sink);
  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Push the next chunk of `ap_index`'s stream. Round r is formed from
  /// the r-th chunk of every AP, so streams may be pushed raggedly;
  /// blocks while this AP's ring is full, throws StateError after
  /// close(). Thread-safe against other submitters (same-AP submitters
  /// serialize on a producer-side latch; the producer->consumer edge is
  /// lock-free).
  void submit(std::size_t ap_index, CMat chunk);
  /// Convenience: one time-aligned chunk per AP (chunks[i] -> aps[i]).
  void submit_round(std::vector<CMat> chunks);

  /// Process every submitted chunk (APs that received fewer chunks than
  /// the longest stream are padded with empty rounds), run the final
  /// flush pass, and return once every decision has been emitted. The
  /// session remains usable afterwards.
  void drain();
  /// Block until every currently formable round has been decided (no
  /// flush pass): the per-round barrier of the lock-step schedule.
  void wait_idle();
  /// drain(), then stop the pipeline threads. Idempotent (concurrent
  /// calls serialize); submit() and drain() throw StateError afterwards.
  void close();

  // --- fleet-handoff hooks --------------------------------------------
  // Quiescent-use-only contract: call these only when the pipeline is
  // idle (after drain()/wait_idle(), with no concurrent submit()), and
  // from one thread at a time; they reach into the control thread's
  // policy state and spoof shards, neither of which takes a lock.
  // FleetCoordinator meets the contract by calling them under its
  // control-plane lock, right after wait_idle() on the session; its
  // driver's part is not to submit to the site meanwhile.

  /// Copy out everything this session knows about `mac` (tracker
  /// accumulators, ACL verdict, rate residue). The rate window is first
  /// advanced to the global frame clock (decisions emitted), so the
  /// residue is a pure function of the frame stream at any thread
  /// count.
  ClientHandoffState export_client_state(const MacAddress& mac);

  /// Install a handed-off client's state: tracker, ACL verdict and rate
  /// residue.
  void import_client_state(const MacAddress& mac,
                           const ClientHandoffState& state);

  /// Drop `mac`'s tracker and rate residue (the handoff source side).
  /// The ACL entry is deliberately kept: frames still in flight toward
  /// this site must not become ACL-denied mid-stream.
  void forget_client(const MacAddress& mac);

  std::size_t num_aps() const { return aps_.size(); }
  std::size_t num_threads() const { return workers_.size(); }
  const SessionConfig& config() const { return config_; }
  // Policy-chain counters, copied into a fresh value on each call, so
  // any number of threads may read them at once. The control thread
  // writes these counters unsynchronized: read them while the pipeline
  // is quiescent (after drain()/wait_idle(), with no concurrent
  // submit()).

  /// Per-policy rows in chain order (the decode link first).
  std::vector<PolicyChain::PolicyStats> policy_stats() const;
  const ShardedSpoofDetector& spoof_detector() const { return spoof_; }
  SessionStats session_stats() const;

 private:
  /// One AP's share of one round, dispatched control -> owning worker.
  struct ApJob {
    std::uint64_t round = 0;
    std::size_t ap = 0;
    std::optional<CMat> chunk;  ///< nullopt on padded / flush rounds
    bool final_pass = false;
    std::uint64_t drain_tag = 0;
  };
  /// One AP's share of one round, committed: worker -> control.
  struct Completion {
    std::uint64_t round = 0;
    std::size_t ap = 0;
    std::vector<StreamingReceiver::StreamPacket> packets;
    std::size_t candidates = 0;
    std::size_t retries = 0;
    std::uint64_t drain_tag = 0;
    bool had_chunk = false;  ///< this AP consumed a real chunk this round
  };

  /// Both rings hold only jobs and completions of dispatched, unretired
  /// rounds, so a capacity of max_inflight_rounds x (APs per worker)
  /// means neither ever fills.
  struct Worker {
    explicit Worker(std::size_t ring_cap) : work(ring_cap), done(ring_cap) {}
    SpscRing<ApJob> work;       // producer: control thread
    SpscRing<Completion> done;  // consumer: control thread
    Doorbell bell;              // control thread -> this worker
    AccessPoint::FrameScratch scratch;
    std::thread thread;
  };

  /// One AP's submission lane. The ring is SPSC (producer: whichever
  /// thread holds producer_mu; consumer: control thread); producer_mu only
  /// serializes concurrent submitters of the *same* AP and is never
  /// taken by the dataplane.
  struct SubmitLane {
    explicit SubmitLane(std::size_t capacity) : ring(capacity) {}
    SpscRing<CMat> ring;
    std::mutex producer_mu;
    /// Recording tap bookkeeping, guarded by producer_mu: this AP's next
    /// chunk is its `rounds`-th, starting at absolute sample `base`.
    std::uint64_t rounds = 0;
    std::uint64_t base = 0;
  };

  /// Internal atomic mirror of SessionStats.
  struct AtomicStats {
    std::atomic<std::size_t> chunks_submitted{0};
    std::atomic<std::size_t> rounds_completed{0};
    std::atomic<std::size_t> rounds_retired{0};
    std::atomic<std::size_t> decisions_emitted{0};
    std::atomic<std::size_t> stale_retries{0};
    std::atomic<std::size_t> max_inflight_frames{0};
    std::atomic<std::size_t> max_admitted_rounds{0};
    std::atomic<std::size_t> max_overlapped_rounds{0};
    std::atomic<std::size_t> submit_ring_full_blocks{0};
    std::atomic<std::size_t> max_submit_ring_occupancy{0};
    std::atomic<std::size_t> worker_bursts{0};
    std::atomic<std::size_t> worker_jobs{0};
    std::atomic<std::size_t> max_worker_burst{0};
    std::atomic<std::size_t> spin_polls{0};
    std::atomic<std::size_t> parks{0};
  };

  void control_loop();
  void worker_loop(std::size_t w);
  void process_ap_job(Worker& wk, ApJob job);
  /// Run the spoof observation and the policy chain on one grouped
  /// frame, then record and emit the decision (control thread).
  void decide(std::size_t sequence, const FrameGroup& group);
  void fail(std::exception_ptr error);
  void throw_if_failed() const;
  bool round_formable() const;

  SessionConfig config_;
  std::vector<AccessPoint*> aps_;
  std::vector<Vec2> positions_;
  std::vector<std::unique_ptr<StreamingReceiver>> streams_;
  std::vector<std::unique_ptr<SubmitLane>> lanes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ShardedSpoofDetector spoof_;
  /// The one policy chain; only the control thread runs it.
  Coordinator coordinator_;
  DecisionSink sink_;
  /// Busy-poll iterations before a dataplane thread parks on its
  /// doorbell: 0 on a single hardware thread, where spinning can only
  /// delay the producer the consumer waits on; a small budget otherwise.
  std::size_t spin_ = 0;

  Doorbell control_bell_;  // submitters, drain() and workers -> control
  Doorbell submit_bell_;   // control -> blocked submitters
  Doorbell done_bell_;     // control -> drain()/wait_idle() waiters

  std::atomic<bool> closing_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  std::exception_ptr error_;

  std::atomic<std::uint64_t> drains_requested_{0};
  std::atomic<std::uint64_t> drains_completed_{0};
  /// Dispatched, unretired rounds; written by the control thread only,
  /// read by wait_idle().
  std::atomic<std::size_t> rounds_in_flight_{0};
  AtomicStats stats_;

  /// Held for the whole of close(); serializes concurrent closers.
  std::mutex close_mu_;
  bool closed_ = false;

  std::thread control_;
};

}  // namespace sa
