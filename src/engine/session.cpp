#include "sa/engine/session.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "sa/common/error.hpp"
#include "sa/common/logging.hpp"
#include "sa/linalg/lanes.hpp"

namespace sa {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

EngineSession::EngineSession(SessionConfig config,
                             std::vector<AccessPoint*> aps, DecisionSink sink)
    : config_(std::move(config)),
      aps_(std::move(aps)),
      spoof_(config_.engine.coordinator.tracker, config_.engine.num_shards,
             config_.engine.coordinator.max_tracked_macs,
             config_.engine.coordinator.spoof_idle_frames),
      coordinator_(config_.engine.coordinator),
      sink_(std::move(sink)),
      spin_(std::thread::hardware_concurrency() > 1 ? 128 : 0) {
  SA_EXPECTS(!aps_.empty());
  SA_EXPECTS(sink_ != nullptr);
  SA_EXPECTS(config_.max_inflight_rounds >= 1);
  SA_EXPECTS(config_.max_pending_chunks >= 1);

  const std::size_t n_aps = aps_.size();
  streams_.reserve(n_aps);
  lanes_.reserve(n_aps);
  for (AccessPoint* ap : aps_) {
    SA_EXPECTS(ap != nullptr);
    positions_.push_back(ap->config().position);
    streams_.push_back(
        std::make_unique<StreamingReceiver>(*ap, config_.engine.streaming));
    lanes_.push_back(std::make_unique<SubmitLane>(config_.max_pending_chunks));
  }

  const std::size_t n_workers = resolve_threads(config_.engine.num_threads);
  const std::size_t aps_per_worker = (n_aps + n_workers - 1) / n_workers;
  workers_.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(config_.max_inflight_rounds *
                                                aps_per_worker));
  }

  control_ = std::thread([this] { control_loop(); });
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

EngineSession::~EngineSession() {
  try {
    close();
  } catch (const std::exception& e) {
    log_error() << "EngineSession close failed in destructor: " << e.what();
  } catch (...) {
    log_error() << "EngineSession close failed in destructor";
  }
}

void EngineSession::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!failed_.load(std::memory_order_relaxed)) {
      error_ = std::move(error);
      failed_.store(true, std::memory_order_release);
    }
  }
  control_bell_.ring();
  submit_bell_.ring();
  done_bell_.ring();
  for (auto& wk : workers_) wk->bell.ring();
}

void EngineSession::throw_if_failed() const {
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(error_mu_);
    std::rethrow_exception(error_);
  }
}

bool EngineSession::round_formable() const {
  for (const auto& lane : lanes_) {
    if (lane->ring.empty()) return false;
  }
  return true;
}

void EngineSession::submit(std::size_t ap_index, CMat chunk) {
  SA_EXPECTS(ap_index < aps_.size());
  SA_EXPECTS(chunk.rows() == aps_[ap_index]->config().geometry.size());
  // Reject NaN, Inf and overflow-size IQ at the ingest boundary: such
  // a sample would otherwise propagate through conditioning into the
  // covariance eigendecomposition and trip eig()'s Hermitian
  // precondition or the Capon inverse deep in a worker (the robustness
  // gap the capture fuzz loop found). One comparison per component,
  // |v| <= kMaxIqMagnitude, catches all three: NaN compares false.
  // Every ingest path funnels through here — capture replay included —
  // so one check covers them all, before the chunk enters the rings.
  const std::size_t n_samples = chunk.rows() * chunk.cols();
  if (!lanes::parts_within(chunk.raw(), n_samples, kMaxIqMagnitude)) {
    std::size_t i = 0;
    while (std::fabs(chunk.raw()[i].real()) <= kMaxIqMagnitude &&
           std::fabs(chunk.raw()[i].imag()) <= kMaxIqMagnitude) {
      ++i;
    }
    throw InvalidArgument(
        "EngineSession::submit: IQ sample NaN, Inf or above "
        "kMaxIqMagnitude (index " + std::to_string(i) + ", ap " +
        std::to_string(ap_index) + ")");
  }
  SubmitLane& lane = *lanes_[ap_index];
  // Same-AP submitters serialize here; the ring itself stays SPSC. The
  // dataplane never touches this mutex.
  std::lock_guard<std::mutex> producer(lane.producer_mu);
  throw_if_failed();
  if (closing_.load(std::memory_order_acquire)) {
    throw StateError("EngineSession::submit after close()");
  }
  // Honor the configured bound exactly even when the ring's power-of-two
  // capacity rounded above it.
  if (lane.ring.size() >= config_.max_pending_chunks) {
    stats_.submit_ring_full_blocks.fetch_add(1, std::memory_order_relaxed);
    submit_bell_.wait(
        [&] {
          return failed_.load(std::memory_order_acquire) ||
                 closing_.load(std::memory_order_acquire) ||
                 lane.ring.size() < config_.max_pending_chunks;
        },
        /*spin_budget=*/0, &stats_.spin_polls, &stats_.parks);
    throw_if_failed();
    if (closing_.load(std::memory_order_acquire)) {
      throw StateError("EngineSession::submit after close()");
    }
  }
  const bool pushed = lane.ring.try_push(std::move(chunk));
  SA_EXPECTS(pushed);  // capacity >= max_pending_chunks by construction
  atomic_max(stats_.max_submit_ring_occupancy, lane.ring.size());
  stats_.chunks_submitted.fetch_add(1, std::memory_order_relaxed);
  control_bell_.ring();
}

void EngineSession::submit_round(std::vector<CMat> chunks) {
  SA_EXPECTS(chunks.size() == aps_.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    submit(i, std::move(chunks[i]));
  }
}

void EngineSession::drain() {
  throw_if_failed();
  if (closing_.load(std::memory_order_acquire)) {
    throw StateError("EngineSession::drain after close()");
  }
  const std::uint64_t ticket =
      drains_requested_.fetch_add(1, std::memory_order_acq_rel) + 1;
  control_bell_.ring();
  done_bell_.wait(
      [&] {
        return failed_.load(std::memory_order_acquire) ||
               drains_completed_.load(std::memory_order_acquire) >= ticket;
      },
      /*spin_budget=*/0, &stats_.spin_polls, &stats_.parks);
  throw_if_failed();
}

void EngineSession::wait_idle() {
  done_bell_.wait(
      [&] {
        return failed_.load(std::memory_order_acquire) ||
               (!round_formable() &&
                rounds_in_flight_.load(std::memory_order_acquire) == 0);
      },
      /*spin_budget=*/0, &stats_.spin_polls, &stats_.parks);
  throw_if_failed();
}

void EngineSession::close() {
  // Serializes concurrent close() calls: the loser waits here and then
  // sees closed_, instead of racing the winner into a double join.
  std::lock_guard<std::mutex> close_lock(close_mu_);
  if (closed_) return;
  std::exception_ptr drain_error;
  try {
    drain();
  } catch (...) {
    drain_error = std::current_exception();
  }
  closing_.store(true, std::memory_order_release);
  control_bell_.ring();
  submit_bell_.ring();
  done_bell_.ring();
  for (auto& wk : workers_) wk->bell.ring();
  if (control_.joinable()) control_.join();
  for (auto& wk : workers_) {
    if (wk->thread.joinable()) wk->thread.join();
  }
  closed_ = true;
  if (drain_error) std::rethrow_exception(drain_error);
}

SessionStats EngineSession::session_stats() const {
  SessionStats s;
  s.chunks_submitted = stats_.chunks_submitted.load(std::memory_order_acquire);
  s.rounds_completed = stats_.rounds_completed.load(std::memory_order_acquire);
  s.rounds_retired = stats_.rounds_retired.load(std::memory_order_acquire);
  s.decisions_emitted =
      stats_.decisions_emitted.load(std::memory_order_acquire);
  s.stale_retries = stats_.stale_retries.load(std::memory_order_acquire);
  s.max_inflight_frames =
      stats_.max_inflight_frames.load(std::memory_order_acquire);
  s.max_admitted_rounds =
      stats_.max_admitted_rounds.load(std::memory_order_acquire);
  s.max_overlapped_rounds =
      stats_.max_overlapped_rounds.load(std::memory_order_acquire);
  s.submit_ring_full_blocks =
      stats_.submit_ring_full_blocks.load(std::memory_order_acquire);
  s.max_submit_ring_occupancy =
      stats_.max_submit_ring_occupancy.load(std::memory_order_acquire);
  s.worker_bursts = stats_.worker_bursts.load(std::memory_order_acquire);
  s.worker_jobs = stats_.worker_jobs.load(std::memory_order_acquire);
  s.max_worker_burst = stats_.max_worker_burst.load(std::memory_order_acquire);
  s.spin_polls = stats_.spin_polls.load(std::memory_order_acquire);
  s.parks = stats_.parks.load(std::memory_order_acquire);
  return s;
}

std::vector<PolicyChain::PolicyStats> EngineSession::policy_stats() const {
  return coordinator_.chain().policy_stats();
}

// ---------------------------------------------------- fleet handoff hooks

ClientHandoffState EngineSession::export_client_state(const MacAddress& mac) {
  ClientHandoffState st;
  st.tracker = spoof_.export_tracker(mac);
  PolicyChain& chain = coordinator_.mutable_chain();
  const std::size_t frame_clock =
      stats_.decisions_emitted.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    SecurityPolicy& p = chain.policy_mutable(i);
    if (auto* rate = dynamic_cast<RateLimitPolicy*>(&p)) {
      rate->advance_to(frame_clock);
      st.rate_in_window = rate->export_residue(mac);
    } else if (auto* acl = dynamic_cast<AclPolicy*>(&p)) {
      st.acl_allowed = acl->acl().is_allowed(mac);
    }
  }
  return st;
}

void EngineSession::import_client_state(const MacAddress& mac,
                                        const ClientHandoffState& state) {
  if (state.tracker) spoof_.import_tracker(mac, *state.tracker);
  PolicyChain& chain = coordinator_.mutable_chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    SecurityPolicy& p = chain.policy_mutable(i);
    if (auto* acl = dynamic_cast<AclPolicy*>(&p)) {
      if (state.acl_allowed) {
        if (*state.acl_allowed) {
          acl->mutable_acl().allow(mac);
        } else {
          acl->mutable_acl().revoke(mac);
        }
      }
    } else if (auto* rate = dynamic_cast<RateLimitPolicy*>(&p)) {
      if (state.rate_in_window) {
        rate->import_residue(mac, *state.rate_in_window);
      }
    }
  }
}

void EngineSession::forget_client(const MacAddress& mac) {
  spoof_.forget(mac);
  PolicyChain& chain = coordinator_.mutable_chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (auto* rate = dynamic_cast<RateLimitPolicy*>(&chain.policy_mutable(i))) {
      rate->forget(mac);
    }
  }
}

// -------------------------------------------------------------- workers

void EngineSession::worker_loop(std::size_t w) {
  Worker& wk = *workers_[w];
  try {
    for (;;) {
      wk.bell.wait(
          [&] {
            return closing_.load(std::memory_order_acquire) ||
                   failed_.load(std::memory_order_acquire) ||
                   !wk.work.empty();
          },
          spin_, &stats_.spin_polls, &stats_.parks);
      if (closing_.load(std::memory_order_acquire) ||
          failed_.load(std::memory_order_acquire)) {
        return;
      }
      // A "burst" is everything processed between two waits. With a
      // single run-to-completion worker a burst can span the entire
      // workload (new jobs keep arriving while it drains), so the
      // counters are published per job, not at burst end — a stats
      // snapshot taken mid-burst must still see the work.
      std::size_t burst = 0;
      ApJob job;
      while (wk.work.try_pop(job)) {
        process_ap_job(wk, std::move(job));
        if (++burst == 1) {
          stats_.worker_bursts.fetch_add(1, std::memory_order_relaxed);
        }
        stats_.worker_jobs.fetch_add(1, std::memory_order_relaxed);
      }
      if (burst != 0) atomic_max(stats_.max_worker_burst, burst);
    }
  } catch (...) {
    fail(std::current_exception());
  }
}

void EngineSession::process_ap_job(Worker& wk, ApJob job) {
  StreamingReceiver& rx = *streams_[job.ap];
  // Run-to-completion, lock-free: this worker is the only thread that
  // ever touches this receiver, and it commits each round before it
  // scans the next, so scan() has already dropped every candidate an
  // earlier commit emitted.
  StreamingReceiver::Scan scan = rx.scan(job.chunk ? &*job.chunk : nullptr);
  const std::size_t n_cands = scan.candidates.size();
  std::vector<std::optional<ReceivedPacket>> processed(n_cands);
  std::size_t retries = 0;
  for (std::size_t j = 0; j < n_cands; ++j) {
    const auto& cand = scan.candidates[j];
    // A candidate predating this round's chunk is a deferred retry.
    if (cand.absolute_start < scan.prev_seen) ++retries;
    processed[j] =
        aps_[job.ap]->demodulate(*scan.conditioned, cand.detection,
                                 &wk.scratch);
  }
  Completion done;
  done.round = job.round;
  done.ap = job.ap;
  done.packets = rx.commit(scan, std::move(processed), job.final_pass);
  done.candidates = n_cands;
  done.retries = retries;
  done.drain_tag = job.drain_tag;
  done.had_chunk = job.chunk.has_value();
  const bool pushed = wk.done.try_push(std::move(done));
  SA_EXPECTS(pushed);  // sized for every in-flight round (see Worker)
  control_bell_.ring();
}

void EngineSession::decide(std::size_t sequence, const FrameGroup& group) {
  // The control thread owns every MAC's tracker and policy state, and it
  // decides frames in sequence order: the serial chain, exactly.
  std::optional<SpoofObservation> so;
  const ApObservation& best = Coordinator::best_observation(group.observations);
  if (coordinator_.wants_spoof() && best.packet.frame) {
    so = spoof_.observe(best.packet.frame->addr2, best.packet.subband);
  }
  EngineDecision d;
  d.sequence = sequence;
  d.absolute_start = group.absolute_start;
  d.decision = coordinator_.process_prejudged(group.observations, so, sequence);
  sink_(d);
  stats_.decisions_emitted.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------- control loop

void EngineSession::control_loop() {
  const std::size_t n_aps = aps_.size();
  const std::size_t n_workers = workers_.size();

  /// A round whose per-AP completions are still being collected.
  struct RoundAgg {
    std::size_t aps_done = 0;
    std::vector<std::vector<StreamingReceiver::StreamPacket>> per_ap;
    std::size_t candidates = 0;
    std::size_t retries = 0;
    std::uint64_t drain_tag = 0;
    bool had_chunk = false;
  };

  std::map<std::uint64_t, RoundAgg> collecting;
  std::uint64_t next_round_to_decide = 1;
  std::size_t next_sequence = 0;
  std::vector<Completion> batch;
  // The round budget, owned by this thread: rounds dispatched so far
  // (the last round id) and dispatched-but-unretired rounds.
  std::uint64_t rounds_dispatched = 0;
  std::size_t in_flight = 0;
  std::uint64_t drains_issued = 0;

  const auto stopping = [&] {
    return closing_.load(std::memory_order_acquire) ||
           failed_.load(std::memory_order_acquire);
  };
  const auto can_dispatch = [&] {
    return in_flight < config_.max_inflight_rounds &&
           (round_formable() ||
            drains_issued < drains_requested_.load(std::memory_order_acquire));
  };

  try {
    for (;;) {
      control_bell_.wait(
          [&] {
            if (stopping()) return true;
            for (const auto& wk : workers_) {
              if (!wk->done.empty()) return true;
            }
            return can_dispatch();
          },
          spin_, &stats_.spin_polls, &stats_.parks);
      if (stopping()) return;

      // ---- 1. Drain the workers' done rings.
      for (auto& wk : workers_) {
        wk->done.pop_batch(batch, wk->done.capacity());
      }
      for (Completion& c : batch) {
        RoundAgg& agg = collecting[c.round];
        if (agg.per_ap.empty()) agg.per_ap.resize(n_aps);
        agg.per_ap[c.ap] = std::move(c.packets);
        agg.candidates += c.candidates;
        agg.retries += c.retries;
        agg.drain_tag = std::max(agg.drain_tag, c.drain_tag);
        agg.had_chunk = agg.had_chunk || c.had_chunk;
        ++agg.aps_done;
      }
      batch.clear();

      // ---- 2. Decide every scan-complete round, strictly in round
      // order, and retire it in the same pass: release its budget and
      // signal drains. A drain ticket therefore completes only after
      // every earlier round's decisions were emitted.
      for (;;) {
        auto it = collecting.find(next_round_to_decide);
        if (it == collecting.end() || it->second.aps_done < n_aps) break;
        RoundAgg agg = std::move(it->second);
        collecting.erase(it);
        ++next_round_to_decide;

        atomic_max(stats_.max_inflight_frames, agg.candidates);
        atomic_max(stats_.max_admitted_rounds, 1);
        stats_.stale_retries.fetch_add(agg.retries,
                                       std::memory_order_relaxed);
        for (const FrameGroup& g : group_frame_observations(
                 std::move(agg.per_ap), positions_,
                 config_.engine.group_slack_samples)) {
          decide(next_sequence++, g);
        }

        stats_.rounds_completed.fetch_add(1, std::memory_order_release);
        if (agg.had_chunk) {
          stats_.rounds_retired.fetch_add(1, std::memory_order_release);
        }
        if (agg.drain_tag != 0) {
          // Single writer: plain max-store suffices.
          const std::uint64_t cur =
              drains_completed_.load(std::memory_order_relaxed);
          drains_completed_.store(std::max(cur, agg.drain_tag),
                                  std::memory_order_release);
        }
        rounds_in_flight_.store(--in_flight, std::memory_order_release);
        done_bell_.ring();
      }

      // ---- 3. Form and dispatch every round the budget admits — last,
      // so budget retired above is reused without another wake-up: a
      // complete round off the rings; during a drain, a padded round for
      // ragged leftovers; then the drain's final flush pass.
      while (can_dispatch()) {
        // Count the round in flight *before* popping its chunks, so
        // wait_idle() can never observe empty rings with the round not
        // yet accounted for.
        rounds_in_flight_.store(++in_flight, std::memory_order_release);

        std::vector<std::optional<CMat>> chunks(n_aps);
        bool any_chunk = false;
        for (std::size_t i = 0; i < n_aps; ++i) {
          CMat c;
          if (lanes_[i]->ring.try_pop(c)) {
            chunks[i] = std::move(c);
            any_chunk = true;
          }
        }
        bool final_pass = false;
        std::uint64_t drain_tag = 0;
        if (!any_chunk) {
          // Rings are empty and a drain is pending: this round is its
          // final flush pass.
          final_pass = true;
          drain_tag = ++drains_issued;
        }
        submit_bell_.ring();

        const std::uint64_t id = ++rounds_dispatched;
        atomic_max(stats_.max_overlapped_rounds,
                   id - (next_round_to_decide - 1));

        for (std::size_t i = 0; i < n_aps; ++i) {
          ApJob job;
          job.round = id;
          job.ap = i;
          job.chunk = std::move(chunks[i]);
          job.final_pass = final_pass;
          job.drain_tag = drain_tag;
          const bool pushed = workers_[i % n_workers]->work.try_push(
              std::move(job));
          SA_EXPECTS(pushed);  // sized for every in-flight round (see Worker)
        }
        // One doorbell per dispatched round, not per ApJob: ringing a
        // parked worker takes its mutex, so per-job rings force needless
        // wakeup churn when several of the round's APs share a worker.
        for (std::size_t w = 0; w < n_workers && w < n_aps; ++w) {
          workers_[w]->bell.ring();
        }
      }
    }
  } catch (...) {
    fail(std::current_exception());
  }
}

}  // namespace sa
