#include "replay.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "sa/fleet/coordinator.hpp"
#include "sa/fleet/wire.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kProbeEvery = 8;

/// Where every submitted round went and when it was decided. Allocated
/// before the baseline resident set is read, so its arrays do not count
/// as memory the system added.
struct Ledger {
  Ledger(const Trace& tr, std::uint64_t check_rounds, std::uint64_t capacity)
      : round_len(tr.round_len),
        check(tr.site_rounds(check_rounds)),
        done_at(tr.sites, std::vector<double>(capacity, -1.0)),
        decided(tr.sites, std::vector<std::uint8_t>(capacity, 0)),
        digests(tr.sites),
        local(tr.sites, 0) {
    where.reserve(capacity);
  }

  double now_s() const {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
               .count() -
           origin_s.load(std::memory_order_relaxed);
  }

  /// A decision of `site`; `stamp` records when its round was decided.
  void record(std::size_t site, const sa::EngineDecision& d, bool stamp) {
    const std::uint64_t k = round_of(d.absolute_start, round_len);
    if (k < decided[site].size() && !decided[site][k]) {
      decided[site][k] = 1;
      if (stamp) done_at[site][k] = now_s();
    }
    if (k < check[site]) digests[site].add(d);
  }

  std::size_t round_len;
  std::vector<std::uint64_t> check;  ///< per site: local rounds digested
  std::vector<std::vector<double>> done_at;  ///< [s after origin]; -1 = no
  std::vector<std::vector<std::uint8_t>> decided;
  std::vector<SiteDigest> digests;
  std::vector<std::uint64_t> local;  ///< rounds submitted per site
  /// Trace round -> (site, site-local round).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> where;
  std::atomic<double> origin_s{0.0};
};

void accumulate(sa::SessionStats& acc, const sa::SessionStats& s) {
  acc.chunks_submitted += s.chunks_submitted;
  acc.rounds_completed += s.rounds_completed;
  acc.rounds_retired += s.rounds_retired;
  acc.decisions_emitted += s.decisions_emitted;
  acc.stale_retries += s.stale_retries;
  acc.stale_skips += s.stale_skips;
  acc.submit_ring_full_blocks += s.submit_ring_full_blocks;
  acc.worker_bursts += s.worker_bursts;
  acc.worker_jobs += s.worker_jobs;
  acc.spin_polls += s.spin_polls;
  acc.parks += s.parks;
  acc.workers_pinned += s.workers_pinned;
  acc.max_inflight_frames = std::max(acc.max_inflight_frames, s.max_inflight_frames);
  acc.max_admitted_rounds = std::max(acc.max_admitted_rounds, s.max_admitted_rounds);
  acc.max_overlapped_rounds =
      std::max(acc.max_overlapped_rounds, s.max_overlapped_rounds);
  acc.max_submit_ring_occupancy =
      std::max(acc.max_submit_ring_occupancy, s.max_submit_ring_occupancy);
  acc.max_worker_burst = std::max(acc.max_worker_burst, s.max_worker_burst);
}

/// Counters of `after` minus those of `before`; high-water marks as of
/// `after`.
sa::SessionStats delta(sa::SessionStats after, const sa::SessionStats& b) {
  after.chunks_submitted -= b.chunks_submitted;
  after.rounds_completed -= b.rounds_completed;
  after.rounds_retired -= b.rounds_retired;
  after.decisions_emitted -= b.decisions_emitted;
  after.stale_retries -= b.stale_retries;
  after.stale_skips -= b.stale_skips;
  after.submit_ring_full_blocks -= b.submit_ring_full_blocks;
  after.worker_bursts -= b.worker_bursts;
  after.worker_jobs -= b.worker_jobs;
  after.spin_polls -= b.spin_polls;
  after.parks -= b.parks;
  return after;
}

/// The system under test, built from the workload's spec.
class System {
 public:
  System(const Workload& w, const Trace& tr, Ledger& ledger)
      : w_(w), tr_(tr), ledger_(ledger) {
    if (w.sites == 1) {
      dep_ = std::make_unique<sa::BuiltDeployment>(
          sa::build_deployment(w.site, false));
      sa::SessionConfig cfg;
      cfg.engine = dep_->engine;
      cfg.engine.num_threads = w.workers;
      session_ = std::make_unique<sa::EngineSession>(
          cfg, dep_->ap_ptrs,
          [this](const sa::EngineDecision& d) { ledger_.record(0, d, true); });
    } else {
      sa::FleetConfig fc;
      fc.spec.site = w.site;
      fc.spec.num_sites = w.sites;
      fc.threads_per_site = w.workers;
      fc.spoof_idle_frames = spoof_idle_frames(w);
      fleet_ = std::make_unique<sa::FleetCoordinator>(fc);
    }
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  sa::EngineSession& session(std::size_t site) {
    return session_ ? *session_ : fleet_->session(site);
  }

  /// Associate (on a fleet) and submit trace round r.
  void submit(std::uint64_t r, Mode mode, PhaseResult& res, bool time_submit) {
    const PoolRound& pr = tr_.round(r);
    ledger_.where.emplace_back(pr.site, ledger_.local[pr.site]++);
    if (fleet_) {
      associate(pr, mode, res);
    } else if (mode == Mode::kProbe && r % kProbeEvery == 0 && last_mac_) {
      const auto h0 = Clock::now();
      session_->wait_idle();
      const auto h1 = Clock::now();
      sa::FleetClientState msg;
      msg.mac = *last_mac_;
      msg.generation = 1;
      msg.state = session_->export_client_state(*last_mac_);
      const sa::ByteStream wire = sa::encode_client_state(msg);
      const auto h2 = Clock::now();
      res.quiesce_us.push_back(elapsed_us(h0, h1));
      res.migrate_us.push_back(elapsed_us(h1, h2));
      res.wire_bytes += wire.size();
      ++res.migrations;
    }
    if (pr.mac) {
      ++res.frame_rounds;
      last_mac_ = pr.mac;
    }
    std::vector<sa::CMat> chunks = pr.chunks;  // the session takes ownership
    const std::size_t n = chunks.size();
    const auto s0 = Clock::now();
    if (fleet_) {
      fleet_->submit_round(pr.site, std::move(chunks));
    } else {
      session_->submit_round(std::move(chunks));
    }
    if (time_submit) {
      res.submit_us.push_back(elapsed_us(s0, Clock::now()) /
                              static_cast<double>(n));
    }
  }

  void wait_idle() {
    for (std::size_t s = 0; s < w_.sites; ++s) session(s).wait_idle();
  }

  void drain() {
    if (fleet_) {
      fleet_->drain_all();
    } else {
      session_->drain();
    }
  }

  sa::SessionStats stats() {
    sa::SessionStats acc;
    for (std::size_t s = 0; s < w_.sites; ++s) {
      accumulate(acc, session(s).session_stats());
    }
    return acc;
  }

  /// Stamp rounds as their site retires them, until `stop` is set (a
  /// fleet has no per-decision sink; rounds_retired is the public
  /// boundary after a round's decisions are out).
  void poll_retired(const std::atomic<bool>& stop) {
    std::vector<std::uint64_t> seen(w_.sites);
    for (std::size_t s = 0; s < w_.sites; ++s) {
      seen[s] = session(s).session_stats().rounds_retired;
    }
    for (;;) {
      const bool last = stop.load(std::memory_order_acquire);
      const double t = ledger_.now_s();
      for (std::size_t s = 0; s < w_.sites; ++s) {
        const std::uint64_t n = session(s).session_stats().rounds_retired;
        std::vector<double>& done = ledger_.done_at[s];
        while (seen[s] < n && seen[s] < done.size()) done[seen[s]++] = t;
      }
      if (last) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// After drain: fleet decisions into the ledger, fleet footprint.
  void collect(PhaseResult& res) {
    if (!fleet_) return;
    for (std::size_t s = 0; s < w_.sites; ++s) {
      for (const sa::EngineDecision& d : fleet_->decisions(s)) {
        ledger_.record(s, d, false);
      }
    }
    res.home_map_bytes = fleet_->stats().home_map_bytes;
  }

 private:
  void associate(const PoolRound& pr, Mode mode, PhaseResult& res) {
    const HomeTracker::Step step = homes_.step(pr);
    if (step.action == HomeTracker::Action::kNone) return;
    ++res.handoff_ops;
    const bool migrate = step.action == HomeTracker::Action::kMigrate;
    const auto h0 = Clock::now();
    if (migrate && mode == Mode::kProbe) {
      fleet_->session(step.source).wait_idle();
      fleet_->session(pr.site).wait_idle();
    }
    const auto h1 = Clock::now();
    const sa::HandoffResult hr = fleet_->notify_association(*pr.mac, pr.site);
    const auto h2 = Clock::now();
    bool ok = hr.outcome == sa::FleetImportOutcome::kApplied &&
              hr.migrated == migrate;
    if (migrate) {
      // Under the zero-fault plan a cold start is a failure.
      ok = ok && hr.transport == sa::HandoffOutcome::kDelivered;
      ++res.migrations;
      res.wire_bytes += hr.wire.size();
      if (mode == Mode::kProbe) {
        res.quiesce_us.push_back(elapsed_us(h0, h1));
        res.migrate_us.push_back(elapsed_us(h1, h2));
      } else {
        res.handoff_us.push_back(elapsed_us(h1, h2));
      }
    }
    if (!ok) ++res.handoff_failures;
  }

  const Workload& w_;
  const Trace& tr_;
  Ledger& ledger_;
  HomeTracker homes_;
  std::optional<sa::MacAddress> last_mac_;
  // The session borrows the deployment's APs: declared after it.
  std::unique_ptr<sa::BuiltDeployment> dep_;
  std::unique_ptr<sa::EngineSession> session_;
  std::unique_ptr<sa::FleetCoordinator> fleet_;
};

/// Joins the fleet round poller on every path out of a phase.
struct Poller {
  std::atomic<bool> stop{false};
  std::thread thread;
  ~Poller() { join(); }
  void join() {
    stop.store(true, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
};

}  // namespace

PhaseResult run_phase(const Workload& w, const Trace& tr,
                      const PhaseOptions& opt) {
  PhaseResult res;
  std::vector<double> due;
  if (opt.mode == Mode::kOpen) {
    due = make_schedule(w.open_rate, opt.seconds, w.poisson,
                        opt.schedule_seed, opt.min_rounds);
  }
  const std::uint64_t rounds =
      opt.mode == Mode::kOpen
          ? due.size() + 1
          : std::max<std::uint64_t>(
                opt.min_rounds,
                static_cast<std::uint64_t>(w.closed_rate * opt.seconds));
  Ledger ledger(tr, w.check_rounds, rounds);
  malloc_trim(0);
  const double base_rss = rss_mb();
  double peak_rss = base_rss;

  const auto s0 = Clock::now();
  System sys(w, tr, ledger);
  sys.submit(0, opt.mode, res, false);
  sys.wait_idle();
  res.setup_s = elapsed_s(s0, Clock::now());
  peak_rss = std::max(peak_rss, rss_mb());

  const sa::SessionStats before = sys.stats();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  ledger.origin_s.store(
      std::chrono::duration<double>(t0.time_since_epoch()).count());
  std::uint64_t r = 1;
  Poller poller;
  if (opt.mode == Mode::kOpen) {
    if (w.sites > 1) {
      poller.thread = std::thread([&] { sys.poll_retired(poller.stop); });
    }
    for (double offset : due) {
      const auto when =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(offset));
      std::this_thread::sleep_until(when);
      res.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - when)
              .count());
      sys.submit(r++, opt.mode, res, true);
    }
  } else {
    auto next_sample = t0;
    while (r < rounds) {
      sys.submit(r++, opt.mode, res, false);
      if (Clock::now() >= next_sample) {
        peak_rss = std::max(peak_rss, rss_mb());
        next_sample = Clock::now() + std::chrono::milliseconds(5);
      }
    }
  }
  sys.drain();
  const auto t1 = Clock::now();
  res.cpu_s = process_cpu_s() - cpu0;
  poller.join();
  res.wall_s = elapsed_s(t0, t1);
  res.mem_peak_mb = std::max(peak_rss, rss_mb()) - base_rss;
  res.stats = delta(sys.stats(), before);
  res.decisions = res.stats.decisions_emitted;
  res.rounds = r;
  sys.collect(res);

  for (std::uint64_t q = 0; q < r; ++q) {
    if (!tr.round(q).mac) continue;
    const auto [s, k] = ledger.where[q];
    if (!ledger.decided[s][k]) {
      ++res.missing;
    } else if (opt.mode == Mode::kOpen && q >= 1 && ledger.done_at[s][k] >= 0) {
      res.latency_ms.push_back((ledger.done_at[s][k] - due[q - 1]) * 1e3);
    }
  }
  res.digest = combine(ledger.digests);
  return res;
}

double measure_setup(const Workload& w, const Trace& tr) {
  Ledger ledger(tr, 0, 4);
  PhaseResult unused;
  const auto s0 = Clock::now();
  System sys(w, tr, ledger);
  sys.submit(0, Mode::kClosed, unused, false);
  sys.wait_idle();
  return elapsed_s(s0, Clock::now());
}

}  // namespace perfbench
