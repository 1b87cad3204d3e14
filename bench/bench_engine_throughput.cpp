// Engine throughput: frames/sec of the EngineSession frame-decision
// pipeline run lock-step (each round's decisions out before the next is
// submitted) versus thread count, AoA backend, wideband subband count,
// and policy-chain length, on the Figure-4 office with a 4-AP
// deployment.
//
// The workload (channel-simulated uplink chunks) is generated once and
// replayed against a fresh session per configuration, so the numbers
// isolate the receive pipeline itself: conditioning, detection, PHY
// decode, covariance, AoA estimation, grouping, and the fence/spoof
// decision — not the channel simulator.
//
// Usage: bench_engine_throughput [--smoke] [--pipelined]
//                                [--json <path>] [--min-fps <fps>]
//                                [packets-per-client] [max-threads]
//   --smoke      minimal workload (1 packet/client, 2 threads, short
//                sweeps) so CI can execute every section on each PR.
//   --pipelined  add the lock-step-vs-pipelined sweep: the same
//                multi-round workload through a lock-step session and
//                through a pipelined one (every round pushed without
//                waiting), per thread count. Pipelining overlaps round
//                N+1's scan/decode with round N's decisions, removing
//                the lock-step round-boundary bubble.
//   --json PATH  additionally write every sweep's numbers as a JSON
//                document — the machine-readable perf baseline
//                (BENCH_<pr>.json in the repo root is captured this way)
//                and the artifact the bench-smoke CI job uploads.
//   --min-fps X  perf-regression tripwire: exit non-zero when the thread
//                sweep's best frames/sec lands below X. CI passes a
//                generous floor derived from the checked-in baseline, so
//                a catastrophic scan-path regression fails the job while
//                ordinary CI noise never does.
//   --max-state-bytes B / --min-state-ratio R / --max-lookup-ns X
//                tracked-state tripwires at the million-MAC sweep point:
//                fail when compact bytes/client exceeds B, when the
//                baseline/compact ratio falls below R, or when the ACL
//                hit lookup exceeds X ns. CI derives the caps from the
//                checked-in baseline's tripwire block.
//   --require-scaling  scaling tripwire (needs --pipelined): the
//                pipelined frames/sec at the highest thread count that
//                actually fits the affinity mask must be >= the 1-thread
//                pipelined frames/sec. Oversubscribed sweep points
//                (threads > schedulable CPUs) are flagged in the JSON
//                and excluded — a 2-vCPU CI runner timeslicing 8 workers
//                measures the scheduler, not the dataplane.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#if defined(__linux__)
#include <malloc.h>
#include <sched.h>
#endif

#include "bench_common.hpp"
#include "sa/aoa/covariance.hpp"
#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/engine/session.hpp"
#include "sa/mac/acl.hpp"

using namespace sa;

namespace {

/// CPUs this process may actually be scheduled on — on a containerized
/// or cgroup-limited runner this is often smaller than
/// hardware_concurrency(), and it is the honest bound for judging
/// whether a thread-sweep point measured parallelism or timeslicing.
std::size_t affinity_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// One timed run over `rounds`, then a drain. Lock-step waits each
/// round's decisions out before submitting the next; otherwise every
/// round is pushed without waiting (the pipelined schedule). The session
/// is built and closed outside the timed region.
double run_once(const EngineConfig& ecfg, const std::vector<AccessPoint*>& ptrs,
                const std::vector<std::vector<CMat>>& rounds, bool lockstep,
                std::size_t* frames_out, SessionStats* stats_out = nullptr) {
  SessionConfig scfg;
  scfg.engine = ecfg;
  std::size_t frames = 0;
  EngineSession session(scfg, ptrs, [&](const EngineDecision&) { ++frames; });
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& round : rounds) {
    session.submit_round(round);
    if (lockstep) session.wait_idle();
  }
  session.drain();
  const auto t1 = std::chrono::steady_clock::now();
  *frames_out = frames;
  if (stats_out != nullptr) *stats_out = session.session_stats();
  session.close();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Satellite note: the SpectralContext conditions covariances with the
/// in-place forward-backward / diagonal-loading variants. Time the
/// copying originals against them on an 8x8 so the win is visible in
/// every bench run.
void covariance_conditioning_note(std::size_t reps) {
  Rng rng(7);
  CMat r(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i; j < 8; ++j) {
      const cd v = i == j ? cd{2.0 + 0.1 * static_cast<double>(i), 0.0}
                          : rng.complex_normal(1.0);
      r(i, j) = v;
      r(j, i) = std::conj(v);
    }
  }
  volatile double sink = 0.0;
  auto time_loop = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(reps);
  };
  // The pre-refactor hot path: the estimator copied the covariance into
  // its private working matrix, and forward_backward_average then
  // allocated and filled a *second* matrix from it — two full-matrix
  // materializations per estimate.
  const double fb_before = time_loop([&] {
    const CMat work = r;
    const CMat out = forward_backward_average(work);
    sink = sink + out(0, 0).real();
  });
  // The SpectralContext path: one single-pass average straight off the
  // shared raw covariance (the in-place variant serves the smoothed-
  // subarray branch, whose scratch matrix the context already owns).
  const double fb_after = time_loop([&] {
    const CMat out = forward_backward_average(r);
    sink = sink + out(0, 0).real();
  });
  const double dl = time_loop([&] {
    CMat work = r;  // the raw covariance must stay intact for reuse
    diagonal_load_inplace(work, 1e-3);
    sink = sink + work(0, 0).real();
  });
  std::printf(
      "\ncovariance conditioning (8x8, %zu reps):\n"
      "  forward-backward: %8.1f ns copy-then-average (pre-refactor) -> "
      "%8.1f ns single-pass\n"
      "  diagonal load:    %8.1f ns (copy + in-place load; the copy is the "
      "caller's —\n"
      "                    the raw covariance stays shareable in the "
      "SpectralContext)\n",
      reps, fb_before, fb_after, dl);
}

// ---- tracked-state sweep: per-client memory of the sa/common/compact
// substrate versus the node-based structures it replaced, at up to a
// million tracked MACs, plus MAC lookup latency through the ACL.

/// Heap bytes held by containers on CountingAlloc (the baseline
/// replicas, and the compact side's decrement FIFO), counted as the
/// real malloc chunk (usable size + header) so node overhead and
/// rounding — the costs the flat substrate exists to avoid — are
/// included.
std::size_t g_baseline_heap = 0;

template <class T>
struct CountingAlloc {
  using value_type = T;
  CountingAlloc() = default;
  template <class U>
  CountingAlloc(const CountingAlloc<U>&) {}  // NOLINT(google-explicit-*)
  T* allocate(std::size_t n) {
    void* p = ::operator new(n * sizeof(T));
#if defined(__linux__)
    g_baseline_heap += malloc_usable_size(p) + 8;
#else
    g_baseline_heap += n * sizeof(T);
#endif
    return static_cast<T*>(p);
  }
  void deallocate(T* p, [[maybe_unused]] std::size_t n) {
#if defined(__linux__)
    g_baseline_heap -= malloc_usable_size(p) + 8;
#else
    g_baseline_heap -= n * sizeof(T);
#endif
    ::operator delete(p);
  }
  template <class U>
  bool operator==(const CountingAlloc<U>&) const {
    return true;
  }
};

struct StateRow {
  std::size_t clients = 0;
  double compact_bytes = 0.0;   // per tracked client
  double baseline_bytes = 0.0;  // per tracked client
  double ratio = 0.0;
  double lookup_hit_ns = 0.0;
  double lookup_miss_ns = 0.0;
};

/// The workload both sides see: `n` distinct MACs churn through a
/// deployment bounded at `n` tracked clients — every MAC allowed on the
/// ACL and admitted to the spoof tracker, and each sends one
/// 16-frame burst through the rate limiter, after which its window
/// expires (the paper's MAC-rotation flood, observed once the wave has
/// passed). Tracker payloads (SignatureTracker) are excluded on both
/// sides — they are identical — so the numbers isolate the per-client
/// bookkeeping the substrate replaces.
constexpr std::size_t kBurstFrames = 16;
constexpr std::size_t kWindowFrames = 4096;

StateRow measure_tracked_state(std::size_t n) {
  StateRow row;
  row.clients = n;

  // ---- compact side: the real ACL, plus replicas of the spoof
  // detector's and rate limiter's exact state machines (FlatLruMap +
  // decrement FIFO, same types and admission logic).
  {
    AccessControlList acl;
    FlatLruMap<MacAddress, std::uint64_t> spoof_bk(n);
    struct RateState {
      std::uint32_t in_window = 0;
      std::uint32_t generation = 0;
    };
    struct Decrement {
      std::uint64_t due = 0;
      std::uint32_t generation = 0;
      MacAddress mac;
    };
    FlatLruMap<MacAddress, RateState> rate(n);
    const std::size_t heap_before = g_baseline_heap;
    std::deque<Decrement, CountingAlloc<Decrement>> pending;
    std::uint32_t next_gen = 0;
    std::uint64_t now = 0;
    const auto retire = [&] {
      while (!pending.empty() && pending.front().due <= now) {
        const Decrement d = pending.front();
        pending.pop_front();
        RateState* st = rate.find(d.mac);
        if (st == nullptr || st->generation != d.generation) continue;
        if (--st->in_window == 0) rate.erase(d.mac);
      }
    };
    for (std::size_t c = 0; c < n; ++c) {
      const MacAddress mac =
          MacAddress::from_index(static_cast<std::uint32_t>(c));
      acl.allow(mac);
      spoof_bk.get_or_emplace(mac, std::uint64_t{0});
      for (std::size_t f = 0; f < kBurstFrames; ++f) {
        ++now;
        retire();
        const auto r = rate.get_or_emplace(mac);
        if (r.inserted) r.value->generation = ++next_gen;
        ++r.value->in_window;
        pending.push_back({now + kWindowFrames, r.value->generation, mac});
      }
    }
    // The wave has passed: every window expires and the rate entries
    // erase themselves — the old structures have no equivalent event.
    now += kWindowFrames + 1;
    retire();
    const std::size_t compact_total =
        acl.memory_bytes() + spoof_bk.memory_bytes() + rate.memory_bytes() +
        sizeof(pending) + (g_baseline_heap - heap_before);
    row.compact_bytes =
        static_cast<double>(compact_total) / static_cast<double>(n);

    // ---- lookup latency through the real ACL: a present MAC and an
    // absent one, each one probe run of the flat set. Strided order
    // defeats the prefetcher.
    volatile std::size_t sink = 0;
    const std::size_t reps = std::min<std::size_t>(n, 1u << 20);
    auto time_ns = [&](std::uint32_t base) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < reps; ++i) {
        const std::uint32_t idx = static_cast<std::uint32_t>(
            (i * 2654435761ull) % n);
        sink = sink + (acl.is_allowed(MacAddress::from_index(base + idx)) ? 1u
                                                                          : 0u);
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::nano>(t1 - t0).count() /
             static_cast<double>(reps);
    };
    row.lookup_hit_ns = time_ns(0);
    row.lookup_miss_ns = time_ns(static_cast<std::uint32_t>(n));
  }

  // ---- baseline side: the structures this PR removed, verbatim
  // shapes (unordered containers + std::list LRU + per-MAC admit
  // vector), run through the identical workload. Idle MACs only ever
  // pruned their admits on access, so the burst residue stays.
  {
    using LruList = std::list<MacAddress, CountingAlloc<MacAddress>>;
    using LruIt = LruList::iterator;
    struct SpoofEntry {
      LruIt lru;
    };
    struct MacState {
      std::vector<std::size_t, CountingAlloc<std::size_t>> recent;
      LruIt lru;
    };
    g_baseline_heap = 0;
    std::unordered_set<MacAddress, std::hash<MacAddress>,
                       std::equal_to<MacAddress>, CountingAlloc<MacAddress>>
        acl;
    std::unordered_map<MacAddress, SpoofEntry, std::hash<MacAddress>,
                       std::equal_to<MacAddress>,
                       CountingAlloc<std::pair<const MacAddress, SpoofEntry>>>
        spoof_bk;
    LruList spoof_lru;
    std::unordered_map<MacAddress, MacState, std::hash<MacAddress>,
                       std::equal_to<MacAddress>,
                       CountingAlloc<std::pair<const MacAddress, MacState>>>
        rate;
    LruList rate_lru;
    std::size_t now = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const MacAddress mac =
          MacAddress::from_index(static_cast<std::uint32_t>(c));
      acl.insert(mac);
      spoof_lru.push_front(mac);
      spoof_bk.emplace(mac, SpoofEntry{spoof_lru.begin()});
      auto& st = rate[mac];
      if (st.recent.empty()) {
        rate_lru.push_front(mac);
        st.lru = rate_lru.begin();
      }
      for (std::size_t f = 0; f < kBurstFrames; ++f) {
        ++now;
        while (!st.recent.empty() && st.recent.front() + kWindowFrames <= now) {
          st.recent.erase(st.recent.begin());
        }
        st.recent.push_back(now);
      }
    }
    row.baseline_bytes =
        static_cast<double>(g_baseline_heap) / static_cast<double>(n);
  }
  row.ratio = row.compact_bytes > 0.0 ? row.baseline_bytes / row.compact_bytes
                                      : 0.0;
  return row;
}

// ---- JSON result collection (--json): every sweep appends its rows
// here and write_json serializes them. No external dependency — the
// schema is flat enough for fprintf.
struct SweepRow {
  std::string label;
  std::size_t threads = 0;
  std::size_t frames = 0;
  double fps = 0.0;
  double fps2 = 0.0;        // pipelined fps in the batch-vs-session sweep
  std::size_t extra = 0;    // overlap / subband count
  SessionStats session;     // dataplane counters (pipelined sweep only)
};

struct BenchResults {
  bool smoke = false;
  bool pipelined = false;
  int packets = 0;
  std::size_t num_aps = 0;
  std::size_t max_threads = 0;
  std::size_t affinity_cpus = 1;
  std::vector<SweepRow> threads_sweep;
  std::vector<SweepRow> pipelined_sweep;
  std::vector<SweepRow> estimator_sweep;
  std::vector<SweepRow> subband_sweep;
  std::vector<SweepRow> chain_sweep;
  std::vector<StateRow> state_sweep;
  double scan_sec = 0.0;
  double decode_sec = 0.0;
  std::size_t split_frames = 0;
};

void write_json(const BenchResults& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"engine_throughput\",\n"
               "  \"config\": {\"smoke\": %s, \"pipelined\": %s, "
               "\"packets_per_client\": %d, \"aps\": %zu, "
               "\"max_threads\": %zu, \"hardware_concurrency\": %u, "
               "\"affinity_cpus\": %zu},\n",
               r.smoke ? "true" : "false", r.pipelined ? "true" : "false",
               r.packets, r.num_aps, r.max_threads,
               std::thread::hardware_concurrency(), r.affinity_cpus);
  const auto oversub = [&](std::size_t threads) {
    return threads > r.affinity_cpus ? "true" : "false";
  };
  auto rows = [&](const char* name, const std::vector<SweepRow>& v,
                  auto&& one_row) {
    std::fprintf(f, "  \"%s\": [", name);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s\n    ", i == 0 ? "" : ",");
      one_row(v[i]);
    }
    // Always followed by the scan_decode_split/tripwire keys, so the
    // trailing comma is unconditional.
    std::fprintf(f, "\n  ],\n");
  };
  rows("threads_sweep", r.threads_sweep, [&](const SweepRow& s) {
    std::fprintf(f,
                 "{\"threads\": %zu, \"frames\": %zu, \"fps\": %.2f, "
                 "\"oversubscribed\": %s}",
                 s.threads, s.frames, s.fps, oversub(s.threads));
  });
  rows("pipelined_sweep", r.pipelined_sweep, [&](const SweepRow& s) {
    std::fprintf(f,
                 "{\"threads\": %zu, \"batch_fps\": %.2f, "
                 "\"pipelined_fps\": %.2f, \"max_overlapped_rounds\": %zu, "
                 "\"oversubscribed\": %s, \"worker_bursts\": %zu, "
                 "\"worker_jobs\": %zu, \"spin_polls\": %zu, \"parks\": %zu}",
                 s.threads, s.fps, s.fps2, s.extra, oversub(s.threads),
                 s.session.worker_bursts, s.session.worker_jobs,
                 s.session.spin_polls, s.session.parks);
  });
  rows("estimator_sweep", r.estimator_sweep, [&](const SweepRow& s) {
    std::fprintf(f, "{\"estimator\": \"%s\", \"frames\": %zu, \"fps\": %.2f}",
                 s.label.c_str(), s.frames, s.fps);
  });
  rows("subband_sweep", r.subband_sweep, [&](const SweepRow& s) {
    std::fprintf(f, "{\"subbands\": %zu, \"frames\": %zu, \"fps\": %.2f}",
                 s.extra, s.frames, s.fps);
  });
  rows("policy_chain_sweep", r.chain_sweep, [&](const SweepRow& s) {
    std::fprintf(f, "{\"chain\": \"%s\", \"frames\": %zu, \"fps\": %.2f}",
                 s.label.c_str(), s.frames, s.fps);
  });
  std::fprintf(f, "  \"tracked_state_sweep\": [");
  for (std::size_t i = 0; i < r.state_sweep.size(); ++i) {
    const StateRow& s = r.state_sweep[i];
    std::fprintf(f,
                 "%s\n    {\"clients\": %zu, "
                 "\"bytes_per_tracked_client\": %.1f, "
                 "\"baseline_bytes_per_client\": %.1f, \"ratio\": %.2f, "
                 "\"mac_lookup_hit_ns\": %.1f, "
                 "\"mac_lookup_miss_ns\": %.1f}",
                 i == 0 ? "" : ",", s.clients, s.compact_bytes,
                 s.baseline_bytes, s.ratio, s.lookup_hit_ns, s.lookup_miss_ns);
  }
  std::fprintf(f, "\n  ],\n");
  // Headline metrics from the largest (million-MAC) sweep point.
  const StateRow big =
      r.state_sweep.empty() ? StateRow{} : r.state_sweep.back();
  std::fprintf(f,
               "  \"bytes_per_tracked_client\": %.1f,\n"
               "  \"mac_lookup_ns\": {\"hit\": %.1f, \"miss\": %.1f},\n",
               big.compact_bytes, big.lookup_hit_ns, big.lookup_miss_ns);
  const double t1_fps =
      r.threads_sweep.empty() ? 0.0 : r.threads_sweep.front().fps;
  std::fprintf(f,
               "  \"scan_decode_split\": {\"scan_sec\": %.4f, "
               "\"decode_sec\": %.4f, \"frames\": %zu},\n"
               // Generous floors for the CI tripwires: 5%% of this run's
               // single-thread frames/sec (CI runners are slower and run
               // the smaller smoke workload, but a catastrophic hot-path
               // regression still lands far below), 2x this run's
               // bytes/client and 10x its hit latency, and the
               // acceptance floor of 4x on the state-size ratio.
               "  \"tripwire\": {\"min_smoke_fps\": %.1f, "
               "\"max_bytes_per_tracked_client\": %.1f, "
               "\"min_state_ratio\": 4.0, \"max_lookup_ns\": %.1f}\n"
               "}\n",
               r.scan_sec, r.decode_sec, r.split_frames, 0.05 * t1_fps,
               2.0 * big.compact_bytes, 10.0 * big.lookup_hit_ns);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool pipelined = false;
  bool require_scaling = false;
  const char* json_path = nullptr;
  double min_fps = 0.0;
  double max_state_bytes = 0.0;
  double min_state_ratio = 0.0;
  double max_lookup_ns = 0.0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--pipelined") == 0) {
      pipelined = true;
    } else if (std::strcmp(argv[i], "--require-scaling") == 0) {
      require_scaling = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-fps") == 0 && i + 1 < argc) {
      min_fps = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-state-bytes") == 0 &&
               i + 1 < argc) {
      max_state_bytes = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-state-ratio") == 0 &&
               i + 1 < argc) {
      min_state_ratio = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-lookup-ns") == 0 && i + 1 < argc) {
      max_lookup_ns = std::atof(argv[++i]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int packets =
      positional.size() > 0 ? std::atoi(positional[0]) : (smoke ? 1 : 6);
  const std::size_t max_threads =
      positional.size() > 1 ? std::strtoul(positional[1], nullptr, 10)
                            : (smoke ? 2 : 8);
  const std::size_t num_aps = 4;

  BenchResults results;
  results.smoke = smoke;
  results.pipelined = pipelined;
  results.packets = packets;
  results.num_aps = num_aps;
  results.max_threads = max_threads;
  results.affinity_cpus = affinity_cpu_count();

  sa::bench::print_header(
      "Engine throughput: frames/sec vs threads, AoA backend, subbands",
      smoke ? "smoke mode: minimal workload, every section exercised"
            : "engine scaling on the Figure-4 office (4 APs)");

  covariance_conditioning_note(smoke ? 2000 : 20000);

  const auto tb = OfficeTestbed::figure4();

  // One AP set per backend, drawn from identical RNG streams so chain
  // impairments and calibration match across backends.
  const AoaBackend backends[] = {AoaBackend::kMusic, AoaBackend::kCapon,
                                 AoaBackend::kBartlett, AoaBackend::kRootMusic,
                                 AoaBackend::kEsprit};
  std::vector<std::vector<std::unique_ptr<AccessPoint>>> ap_sets;
  for (AoaBackend backend : backends) {
    Rng rng(42);
    std::vector<std::unique_ptr<AccessPoint>> aps;
    for (const Vec2& spot : tb.ap_mounting_points(num_aps)) {
      AccessPointConfig cfg;
      cfg.position = spot;
      cfg.estimator = backend;
      aps.push_back(std::make_unique<AccessPoint>(cfg, rng));
    }
    ap_sets.push_back(std::move(aps));
  }

  // Pre-generate the workload once (placements are backend-independent).
  std::printf("\ngenerating workload: %d packets x 8 ring clients...\n",
              packets);
  std::vector<std::vector<CMat>> rounds;
  {
    Rng rng(42);
    UplinkConfig ucfg;
    ucfg.channel.noise_power = sa::bench::kNoisePower;
    UplinkSimulation sim(tb, ucfg, rng);
    for (const auto& ap : ap_sets[0]) sim.add_ap(ap->placement());
    std::uint16_t seq = 0;
    const int ring_clients[] = {1, 2, 3, 4, 5, 8, 9, 10};
    for (int p = 0; p < packets; ++p) {
      for (int id : ring_clients) {
        const Frame f = Frame::data(MacAddress::from_index(0xFF),
                                    MacAddress::from_index(id), Bytes{1, 2, 3},
                                    seq++);
        const CVec w =
            PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
        rounds.push_back(sim.transmit(tb.client(id).position, w, nullptr));
        sim.advance(0.25);
      }
    }
  }

  auto engine_config = [&](std::size_t threads) {
    EngineConfig ecfg;
    ecfg.num_threads = threads;
    ecfg.coordinator.fence_boundary = tb.building_outline();
    ecfg.coordinator.min_aps_for_fence = 2;
    return ecfg;
  };
  auto ap_ptrs = [&](std::size_t set) {
    std::vector<AccessPoint*> ptrs;
    for (const auto& ap : ap_sets[set]) ptrs.push_back(ap.get());
    return ptrs;
  };

  // ---- frames/sec vs thread count (MUSIC backend).
  std::printf("\n%-10s %10s %12s %10s\n", "threads", "frames", "frames/sec",
              "speedup");
  double base_fps = 0.0;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    std::size_t frames = 0;
    const double secs = run_once(engine_config(threads), ap_ptrs(0), rounds,
                                 /*lockstep=*/true, &frames);
    const double fps = static_cast<double>(frames) / secs;
    if (threads == 1) base_fps = fps;
    std::printf("%-10zu %10zu %12.1f %9.2fx\n", threads, frames, fps,
                fps / base_fps);
    results.threads_sweep.push_back({"", threads, frames, fps, 0.0, 0, {}});
    if (threads > results.affinity_cpus) {
      std::printf("  (oversubscribed: %zu threads on %zu schedulable CPUs)\n",
                  threads, results.affinity_cpus);
    }
  }
  std::printf("(hardware concurrency: %u, schedulable CPUs: %zu)\n",
              std::thread::hardware_concurrency(), results.affinity_cpus);

  // ---- scan vs decode split (single-threaded two-phase replay over the
  // same rounds): how much of the ingest budget the streaming scan path
  // takes versus the per-frame demodulate/commit work.
  {
    std::vector<std::unique_ptr<StreamingReceiver>> rxs;
    for (const auto& ap : ap_sets[0]) {
      rxs.push_back(std::make_unique<StreamingReceiver>(*ap, StreamingConfig{}));
    }
    for (const auto& round : rounds) {
      for (std::size_t i = 0; i < rxs.size(); ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        auto scan = rxs[i]->scan(&round[i]);
        results.scan_sec +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        const auto t1 = std::chrono::steady_clock::now();
        std::vector<std::optional<ReceivedPacket>> processed;
        processed.reserve(scan.candidates.size());
        for (const auto& cand : scan.candidates) {
          processed.push_back(
              ap_sets[0][i]->demodulate(*scan.conditioned, cand.detection));
        }
        results.split_frames +=
            rxs[i]->commit(scan, std::move(processed), false).size();
        results.decode_sec +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
                .count();
      }
    }
    std::printf(
        "\nscan/decode split (1 thread, two-phase replay): scan %.3fs, "
        "decode+commit %.3fs (%.1f%% scan), %zu frames\n",
        results.scan_sec, results.decode_sec,
        100.0 * results.scan_sec / (results.scan_sec + results.decode_sec),
        results.split_frames);
  }

  // ---- lock-step vs pipelined session (MUSIC backend). Same config,
  // same workload; the only difference is that the lock-step ("batch")
  // run waits every round out while the pipelined one lets round N+1's
  // scan/decode overlap round N's decode/AoA/policy phase.
  if (pipelined) {
    std::printf("\n%-10s %12s %14s %9s %9s\n", "threads", "batch f/s",
                "pipelined f/s", "speedup", "overlap");
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      std::size_t batch_frames = 0;
      const double batch_secs = run_once(engine_config(threads), ap_ptrs(0),
                                         rounds, /*lockstep=*/true,
                                         &batch_frames);
      std::size_t session_frames = 0;
      SessionStats stats;
      const double session_secs =
          run_once(engine_config(threads), ap_ptrs(0), rounds,
                   /*lockstep=*/false, &session_frames, &stats);

      const double batch_fps = static_cast<double>(batch_frames) / batch_secs;
      const double session_fps =
          static_cast<double>(session_frames) / session_secs;
      std::printf("%-10zu %12.1f %14.1f %8.2fx %7zu\n", threads, batch_fps,
                  session_fps, session_fps / batch_fps,
                  stats.max_overlapped_rounds);
      std::printf(
          "           (bursts %zu, jobs %zu, avg burst %.1f, spin polls %zu, "
          "parks %zu)\n",
          stats.worker_bursts, stats.worker_jobs,
          stats.worker_bursts > 0
              ? static_cast<double>(stats.worker_jobs) /
                    static_cast<double>(stats.worker_bursts)
              : 0.0,
          stats.spin_polls, stats.parks);
      results.pipelined_sweep.push_back({"", threads, session_frames,
                                         batch_fps, session_fps,
                                         stats.max_overlapped_rounds, stats});
      if (session_frames != batch_frames) {
        std::printf("  !! decision count diverged: batch %zu vs session %zu\n",
                    batch_frames, session_frames);
        return 1;
      }
    }
    std::printf("(overlap = max rounds dispatched but not yet scanned at "
                "once; >= 2 means the round boundary was pipelined away)\n");
  }

  // ---- frames/sec vs AoA backend (4 threads).
  const std::size_t backend_threads = std::min<std::size_t>(4, max_threads);
  std::printf("\n%-12s %10s %12s\n", "estimator", "frames", "frames/sec");
  for (std::size_t b = 0; b < ap_sets.size(); ++b) {
    std::size_t frames = 0;
    const double secs = run_once(engine_config(backend_threads), ap_ptrs(b),
                                 rounds, /*lockstep=*/true, &frames);
    std::printf("%-12s %10zu %12.1f\n", to_string(backends[b]), frames,
                static_cast<double>(frames) / secs);
    results.estimator_sweep.push_back({std::string(to_string(backends[b])), 0,
                                       frames,
                                       static_cast<double>(frames) / secs,
                                       0.0, 0, {}});
  }

  // ---- frames/sec vs wideband subband count (MUSIC backend). Per-band
  // covariances are smaller-snapshot but each adds an EVD + scan.
  {
    const std::vector<std::size_t> band_counts =
        smoke ? std::vector<std::size_t>{1, 4}
              : std::vector<std::size_t>{1, 2, 4, 8};
    std::printf("\n%-10s %10s %12s %10s\n", "subbands", "frames", "frames/sec",
                "vs K=1");
    double k1_fps = 0.0;
    for (std::size_t k : band_counts) {
      Rng rng(42);
      std::vector<std::unique_ptr<AccessPoint>> aps;
      std::vector<AccessPoint*> ptrs;
      for (const Vec2& spot : tb.ap_mounting_points(num_aps)) {
        AccessPointConfig cfg;
        cfg.position = spot;
        cfg.subbands = k;
        aps.push_back(std::make_unique<AccessPoint>(cfg, rng));
        ptrs.push_back(aps.back().get());
      }
      std::size_t frames = 0;
      const double secs = run_once(engine_config(backend_threads), ptrs,
                                   rounds, /*lockstep=*/true, &frames);
      const double fps = static_cast<double>(frames) / secs;
      if (k == 1) k1_fps = fps;
      std::printf("%-10zu %10zu %12.1f %9.2fx\n", k, frames, fps,
                  k1_fps > 0.0 ? fps / k1_fps : 1.0);
      results.subband_sweep.push_back({"", 0, frames, fps, 0.0, k, {}});
    }
  }

  // ---- frames/sec vs policy-chain length (MUSIC backend). The ACL
  // allows the whole workload and the rate limit is set far above it, so
  // every chain does the same decode/AoA work and differs only in
  // per-frame policy evaluations — the pipeline overhead itself.
  struct ChainCase {
    const char* label;
    std::vector<PolicyKind> policies;
  };
  const ChainCase chains[] = {
      {"2 (decode,spoof)", {PolicyKind::kSpoof}},
      {"3 (default)", default_policy_chain()},
      {"5 (acl+rate added)",
       {PolicyKind::kAcl, PolicyKind::kSpoof, PolicyKind::kFence,
        PolicyKind::kRateLimit}},
  };
  AccessControlList bench_acl;
  for (int id : {1, 2, 3, 4, 5, 8, 9, 10}) {
    bench_acl.allow(MacAddress::from_index(id));
  }
  std::printf("\n%-22s %10s %12s %10s\n", "policy chain", "frames",
              "frames/sec", "overhead");
  double chain_base_fps = 0.0;
  for (const auto& c : chains) {
    EngineConfig ecfg = engine_config(backend_threads);
    ecfg.coordinator.policies = c.policies;
    ecfg.coordinator.acl = bench_acl;
    ecfg.coordinator.rate_limit.max_frames = 1u << 20;
    std::size_t frames = 0;
    const double secs =
        run_once(ecfg, ap_ptrs(0), rounds, /*lockstep=*/true, &frames);
    const double fps = static_cast<double>(frames) / secs;
    if (chain_base_fps == 0.0) chain_base_fps = fps;
    std::printf("%-22s %10zu %12.1f %9.2f%%\n", c.label, frames, fps,
                100.0 * (chain_base_fps / fps - 1.0));
    results.chain_sweep.push_back({c.label, 0, frames, fps, 0.0, 0, {}});
  }

  // ---- tracked-state sweep: compact substrate vs the node-based
  // structures it replaced, per tracked client, up to a million MACs.
  {
    const std::vector<std::size_t> counts =
        smoke ? std::vector<std::size_t>{1000000}
              : std::vector<std::size_t>{100000, 1000000};
    std::printf(
        "\ntracked-state sweep (ACL + spoof bookkeeping + rate window; "
        "%zu-frame bursts, window %zu, measured after the wave):\n"
        "%-10s %14s %14s %7s %10s %12s\n",
        kBurstFrames, kWindowFrames, "clients", "compact B/cl",
        "baseline B/cl", "ratio", "hit ns", "miss ns");
    for (const std::size_t n : counts) {
      const StateRow row = measure_tracked_state(n);
      std::printf("%-10zu %14.1f %14.1f %6.2fx %10.1f %12.1f\n", row.clients,
                  row.compact_bytes, row.baseline_bytes, row.ratio,
                  row.lookup_hit_ns, row.lookup_miss_ns);
      results.state_sweep.push_back(row);
    }
  }

  if (json_path != nullptr) write_json(results, json_path);

  // Tracked-state tripwires (floors come from the checked-in baseline
  // via CI): per-client bytes, compaction ratio, and lookup latency at
  // the largest sweep point.
  if (!results.state_sweep.empty() &&
      (max_state_bytes > 0.0 || min_state_ratio > 0.0 ||
       max_lookup_ns > 0.0)) {
    const StateRow& big = results.state_sweep.back();
    if (max_state_bytes > 0.0 && big.compact_bytes > max_state_bytes) {
      std::printf("\n!! state tripwire: %.1f bytes/client above cap %.1f\n",
                  big.compact_bytes, max_state_bytes);
      return 1;
    }
    if (min_state_ratio > 0.0 && big.ratio < min_state_ratio) {
      std::printf("\n!! state tripwire: compaction ratio %.2fx below %.2fx\n",
                  big.ratio, min_state_ratio);
      return 1;
    }
    if (max_lookup_ns > 0.0 && big.lookup_hit_ns > max_lookup_ns) {
      std::printf("\n!! state tripwire: hit lookup %.1f ns above cap %.1f\n",
                  big.lookup_hit_ns, max_lookup_ns);
      return 1;
    }
    std::printf("\nstate tripwire ok: %.1f B/client, %.2fx vs baseline, "
                "%.1f ns hit / %.1f ns miss\n",
                big.compact_bytes, big.ratio, big.lookup_hit_ns,
                big.lookup_miss_ns);
  }

  if (min_fps > 0.0) {
    double best = 0.0;
    for (const auto& row : results.threads_sweep) best = std::max(best, row.fps);
    if (best < min_fps) {
      std::printf("\n!! perf tripwire: best frames/sec %.1f below floor %.1f\n",
                  best, min_fps);
      return 1;
    }
    std::printf("\nperf tripwire ok: best frames/sec %.1f >= floor %.1f\n",
                best, min_fps);
  }

  // Scaling tripwire: among the pipelined sweep points that actually fit
  // the affinity mask, the widest one must not be slower than 1 thread.
  // Oversubscribed points are excluded — on a 1- or 2-CPU runner the
  // wider configurations measure timeslicing, not the dataplane.
  if (require_scaling) {
    if (results.pipelined_sweep.empty()) {
      std::printf("\n!! --require-scaling needs --pipelined\n");
      return 1;
    }
    const SweepRow* base = nullptr;
    const SweepRow* widest = nullptr;
    for (const auto& row : results.pipelined_sweep) {
      if (row.threads > results.affinity_cpus && row.threads != 1) continue;
      if (row.threads == 1) base = &row;
      if (widest == nullptr || row.threads > widest->threads) widest = &row;
    }
    if (base == nullptr || widest == nullptr) {
      std::printf("\n!! scaling tripwire: no in-core sweep points\n");
      return 1;
    }
    if (widest->fps2 < base->fps2) {
      std::printf(
          "\n!! scaling tripwire: pipelined %.1f f/s at %zu threads fell "
          "below the 1-thread %.1f f/s\n",
          widest->fps2, widest->threads, base->fps2);
      return 1;
    }
    std::printf(
        "\nscaling tripwire ok: pipelined %.1f f/s at %zu threads >= "
        "1-thread %.1f f/s (%zu schedulable CPUs)\n",
        widest->fps2, widest->threads, base->fps2, results.affinity_cpus);
  }
  return 0;
}
