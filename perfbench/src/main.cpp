// perfbench: the SecureAngle trace-replay benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--source-id ID]
//
// One run synthesizes the workload's seeded trace (untimed), then
// replays it through the system, built fresh from its spec each time:
//
//   set-up       build -> the decision for round 0, several times;
//   warm-up      one closed loop whose figures are not used;
//   closed loop  the generator held back only by the session's
//                backpressure (throughput, CPU per frame, memory),
//                repeated on a fresh system each time;
//   open loop    rounds due on a schedule fixed in advance, each frame
//                timed from its due time (latency), split into windows
//                by due time;
//   serial       one thread through the public stage functions: the
//                single-threaded baseline and the decision oracle;
//
// and with --trace 1 additionally
//
//   traced       the serial run again with a span around every call,
//                written as Chrome-trace JSON plus a self-time table;
//   probe        a closed loop with each handoff split into quiescence
//                and migration.
//
// Every phase's decision digest over the trace's check prefix must
// agree. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "replay.hpp"
#include "serial.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

/// Set-up-only builds at the start of a run, and before every closed-loop
/// repetition, so the set-up samples (with those of every phase) span the
/// whole run.
constexpr int kSetupReps = 4;
constexpr int kSetupsPerRep = 2;
/// Closed-loop repetitions per run, each on a freshly built system, and
/// windows the open loop's frames are split into by due time. Every
/// end-to-end figure is a median over repetitions or windows, so a
/// passing disturbance of the host moves few of the values it is taken
/// over.
constexpr int kReps = 10;
/// Rounds past the check prefix every phase replays, so deferred
/// detections of prefix frames are emitted the same way everywhere.
constexpr std::uint64_t kMargin = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  int trace = 0;
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::string note) {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }

  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = format(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    return out + "}}";
  }

  bool all_finite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

 private:
  std::vector<Metric> metrics_;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

/// The host and build every number was taken on. A non-optimized or
/// sanitizer build is flagged as not a measurement.
std::string host_record(const Args& a) {
  int affinity = 0;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) affinity = CPU_COUNT(&set);
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(PERFBENCH_BUILD_TYPE)
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  const bool measurement = optimized && std::strcmp(sanitizer, "none") == 0;
  return format(
      "{\"affinity_cpus\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"optimized\": %s, \"sanitizer\": \"%s\", \"compiler\": \"%s\", "
      "\"commit\": \"%s\", \"measurement\": %s}",
      affinity, std::thread::hardware_concurrency(),
      json_escape(build_type).c_str(), optimized ? "true" : "false", sanitizer,
      json_escape(compiler).c_str(), json_escape(a.source_id).c_str(),
      measurement ? "true" : "false");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Percentile `p` of each of `n` consecutive, near-equal windows of `v`.
std::vector<double> window_percentiles(const std::vector<double>& v,
                                       std::size_t n, double p) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto from = v.begin() + static_cast<std::ptrdiff_t>(v.size() * i / n);
    const auto to =
        v.begin() + static_cast<std::ptrdiff_t>(v.size() * (i + 1) / n);
    if (from != to) out.push_back(percentile({from, to}, p));
  }
  return out;
}

std::size_t span_count(const std::map<std::string, NameStats>& by,
                       const char* name) {
  const auto it = by.find(name);
  return it == by.end() ? 0 : it->second.count;
}

double span_total_us(const std::map<std::string, NameStats>& by,
                     const char* name) {
  const auto it = by.find(name);
  return it == by.end() ? 0.0 : it->second.total_us;
}

/// Mean duration [us] of the spans named `name`.
double mean_span_us(const std::map<std::string, NameStats>& by,
                    const char* name) {
  return ratio(span_total_us(by, name),
               static_cast<double>(span_count(by, name)));
}

/// The per-layer self-time table of the traced run, printed and written
/// next to the Chrome trace.
std::string self_time_table(const std::vector<Span>& spans,
                            double untraced_wall_s,
                            const SerialResult& traced) {
  const double root_us = root_wall_us(spans);
  const double untraced_us = untraced_wall_s * 1e6;
  std::string out = format(
      "self time by layer (serial traced run, %" PRIu64 " rounds):\n",
      traced.rounds);
  double sum_us = 0.0;
  for (const auto& [layer, us] : layer_self_us(spans)) {
    out += format("  %-10s %12.3f ms %6.2f%%\n", layer.c_str(), us / 1e3,
                  100.0 * ratio(us, root_us));
    sum_us += us;
  }
  out += format("  %-10s %12.3f ms (traced wall in the call tree)\n", "sum",
                sum_us / 1e3);
  out += format(
      "untraced serial wall %.3f ms; trace.overhead_frac %.4f; "
      "|sum - untraced| / untraced %.4f\n",
      untraced_us / 1e3, ratio(root_us, untraced_us) - 1.0,
      std::fabs(ratio(sum_us - untraced_us, untraced_us)));
  out += "spans by name (kernels are replays outside the call tree):\n";
  for (const auto& [name, ns] : stats_by_name(spans)) {
    out += format("  %-22s %-9s %8zu calls %12.3f ms total %12.3f ms self "
                  "%10.2f us mean%s\n",
                  name.c_str(), ns.layer, ns.count, ns.total_us / 1e3,
                  ns.self_us / 1e3,
                  ns.total_us / static_cast<double>(ns.count),
                  ns.kernel ? " (kernel)" : "");
  }
  return out;
}

int run(const Args& a) {
  const auto w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  const bool traced = a.trace == 1;
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w->name.c_str(), a.seed, a.seconds, a.trace);
  std::printf("host %s\n", host_record(a).c_str());

  const Trace tr = synthesize(*w);
  malloc_trim(0);
  std::printf(
      "trace: %zu site(s) x %zu AP(s), pool of %zu rounds (%zu with a "
      "frame, %.1f MB), %zu samples per round, frame share %.3f, "
      "synthesized in %.3f s\n",
      tr.sites, tr.aps_per_site, tr.pool.size(), tr.frame_entries,
      tr.pool_mb(), tr.round_len, tr.frame_share, tr.synth_s);
  std::fflush(stdout);

  const std::uint64_t min_rounds = w->check_rounds + kMargin;
  const double s = a.seconds;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(measure_setup(*w, tr));

  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const std::string& phase, const PhaseResult& p) {
    digests.emplace_back(phase, p.digest);
    attempted += p.frame_rounds + p.handoff_ops;
    failed += p.missing + p.handoff_failures;
  };

  PhaseOptions closed_opt;
  closed_opt.mode = Mode::kClosed;
  closed_opt.min_rounds = min_rounds;

  // Warm-up: a closed loop whose figures are not used (its decisions are
  // still checked), so no timed phase pays for first touches of the
  // inputs and the allocator's first growth.
  closed_opt.seconds = s * 0.04;
  account("warmup", run_phase(*w, tr, closed_opt));

  closed_opt.seconds = s * (traced ? 0.25 : 0.35) / kReps;
  std::vector<PhaseResult> closed_reps;
  std::vector<double> rep_fps, rep_cpu_ms, rep_mem_mb;
  std::uint64_t closed_decisions = 0;
  for (int i = 0; i < kReps; ++i) {
    for (int j = 0; j < kSetupsPerRep; ++j) {
      setups.push_back(measure_setup(*w, tr));
    }
    closed_reps.push_back(run_phase(*w, tr, closed_opt));
    const PhaseResult& c = closed_reps.back();
    account(format("closed%d", i + 1), c);
    setups.push_back(c.setup_s);
    const double decided = static_cast<double>(c.decisions);
    rep_fps.push_back(ratio(decided, c.wall_s));
    rep_cpu_ms.push_back(ratio(c.cpu_s * 1e3, decided));
    rep_mem_mb.push_back(c.mem_peak_mb);
    closed_decisions += c.decisions;
    std::printf("closed loop %d: %" PRIu64 " decisions in %.3f s, %.1f fps, "
                "%.3f ms CPU/frame, %.1f MB\n",
                i + 1, c.decisions, c.wall_s, rep_fps.back(),
                rep_cpu_ms.back(), rep_mem_mb.back());
    std::fflush(stdout);
  }
  const PhaseResult& closed = closed_reps.front();

  // One open loop on one system, warm after its first window; latency
  // percentiles are medians over the windows' own.
  PhaseOptions open_opt;
  open_opt.mode = Mode::kOpen;
  open_opt.seconds = s * (traced ? 0.30 : 0.45);
  open_opt.min_rounds = min_rounds;
  open_opt.schedule_seed = splitmix64(a.seed ^ 0x6f70656e6c6f6f70ULL);
  const PhaseResult open = run_phase(*w, tr, open_opt);
  account("open", open);
  setups.push_back(open.setup_s);
  const std::vector<double> win_p50 =
      window_percentiles(open.latency_ms, kReps, 0.5);
  const std::vector<double> win_p90 =
      window_percentiles(open.latency_ms, kReps, 0.9);
  for (std::size_t i = 0; i < win_p50.size(); ++i) {
    std::printf("open loop window %zu: p50 %.3f ms, p90 %.3f ms\n", i + 1,
                win_p50[i], win_p90[i]);
  }

  const SerialResult serial =
      run_serial(*w, tr, 0, min_rounds, s * 0.08, nullptr);
  digests.emplace_back("serial", serial.digest);

  Tracer tracer;
  SerialResult traced_run;
  PhaseResult probe;
  // The untraced serial wall: the faster of two untraced runs over the
  // same rounds, so one run disturbed by the host does not pass for
  // tracing overhead.
  double serial_wall_s = serial.wall_s;
  if (traced) {
    traced_run = run_serial(*w, tr, serial.rounds, 0, 0.0, &tracer);
    const SerialResult repeat =
        run_serial(*w, tr, serial.rounds, 0, 0.0, nullptr);
    serial_wall_s = std::min(serial_wall_s, repeat.wall_s);
    digests.emplace_back("traced", traced_run.digest);
    digests.emplace_back("serial-repeat", repeat.digest);
    PhaseOptions probe_opt;
    probe_opt.mode = Mode::kProbe;
    probe_opt.seconds = s * 0.15;
    probe_opt.min_rounds = min_rounds;
    probe = run_phase(*w, tr, probe_opt);
    account("probe", probe);
  }

  bool agree = true;
  std::printf("digest over the first %zu trace rounds:", w->check_rounds);
  for (const auto& [phase, d] : digests) {
    std::printf(" %s=%016" PRIx64, phase.c_str(), d);
    agree = agree && d == digests.front().second;
  }
  std::printf(" -> %s\n", agree ? "agree" : "MISMATCH");
  std::printf(
      "open loop: %" PRIu64 " rounds, %" PRIu64 " decisions in %.3f s; "
      "serial: %" PRIu64 " rounds, %" PRIu64 " decisions in %.3f s\n",
      open.rounds, open.decisions, open.wall_s, serial.rounds,
      serial.decisions, serial.wall_s);
  std::printf("serial decisions: %" PRIu64 ", dropped by policy:",
              serial.decisions);
  for (const auto& [policy, n] : serial.drops) {
    std::printf(" %s=%" PRIu64, policy.c_str(), n);
  }
  std::printf("\n");
  if (serial.missing != 0) {
    std::printf("serial replay left %" PRIu64 " frame round(s) undecided\n",
                serial.missing);
  }

  Report rep;
  const double fps = median(rep_fps);
  const double serial_fps =
      ratio(static_cast<double>(serial.decisions), serial_wall_s);
  const Summary handoff = summarize(open.handoff_us);
  if (!traced) {
    rep.add("throughput_fps", fps, "fps",
            format("median of %d closed loops, n=%" PRIu64
                   " frames, %zu worker(s)/site",
                   kReps, closed_decisions, w->workers));
    rep.add("cpu_ms_per_frame", median(rep_cpu_ms), "ms",
            format("median of %d closed loops, n=%" PRIu64 " frames",
                   kReps, closed_decisions));
    rep.add("mem_peak_mb", median(rep_mem_mb), "MB",
            format("median of %d closed loops, over %.1f MB of inputs",
                   kReps, tr.pool_mb()));
    rep.add("setup_s", median(setups), "s",
            format("n=%zu set-ups, median", setups.size()));
    const Summary lat = summarize(open.latency_ms);
    rep.add("latency_p50_ms", median(win_p50), "ms",
            format("median of %zu windows' p50, n=%zu frames, open loop at "
                   "%.0f rounds/s",
                   win_p50.size(), lat.n, w->open_rate));
    // The tail is printed but not bounded: on a shared host a few
    // scheduling hiccups per run decide it (engine.latency_p90_ms and
    // engine.latency_p99_ms under --trace 1).
    std::printf("latency tail: p90 %.3f ms (median of %zu windows), p%.1f "
                "%.3f ms (ten-beyond rule), n=%zu\n",
                median(win_p90), win_p90.size(), lat.tail_q * 100.0, lat.tail,
                lat.n);
    if (w->sites > 1) {
      std::printf("handoff (open loop, cross-site notify_association): "
                  "p50 %.1f us, p%.1f %.1f us, n=%zu\n",
                  handoff.p50, handoff.tail_q * 100.0, handoff.tail, handoff.n);
    }
  } else {
    const auto by = stats_by_name(tracer.spans());
    const SerialCounts& c = traced_run.counts;
    const auto n_of = [&](const char* name) {
      return format("n=%zu", span_count(by, name));
    };
    rep.add("streaming.scan_us", mean_span_us(by, "streaming.scan"), "us",
            n_of("streaming.scan"));
    rep.add("streaming.scan_ns_per_sample",
            ratio(span_total_us(by, "streaming.scan") * 1e3,
                  static_cast<double>(c.samples_scanned)),
            "ns", format("n=%" PRIu64 " samples", c.samples_scanned));
    rep.add("array.condition_ns_per_sample",
            ratio(span_total_us(by, "array.condition") * 1e3,
                  static_cast<double>(c.cols_conditioned)),
            "ns", format("n=%" PRIu64 " samples (kernel)", c.cols_conditioned));
    rep.add("streaming.commit_us", mean_span_us(by, "streaming.commit"), "us",
            n_of("streaming.commit"));
    rep.add("streaming.useful_decode_ratio",
            ratio(static_cast<double>(c.packets_emitted),
                  static_cast<double>(c.demodulations)),
            "ratio",
            format("%" PRIu64 " packets / %" PRIu64 " demodulations",
                   c.packets_emitted, c.demodulations));
    rep.add("phy.decode_us", mean_span_us(by, "phy.decode"), "us",
            n_of("phy.decode") + " (kernel)");
    rep.add("phy.decode_ok_ratio",
            ratio(static_cast<double>(c.decode_ok),
                  static_cast<double>(c.decode_calls)),
            "ratio",
            format("%" PRIu64 " / %" PRIu64, c.decode_ok, c.decode_calls));
    rep.add("aoa.prepare_us", mean_span_us(by, "aoa.prepare"), "us",
            n_of("aoa.prepare"));
    rep.add("aoa.covariance_us", mean_span_us(by, "aoa.covariance"), "us",
            n_of("aoa.covariance") + " (kernel)");
    rep.add("aoa.evd_us", mean_span_us(by, "aoa.evd"), "us", n_of("aoa.evd"));
    rep.add("aoa.spectrum_us", mean_span_us(by, "aoa.spectrum"), "us",
            n_of("aoa.spectrum"));
    rep.add("aoa.assemble_us", mean_span_us(by, "aoa.assemble"), "us",
            n_of("aoa.assemble"));
    rep.add("aoa.bands_per_frame",
            ratio(static_cast<double>(c.bands),
                  static_cast<double>(span_count(by, "aoa.assemble"))),
            "count", n_of("aoa.assemble"));
    rep.add("policy.group_us", mean_span_us(by, "policy.group"), "us",
            n_of("policy.group"));
    rep.add("policy.spoof_observe_us",
            mean_span_us(by, "policy.spoof_observe"), "us",
            n_of("policy.spoof_observe"));
    rep.add("policy.decide_us", mean_span_us(by, "policy.decide"), "us",
            n_of("policy.decide"));
    rep.add("policy.tracked_macs", static_cast<double>(traced_run.tracked_macs),
            "count", "spoof trackers at the end of the traced run");
    rep.add("policy.drop_frac", traced_run.drop_frac, "ratio",
            format("n=%" PRIu64 " frames", c.frames));
    const Summary lat = summarize(open.latency_ms);
    rep.add("engine.latency_p90_ms", median(win_p90), "ms",
            format("median of %zu windows' p90, n=%zu, open loop",
                   win_p90.size(), lat.n));
    rep.add("engine.latency_p99_ms", lat.tail, "ms",
            format("p%.1f (ten-beyond rule), n=%zu, open loop",
                   lat.tail_q * 100.0, lat.n));
    rep.add("engine.submit_us", mean(open.submit_us), "us",
            format("n=%zu rounds, open loop", open.submit_us.size()));
    const double open_rounds = static_cast<double>(open.rounds - 1);
    rep.add("engine.parks_per_round",
            ratio(static_cast<double>(open.stats.parks), open_rounds), "count",
            "open loop");
    rep.add("engine.spin_polls_per_round",
            ratio(static_cast<double>(open.stats.spin_polls), open_rounds),
            "count", "open loop");
    rep.add("engine.jobs_per_burst",
            ratio(static_cast<double>(closed.stats.worker_jobs),
                  static_cast<double>(closed.stats.worker_bursts)),
            "count", "closed loop");
    rep.add("engine.max_overlapped_rounds",
            static_cast<double>(closed.stats.max_overlapped_rounds), "count",
            "closed loop");
    rep.add("engine.submit_blocks",
            ratio(static_cast<double>(closed.stats.submit_ring_full_blocks),
                  static_cast<double>(closed.rounds - 1)),
            "count", "blocked submits per round, closed loop");
    rep.add("engine.speedup_vs_serial", ratio(fps, serial_fps), "ratio",
            format("%.1f fps closed loop / %.1f fps untraced serial", fps,
                   serial_fps));
    const Summary quiesce = summarize(probe.quiesce_us);
    const Summary migrate = summarize(probe.migrate_us);
    rep.add("fleet.quiesce_us_p50", quiesce.p50, "us",
            format("n=%zu, probe", quiesce.n));
    rep.add("fleet.quiesce_us_p99", quiesce.tail, "us",
            format("p%.1f, n=%zu, probe", quiesce.tail_q * 100.0, quiesce.n));
    rep.add("fleet.migrate_us_p50", migrate.p50, "us",
            format("n=%zu, probe", migrate.n));
    rep.add("fleet.migrate_us_p99", migrate.tail, "us",
            format("p%.1f, n=%zu, probe", migrate.tail_q * 100.0, migrate.n));
    // A single site has no cross-site handoff: its figure is what a
    // handoff out of the loaded site pays (the probe's quiescence plus
    // export), so the metric is measured on every workload.
    std::vector<double> single_site_handoff;
    for (std::size_t i = 0; i < probe.quiesce_us.size(); ++i) {
      single_site_handoff.push_back(probe.quiesce_us[i] + probe.migrate_us[i]);
    }
    const Summary hand =
        w->sites > 1 ? handoff : summarize(single_site_handoff);
    const char* hand_src = w->sites > 1 ? "open loop" : "probe";
    rep.add("fleet.handoff_us_p50", hand.p50, "us",
            format("n=%zu, %s", hand.n, hand_src));
    rep.add("fleet.handoff_us_p99", hand.tail, "us",
            format("p%.1f, n=%zu, %s", hand.tail_q * 100.0, hand.n, hand_src));
    rep.add("fleet.wire_bytes",
            ratio(static_cast<double>(probe.wire_bytes),
                  static_cast<double>(probe.migrations)),
            "B", format("per migration, n=%" PRIu64, probe.migrations));
    rep.add("fleet.handoffs_per_kframe",
            w->sites > 1 ? ratio(1e3 * static_cast<double>(open.migrations),
                                 static_cast<double>(open.frame_rounds))
                         : 0.0,
            "count", "open loop");
    rep.add("fleet.home_map_bytes", static_cast<double>(open.home_map_bytes),
            "B", "open loop");
    const Summary late = summarize(open.late_ms);
    rep.add("loadgen.late_p99_ms", late.tail, "ms",
            format("p%.1f, n=%zu", late.tail_q * 100.0, late.n));
    rep.add("loadgen.synth_s", tr.synth_s, "s",
            format("%zu pool rounds", tr.pool.size()));
    rep.add("trace.overhead_frac",
            ratio(root_wall_us(tracer.spans()), serial_wall_s * 1e6) - 1.0,
            "ratio", "traced vs untraced serial wall");

    const std::string table =
        self_time_table(tracer.spans(), serial_wall_s, traced_run);
    std::printf("%s", table.c_str());
    const std::string stem =
        a.out_dir + "/trace-" + w->name + "-seed" + std::to_string(a.seed);
    if (write_chrome_trace(stem + ".json", tracer.spans())) {
      std::printf("chrome trace: %s.json (%zu spans)\n", stem.c_str(),
                  tracer.spans().size());
    }
    if (std::FILE* f = std::fopen((stem + "-selftime.txt").c_str(), "w")) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
  }

  if (!agree) failed = attempted;
  const bool correct =
      agree && failed == 0 && serial.missing == 0 && rep.all_finite();
  rep.print();
  std::printf("%s\n", rep.json(correct, attempted == 0 ? 1 : attempted, failed)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--source-id ID]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "perfbench: unknown error\n");
  }
  std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
              "\"metrics\": {}}\n");
  return 1;
}
