// Measurement helpers shared by the benchmark and its self-tests:
// percentile selection, the decision digest, the span recorder and its
// self-time arithmetic, open-loop schedules, and process probes (CPU
// time, resident set).
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sa/capture/format.hpp"
#include "sa/engine/deployment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile of an ascending sample (p in [0, 1]): the
/// smallest sample with at least a share p of the sample at or below it.
/// 0 for an empty sample.
inline double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return sorted_percentile(v, p);
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The ten-samples-beyond rule: the highest percentile, at most `want`,
/// that leaves at least ten of `n` samples above it (n * (1 - p) >= 10).
/// Falls back to the median when even p90 has too few samples beyond.
inline double tail_quantile(std::size_t n, double want = 0.99) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.98, 0.95, 0.9};
  for (double p : kLadder) {
    if (p > want + 1e-12) continue;
    if (static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-6) return p;
  }
  return 0.5;
}

/// A timing summary: sample count, median, and the tail percentile the
/// ten-beyond rule allows (`tail_q` names which one it is).
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
};

inline Summary summarize(std::vector<double> v, double want = 0.99) {
  std::sort(v.begin(), v.end());
  Summary s;
  s.n = v.size();
  s.tail_q = tail_quantile(v.size(), want);
  s.p50 = sorted_percentile(v, 0.5);
  s.tail = sorted_percentile(v, s.tail_q);
  return s;
}

// --------------------------------------------------------------- digests

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void update(const std::uint8_t* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void update_u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    update(b, 8);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One site's decision digest: FNV-1a over the canonical SACP encoding
/// of every decision (the replay-equality bytes), plus drop counts per
/// policy.
struct SiteDigest {
  Fnv1a fnv;
  std::uint64_t decisions = 0;
  std::map<std::string, std::uint64_t, std::less<>> drops;

  void add(const sa::EngineDecision& d) {
    const sa::ByteStream bytes =
        sa::encode_decision(d.sequence, d.absolute_start, d.decision);
    fnv.update(bytes.data(), bytes.size());
    ++decisions;
    if (!d.decision.accepted) ++drops[std::string(d.decision.policy)];
  }
};

/// Fold per-site digests, in site order, into one value.
inline std::uint64_t combine(const std::vector<SiteDigest>& sites) {
  Fnv1a out;
  for (const SiteDigest& s : sites) {
    out.update_u64(s.fnv.value());
    out.update_u64(s.decisions);
    for (const auto& [policy, n] : s.drops) {
      out.update(policy);
      out.update_u64(n);
    }
  }
  return out.value();
}

/// Aligned rounds: every chunk of a stream is `round_len` samples long,
/// so a decision's absolute start sample names the round its frame
/// began in.
inline std::uint64_t round_of(std::size_t absolute_start,
                              std::size_t round_len) {
  return absolute_start / round_len;
}

// ------------------------------------------------------------- schedules

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) derived from `key`.
inline double unit_draw(std::uint64_t key) {
  return static_cast<double>(splitmix64(key) >> 11) * 0x1.0p-53;
}

/// Open-loop due times [s after the phase starts], fixed in advance:
/// Poisson arrivals at `rate` (exponential gaps drawn from `seed`), or
/// a fixed cadence of 1/rate. Every arrival inside `horizon_s`, and at
/// least `min_count` arrivals.
inline std::vector<double> make_schedule(double rate, double horizon_s,
                                         bool poisson, std::uint64_t seed,
                                         std::size_t min_count = 0) {
  std::vector<double> due;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    t += poisson ? -std::log1p(-unit_draw(seed ^ splitmix64(i))) / rate
                 : 1.0 / rate;
    if (t >= horizon_s && due.size() >= min_count) break;
    due.push_back(t);
  }
  return due;
}

// ----------------------------------------------------------------- spans

/// One timed call. Spans of the call tree nest through `parent`; kernel
/// spans are stage functions replayed on the same inputs outside the
/// tree, so they have no parent and never count toward a parent's time.
struct Span {
  const char* name = "";
  const char* layer = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t round = 0;
  bool kernel = false;

  double dur_us() const { return end_us - start_us; }
};

/// In-memory span recorder for one thread; spans are written out when
/// the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(const char* name, const char* layer, std::uint64_t round,
            bool kernel = false) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.round = round;
    s.kernel = kernel;
    s.parent = kernel || open_.empty() ? -1 : open_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(s);
    open_.push_back(id);
    spans_[static_cast<std::size_t>(id)].start_us = now_us();
    return id;
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const { return elapsed_us(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::uint64_t round, bool kernel = false)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, layer, round, kernel) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span [us]: its duration minus the part its direct
/// children cover.
inline std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_us();
  }
  return self;
}

/// Self time summed per layer over the call tree (kernel spans apart).
inline std::map<std::string, double> layer_self_us(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].kernel) out[spans[i].layer] += self[i];
  }
  return out;
}

/// Total duration of the root spans: the traced run's wall time inside
/// the call tree.
inline double root_wall_us(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (!s.kernel && s.parent < 0) total += s.dur_us();
  }
  return total;
}

/// Count, total and self duration per span name.
struct NameStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  const char* layer = "";
  bool kernel = false;
};

inline std::map<std::string, NameStats> stats_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameStats& ns = out[spans[i].name];
    ++ns.count;
    ns.total_us += spans[i].dur_us();
    ns.self_us += self[i];
    ns.layer = spans[i].layer;
    ns.kernel = spans[i].kernel;
  }
  return out;
}

/// Chrome trace-event JSON (chrome://tracing or Perfetto). Call-tree
/// spans go on thread 1, replayed kernels on thread 2.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"round\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.layer, s.start_us, s.dur_us(),
                 s.kernel ? 2 : 1, i, s.parent,
                 static_cast<unsigned long long>(s.round));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------- process probes

/// Process CPU time (user + system, all threads) [s].
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Current resident set [MB].
inline double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
