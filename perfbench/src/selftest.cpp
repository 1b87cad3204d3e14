// Harness self-tests: percentile selection under the ten-beyond rule,
// decision-to-round mapping on aligned rounds, open-loop schedule
// determinism, span self-time arithmetic, and decision-digest agreement
// on a tiny trace at 1 and 2 workers (and on a tiny fleet).
//
//   perfbench_selftest        exit 0 when every check holds
#include <cmath>
#include <cstdio>
#include <set>

#include "harness.hpp"
#include "replay.hpp"
#include "sa/engine/session.hpp"
#include "serial.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                        \
    }                                                                    \
  } while (false)

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 0.0) == 1.0);
  CHECK(percentile(v, 0.5) == 50.0);
  CHECK(percentile(v, 0.9) == 90.0);
  CHECK(percentile(v, 0.99) == 99.0);
  CHECK(percentile(v, 1.0) == 100.0);
  CHECK(percentile({}, 0.5) == 0.0);

  // p99 needs 1000 samples to leave ten beyond it; below that the rule
  // steps down the ladder.
  CHECK(tail_quantile(100000, 0.999) == 0.999);
  CHECK(tail_quantile(10000) == 0.99);
  CHECK(tail_quantile(1000) == 0.99);
  CHECK(tail_quantile(999) == 0.98);
  CHECK(tail_quantile(500) == 0.98);
  CHECK(tail_quantile(499) == 0.95);
  CHECK(tail_quantile(200) == 0.95);
  CHECK(tail_quantile(100) == 0.9);
  CHECK(tail_quantile(99) == 0.5);
  CHECK(tail_quantile(0) == 0.5);

  const Summary s = summarize(v);
  CHECK(s.n == 100);
  CHECK(s.tail_q == 0.9);
  CHECK(s.tail == 90.0);
  CHECK(s.p50 == 50.0);
}

void test_schedule() {
  const auto a = make_schedule(200.0, 2.0, true, 42);
  const auto b = make_schedule(200.0, 2.0, true, 42);
  const auto c = make_schedule(200.0, 2.0, true, 43);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() > 340 && a.size() < 460);  // ~400 arrivals expected
  CHECK(std::is_sorted(a.begin(), a.end()));
  CHECK(!a.empty() && a.back() < 2.0);
  const auto fixed = make_schedule(100.0, 1.0, false, 7);
  CHECK(fixed.size() == 99 || fixed.size() == 100);
  CHECK(std::fabs(fixed[1] - fixed[0] - 0.01) < 1e-12);
  CHECK(make_schedule(100.0, 0.1, false, 7, 50).size() == 50);
}

void test_self_time() {
  std::vector<Span> spans(5);
  spans[0] = {"root", "replay", 0.0, 100.0, -1, 0, false};
  spans[1] = {"a", "streaming", 10.0, 40.0, 0, 0, false};
  spans[2] = {"b", "aoa", 50.0, 70.0, 0, 0, false};
  spans[3] = {"c", "aoa", 55.0, 60.0, 2, 0, false};
  spans[4] = {"k", "phy", 200.0, 230.0, -1, 0, true};
  const auto self = self_times_us(spans);
  CHECK(self[0] == 50.0);
  CHECK(self[1] == 30.0);
  CHECK(self[2] == 15.0);
  CHECK(self[3] == 5.0);
  CHECK(self[4] == 30.0);
  const auto layers = layer_self_us(spans);
  CHECK(layers.at("replay") == 50.0);
  CHECK(layers.at("streaming") == 30.0);
  CHECK(layers.at("aoa") == 20.0);
  CHECK(layers.count("phy") == 0);  // kernels stay out of the tree
  CHECK(root_wall_us(spans) == 100.0);

  // The recorder nests spans through its open stack.
  Tracer t;
  {
    ScopedSpan root(&t, "root", "replay", 1);
    { ScopedSpan x(&t, "x", "streaming", 1); }
    {
      ScopedSpan y(&t, "y", "aoa", 1);
      ScopedSpan z(&t, "z", "aoa", 1);
    }
  }
  { ScopedSpan k(&t, "k", "phy", 1, true); }
  const auto& ts = t.spans();
  CHECK(ts.size() == 5);
  CHECK(ts[0].parent == -1 && ts[1].parent == 0 && ts[2].parent == 0);
  CHECK(ts[3].parent == 2 && ts[4].parent == -1 && ts[4].kernel);
  double sum = 0.0;
  for (const auto& [layer, us] : layer_self_us(ts)) sum += us;
  CHECK(std::fabs(sum - root_wall_us(ts)) < 1e-6);
}

Workload tiny_site() {
  Workload w = *make_workload("office-dense", 3);
  w.site.num_aps = 2;
  w.site.antennas = 4;
  w.frame_pool = 6;
  w.check_rounds = 12;
  return w;
}

Workload tiny_fleet() {
  Workload w = *make_workload("roaming-wideband", 5);
  w.frame_pool = 12;
  w.check_rounds = 16;
  return w;
}

void test_round_mapping() {
  const Workload w = tiny_site();
  const Trace tr = synthesize(w);
  for (const PoolRound& pr : tr.pool) {
    CHECK(pr.chunks.size() == w.site.num_aps);
    for (const sa::CMat& c : pr.chunks) CHECK(c.cols() == tr.round_len);
  }
  // Every decision maps back to the round whose frame it decided.
  sa::BuiltDeployment dep = sa::build_deployment(w.site, false);
  sa::SessionConfig cfg;
  cfg.engine = dep.engine;
  cfg.engine.num_threads = 2;
  std::vector<sa::EngineDecision> got;
  {
    sa::EngineSession session(cfg, dep.ap_ptrs,
                              [&](const sa::EngineDecision& d) { got.push_back(d); });
    for (std::uint64_t r = 0; r < 16; ++r) session.submit_round(tr.round(r).chunks);
    session.drain();
  }
  std::set<std::uint64_t> decided;
  for (const sa::EngineDecision& d : got) {
    const std::uint64_t k = round_of(d.absolute_start, tr.round_len);
    CHECK(k < 16);
    if (k >= 16) continue;
    decided.insert(k);
    if (d.decision.source) CHECK(*d.decision.source == *tr.round(k).mac);
  }
  CHECK(decided.size() == 16);
}

void test_digest_agreement() {
  for (const Workload& base : {tiny_site(), tiny_fleet()}) {
    const Trace tr = synthesize(base);
    const SerialResult serial = run_serial(base, tr, base.check_rounds + 8, 0, 0.0, nullptr);
    CHECK(serial.missing == 0);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      Workload w = base;
      w.workers = workers;
      PhaseOptions opt;
      opt.mode = Mode::kClosed;
      opt.seconds = 0.0;
      opt.min_rounds = w.check_rounds + 8;
      const PhaseResult res = run_phase(w, tr, opt);
      CHECK(res.digest == serial.digest);
      CHECK(res.missing == 0);
      CHECK(res.handoff_failures == 0);
    }
    Tracer t;
    const SerialResult traced = run_serial(base, tr, serial.rounds, 0, 0.0, &t);
    CHECK(traced.digest == serial.digest);
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_schedule();
  test_self_time();
  test_round_mapping();
  test_digest_agreement();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
