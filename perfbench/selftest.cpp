// Self-test of the benchmark's own accounting (accounting.hpp): the tail
// percentile rule, latency stamping on a tiny deterministic stream,
// windowed throughput and its deciles, the failure tally and span
// self time.  Exits non-zero on the first failure.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "accounting.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void percentile_rule() {
  using perfbench::supported_tail_quantile;
  // p99 needs ten samples beyond it: n >= 1000.
  EXPECT(near(supported_tail_quantile(1000, 0.99), 0.99));
  EXPECT(near(supported_tail_quantile(5000, 0.99), 0.99));
  // Shorter runs fall back to the highest percentile with ten beyond.
  EXPECT(near(supported_tail_quantile(500, 0.99), 0.98));
  EXPECT(near(supported_tail_quantile(100, 0.99), 0.90));
  EXPECT(near(supported_tail_quantile(11, 0.99), 1.0 - 10.0 / 11.0));
  EXPECT(supported_tail_quantile(10, 0.99) == 0.0);

  // 1..200: tail is p95 (ten samples, 191..200, lie beyond 190).
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  const perfbench::Percentiles p = perfbench::percentiles(v);
  EXPECT(p.count == 200);
  EXPECT(near(p.tail_q, 0.95));
  EXPECT(near(p.tail, 190.0));
  EXPECT(near(p.p50, 100.0));
  int beyond = 0;
  for (const double x : v) beyond += x > p.tail ? 1 : 0;
  EXPECT(beyond == 10);

  EXPECT(near(perfbench::median({3, 1, 2}), 2.0));
  EXPECT(near(perfbench::median({4, 1, 2, 3}), 2.5));
}

void latency_stamping() {
  // Six packets due at 0, 10, .., 50 ns.  The drain pulls [0,3) at t=5,
  // [3,5) at t=40, finds the ring dry at t=60, pulls [5,6) at t=70 and
  // sees the end at t=90.  Each batch retires at the next pull's entry.
  perfbench::RetireStamps s;
  s.on_pull(5);
  s.on_batch(3);
  s.on_pull(40);
  s.on_batch(2);
  s.on_pull(60);
  s.on_batch(0);
  s.on_pull(70);
  s.on_batch(1);
  s.on_pull(90);
  s.on_batch(0);
  EXPECT(s.batches().size() == 3);
  EXPECT(s.packets_retired() == 6);
  const auto lat = s.latencies_ns([](std::size_t i) { return static_cast<std::int64_t>(10 * i); });
  const std::vector<double> want = {40, 30, 20, 30, 20, 40};
  EXPECT(lat == want);
  // A packet retired before its own due time counts as zero latency.
  perfbench::RetireStamps early;
  early.on_pull(0);
  early.on_batch(2);
  early.on_pull(15);
  const auto lat2 = early.latencies_ns([](std::size_t i) { return static_cast<std::int64_t>(20 * i); });
  EXPECT(lat2 == (std::vector<double>{15, 0}));
}

void throughput_windows() {
  // Batches of 2, 3, 1 and 4 packets retiring at 10, 20, 40 and 50 us from
  // a stream started at 0, in windows of at least 4 packets: the first
  // closes at 20 us with 5 packets, the second at 50 us with 5; nothing
  // is left over.
  perfbench::RetireStamps s;
  for (const auto& [t_us, n] : std::vector<std::pair<int, std::size_t>>{
           {0, 2}, {10, 3}, {20, 1}, {40, 4}, {50, 0}}) {
    s.on_pull(t_us * 1000);
    s.on_batch(n);
  }
  perfbench::Throughput t;
  perfbench::add_windows(t, s.batches(), 0, 4);
  const std::vector<double>& w = t.samples();
  EXPECT(w.size() == 2);
  EXPECT(w.size() == 2 && near(w[0], 5.0 / 20.0) && near(w[1], 5.0 / 30.0));
  // The reported rate is the slow tail: with two samples, the slower.
  EXPECT(near(t.mpps(), 5.0 / 30.0));
  // A trailing window short of the size is dropped.
  perfbench::Throughput shorter;
  perfbench::add_windows(shorter, s.batches(), 0, 6);
  EXPECT(shorter.samples().size() == 1 && near(shorter.mpps(), 6.0 / 40.0));
  EXPECT(perfbench::Throughput().mpps() == 0.0);
}

void deciles() {
  // Nearest rank over 1..20 in any order: rank 18 and rank 2.
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);
  EXPECT(perfbench::upper_decile(v) == 18.0);
  EXPECT(perfbench::lower_decile(v) == 2.0);
  // One sample in ten may fall below the reported rate: 1 Mpps for 100 us
  // beside eleven 64-packet samples at 8 Mpps reads 8; a second slow
  // sample pulls it down to 1.
  perfbench::Throughput t;
  t.add(100, 100'000);
  for (int i = 0; i < 11; ++i) t.add(64, 8'000);
  EXPECT(near(t.mpps(), 8.0));
  t.add(100, 100'000);
  EXPECT(near(t.mpps(), 1.0));
  EXPECT(perfbench::upper_decile({}) == 0.0 && perfbench::lower_decile({}) == 0.0);
}

void error_tally() {
  perfbench::Tally t;
  EXPECT(t.error_frac() == 0.0);
  t.attempt("packets", 1000);
  t.fail("packets", 3);  // dropped
  EXPECT(t.check("sharded.registers", true));
  EXPECT(!t.check("sharded.answers", false));  // mismatch
  perfbench::Tally control;
  control.check("control.add_task", true);
  control.check("control.deadline", false);  // overdue
  t.merge(control);
  EXPECT(t.attempted() == 1004);
  EXPECT(t.failed() == 5);
  EXPECT(near(t.error_frac(), 5.0 / 1004.0));
}

void span_self_time() {
  perfbench::SpanLog off(false);
  EXPECT(off.add("x", 0, 10) == 0);
  EXPECT(off.spans().empty());

  perfbench::SpanLog log(true);
  const auto root = log.open("pass", 0);
  log.add("a", 10, 30, root);
  log.add("b", 20, 50, root);  // overlaps a: covered [10, 50)
  log.add("c", 90, 120, root); // clipped to the parent: [90, 100)
  log.finish(root, 100);
  const auto totals = perfbench::SpanLog::totals(log.spans());
  EXPECT(near(totals.at("pass").total_ns, 100.0));
  EXPECT(near(totals.at("pass").self_ns, 50.0));
  EXPECT(near(totals.at("a").self_ns, 20.0));
}

}  // namespace

int main() {
  percentile_rule();
  latency_stamping();
  throughput_windows();
  deciles();
  error_tally();
  span_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
