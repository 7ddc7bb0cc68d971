// Accounting helpers of the FlyMon benchmark: percentiles, batch
// retirement stamps (source-to-register latency, windowed throughput), the
// failure tally and the in-memory span log.
// Header-only and free of FlyMon types so perfbench_selftest can check them
// without linking the model.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- percentiles ----

/// Nearest-rank quantile of an ascending vector (q in [0, 1]).
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail percentile a sample set supports: `want` (e.g. 0.99) when at
/// least ten samples lie beyond it, otherwise the highest percentile that
/// still has ten samples beyond it (n * (1 - q) >= 10).  Returns 0 with
/// fewer than 11 samples: no tail can be reported.
inline double supported_tail_quantile(std::size_t n, double want) {
  if (n < 11) return 0.0;
  const double cap = 1.0 - 10.0 / static_cast<double>(n);
  return std::min(want, cap);
}

struct Percentiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;    ///< value at tail_q
  double tail_q = 0.0;  ///< the percentile actually reported (<= 0.99)
};

/// Median plus the p99-or-highest-supported tail of `samples`.
inline Percentiles percentiles(std::vector<double> samples) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = quantile_sorted(samples, 0.5);
  p.tail_q = supported_tail_quantile(samples.size(), 0.99);
  p.tail = p.tail_q > 0.0 ? quantile_sorted(samples, p.tail_q) : samples.back();
  return p;
}

// ---- batch retirement: source-to-register latency and throughput ----

/// When each drained batch retired.  The drain loop pulls a batch,
/// processes it, then pulls again: the next pull marks the retirement of
/// the previous batch.  `on_pull` is called at the entry of every pull and
/// `on_batch` with the size of what that pull returned.
class RetireStamps {
 public:
  void on_pull(std::int64_t t_ns) {
    if (open_ > 0) {
      batches_.push_back({next_ - open_, open_, t_ns});
      open_ = 0;
    }
  }
  void on_batch(std::size_t n) {
    open_ = n;
    next_ += n;
  }

  struct Batch {
    std::size_t first = 0;  ///< index of the batch's first packet
    std::size_t count = 0;
    std::int64_t retire_ns = 0;
  };
  const std::vector<Batch>& batches() const { return batches_; }
  std::size_t packets_retired() const {
    std::size_t n = 0;
    for (const Batch& b : batches_) n += b.count;
    return n;
  }

  /// Per-packet latency (ns) from each packet's due time until its batch
  /// retired; a packet published ahead of its own due time (the pump paces
  /// whole batches by their first packet) counts as zero latency.
  template <class DueFn>
  std::vector<double> latencies_ns(DueFn&& due_ns) const {
    std::vector<double> out;
    out.reserve(packets_retired());
    for (const Batch& b : batches_) {
      for (std::size_t i = b.first; i < b.first + b.count; ++i) {
        const std::int64_t d = b.retire_ns - due_ns(i);
        out.push_back(d > 0 ? static_cast<double>(d) : 0.0);
      }
    }
    return out;
  }

 private:
  std::vector<Batch> batches_;
  std::size_t next_ = 0;
  std::size_t open_ = 0;
};

// ---- sustained rates ----
//
// On a shared host a core's speed swings by up to 2x within seconds: it
// runs at one steady speed while other tenants load its hyper-thread
// sibling and far faster while the sibling idles, and how much of a run
// falls in each mode depends on the neighbours.  A median or a whole-run
// rate moves with that share.  Timings are therefore taken as many short
// samples and reported at their slow tail, the rate 90% of samples reach
// (and the time 90% of samples beat), which sits on the steady mode
// unless the sibling idles almost all the time.

/// Nearest-rank 90th percentile: the slow tail of a set of times.
inline double upper_decile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.9);
}

/// Nearest-rank 10th percentile: the slow tail of a set of rates.
inline double lower_decile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.1);
}

/// Throughput of many short timed samples (calls or windows).
class Throughput {
 public:
  void add(std::size_t packets, std::int64_t ns) {
    if (ns > 0) {
      samples_.push_back(static_cast<double>(packets) / (static_cast<double>(ns) / 1e3));
    }
  }
  /// The rate 90% of samples reach (their lower decile), packets per
  /// microsecond; 0 before the first sample.
  double mpps() const { return lower_decile(samples_); }
  /// Each sample's own rate, in the order added.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Add to `out` one sample per window of at least `window` consecutive
/// retired packets, the first window starting at `start_ns`.  A trailing
/// window shorter than `window` is dropped.
inline void add_windows(Throughput& out, const std::vector<RetireStamps::Batch>& batches,
                        std::int64_t start_ns, std::size_t window) {
  std::size_t packets = 0;
  for (const RetireStamps::Batch& b : batches) {
    packets += b.count;
    if (packets >= window && b.retire_ns > start_ns) {
      out.add(packets, b.retire_ns - start_ns);
      packets = 0;
      start_ns = b.retire_ns;
    }
  }
}

// ---- failure tally (error_frac) ----

/// Attempted and failed operations by kind.  error_frac = failed/attempted.
class Tally {
 public:
  void attempt(const std::string& kind, std::uint64_t n = 1) { rows_[kind].attempted += n; }
  void fail(const std::string& kind, std::uint64_t n = 1) { rows_[kind].failed += n; }
  /// Count one checked operation: attempted, and failed unless `ok`.
  bool check(const std::string& kind, bool ok) {
    attempt(kind);
    if (!ok) fail(kind);
    return ok;
  }
  void merge(const Tally& other) {
    for (const auto& [k, r] : other.rows_) {
      rows_[k].attempted += r.attempted;
      rows_[k].failed += r.failed;
    }
  }

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [k, r] : rows_) n += r.attempted;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [k, r] : rows_) n += r.failed;
    return n;
  }
  double error_frac() const {
    const std::uint64_t a = attempted();
    return a == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(a);
  }
  /// One "kind attempted failed" line per kind, for stderr.
  std::string summary() const {
    std::string out;
    for (const auto& [k, r] : rows_) {
      out += "  " + k + ": attempted " + std::to_string(r.attempted) +
             ", failed " + std::to_string(r.failed) + "\n";
    }
    return out;
  }

 private:
  struct Row {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Row> rows_;
};

// ---- span log (traced run only) ----

/// In-memory spans recorded by the benchmark around its calls into the
/// model.  Each span has a name, start and end, the span that caused it
/// (0 = root) and the id of the batch or control operation it belongs to.
/// Thread-safe; disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t op = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({spans_.size() + 1, parent, op, name, start_ns, end_ns});
    return spans_.size();
  }

  /// Reserve an id for a span whose children finish before it does; close
  /// it with finish().
  std::uint64_t open(const std::string& name, std::int64_t start_ns,
                     std::uint64_t parent = 0, std::uint64_t op = 0) {
    return add(name, start_ns, start_ns, parent, op);
  }
  void finish(std::uint64_t id, std::int64_t end_ns) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end_ns;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  struct NameTotals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  /// Per-name totals, where a span's self time is its duration minus the
  /// part of it that its children cover (overlapping children count once).
  static std::map<std::string, NameTotals> totals(const std::vector<Span>& spans) {
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const Span& s : spans) {
      if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, NameTotals> out;
    for (const Span& s : spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      double covered = 0.0;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_b = 0, cur_e = 0;
        bool have = false;
        for (auto [b, e] : iv) {
          b = std::max(b, s.start_ns);
          e = std::min(e, s.end_ns);
          if (e <= b) continue;
          if (have && b <= cur_e) {
            cur_e = std::max(cur_e, e);
          } else {
            if (have) covered += static_cast<double>(cur_e - cur_b);
            cur_b = b;
            cur_e = e;
            have = true;
          }
        }
        if (have) covered += static_cast<double>(cur_e - cur_b);
      }
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - covered;
    }
    return out;
  }

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    for (const Span& s : spans()) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
