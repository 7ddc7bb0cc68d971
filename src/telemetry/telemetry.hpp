// Process-wide metrics registry: cheap atomic counters / gauges / histograms
// with Prometheus-style names and labels.  Hot-path mutation (Counter::inc,
// Histogram::observe) is gated on one relaxed atomic flag so that a disabled
// build costs a predicted-not-taken branch per instrumentation site; gauges
// are control-plane-only and always writable.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"

namespace flymon::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global runtime switch (default off).  Counters and histograms silently
/// drop updates while disabled; gauges and registry structure are unaffected.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Honour the FLYMON_TELEMETRY environment variable (1/on/true enables).
/// Returns the resulting state.
bool init_from_env() noexcept;

/// label set: ordered (key, value) pairs.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value set by collectors (occupancy, saturation, ...).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bound histogram (Prometheus bucket semantics: counts are cumulative
/// at export time; stored per-bucket here).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;        ///< ascending upper bounds
    std::vector<std::uint64_t> counts; ///< per-bucket, last one = +Inf bucket
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;
  void reset() noexcept;

  /// {start, start*factor, ...} with `n` bounds.
  static std::vector<double> exponential_bounds(double start, double factor, unsigned n);
  static std::vector<double> default_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One exported sample, snapshot from a live metric.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;           ///< counter / gauge
  Histogram::Snapshot hist;     ///< histogram only
};

/// Named metric store.  Lookup is mutex-protected (registration happens at
/// bind/deploy time, never per packet); returned references are stable for
/// the registry's lifetime.  `global()` is the default process-wide instance;
/// tests and exporters can also own private registries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bounds = Histogram::default_bounds());

  /// Deterministic snapshot: samples sorted by (name, labels).
  std::vector<MetricSample> snapshot() const;

  std::size_t size() const;

  /// Zero every counter/gauge/histogram (metrics stay registered).
  void reset_values();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const Labels& labels,
                        MetricKind kind) FLYMON_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::map<std::string, Entry> entries_
      FLYMON_GUARDED_BY(mu_);  // key = canonical "name{labels}"
};

/// Canonical metric identity, also the Prometheus exposition form:
/// name{k1="v1",k2="v2"} (labels in given order; empty -> bare name).
std::string metric_key(const std::string& name, const Labels& labels);

}  // namespace flymon::telemetry
