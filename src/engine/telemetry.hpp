// Campaign telemetry substrate: a process-wide (or per-campaign),
// thread-safe registry of named counters, gauges, and fixed-bucket
// latency histograms, plus a span recorder that exports Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto).
//
// Cost model: metric *lookups* take a mutex (do them once, outside hot
// loops — every engine call site caches the returned reference); metric
// *updates* are single relaxed atomic RMWs, cheap enough to leave on in
// production.  Span recording takes a mutex per span; spans are
// shard/phase/RPC granularity, never per-fault.
//
// Determinism: nothing in this file feeds the stable CampaignReport
// JSON unless CampaignSpec::emit_telemetry opts in — with the default
// off, campaign output stays byte-identical to an uninstrumented build.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cpsinw::engine::telemetry {

/// Monotonic clock every span and latency measurement uses.
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Monotonically increasing event count.  All operations are relaxed
/// atomics: totals are exact, ordering against other metrics is not
/// promised (snapshots are "recent", not "instantaneous").
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A value that goes up and down (queue depth, live connections).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency histogram with fixed power-of-two buckets: bucket 0 holds
/// samples below 1 us, bucket i (i >= 1) holds [2^(i-1), 2^i) us, and the
/// last bucket overflows upward (~67 s and beyond).  Fixed bounds mean
/// recording is a branch-free index computation plus one relaxed
/// increment, and two histograms merge by adding buckets.
class Histogram {
 public:
  static constexpr int kBucketCount = 28;

  /// Upper bound of bucket i in seconds (+inf for the last bucket,
  /// represented as a very large value).
  [[nodiscard]] static double bucket_upper_s(int i);
  /// Bucket index for a duration in seconds.
  [[nodiscard]] static int bucket_of(double seconds);

  void record(double seconds) {
    buckets_[static_cast<std::size_t>(bucket_of(seconds))].fetch_add(
        1, std::memory_order_relaxed);
    sum_ns_.fetch_add(
        seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0,
        std::memory_order_relaxed);
  }
  void record_since(TimePoint start) {
    record(std::chrono::duration<double>(Clock::now() - start).count());
  }

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum_s() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// ----------------------------------------------------------- snapshots

/// One counter's name and value as read at snapshot time.
struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

/// One gauge's name and value as read at snapshot time.
struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

/// One histogram's name, totals, and raw buckets as read at snapshot
/// time (quantiles are derived from the frozen buckets, not the live
/// metric).
struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  double sum_s = 0.0;
  std::vector<std::uint64_t> buckets;  ///< kBucketCount entries

  /// Quantile estimate (linear interpolation inside the winning bucket).
  /// Returns 0 for an empty histogram.
  [[nodiscard]] double quantile_s(double q) const;
};

/// Point-in-time dump of one registry, sorted by metric name.
struct RegistrySnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] const CounterValue* find_counter(
      const std::string& name) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      const std::string& name) const;
};

/// Named-metric registry.  Lookup creates on first use and returns a
/// reference that stays valid for the registry's lifetime (metrics are
/// node-allocated); cache it outside loops.  `global()` is the
/// process-wide instance the shard server exports through the `stats`
/// request; campaigns additionally carry their own private registry so a
/// report's telemetry block covers exactly one campaign.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] RegistrySnapshot snapshot() const;

  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// ---------------------------------------------------------------- spans

/// One completed interval in a trace ("ph":"X" in the Chrome trace-event
/// format).  Timestamps are microseconds relative to the recorder's
/// epoch.
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

/// Collects spans from any number of threads and serializes them as a
/// chrome://tracing-loadable JSON document.  Disabled recorders drop
/// every span with one relaxed load, so instrumentation can stay in
/// place unconditionally.
class TraceRecorder {
 public:
  TraceRecorder();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] TimePoint epoch() const { return epoch_; }

  /// Records [start, end) on the calling thread's lane.
  void add_span(std::string name, std::string category, TimePoint start,
                TimePoint end);
  /// Records a reconstructed remote interval: `dur_s` of work that ended
  /// at local time `end` on lane `tid` (server spans are rebuilt
  /// client-side from the reported elapsed time — the remote clock never
  /// enters the trace, so lanes stay consistent).
  void add_remote_span(std::string name, std::string category, TimePoint end,
                       double dur_s, int tid);

  /// Stable small integer for the calling thread (process-wide).
  [[nodiscard]] static int current_tid();
  /// Lane numbers above any real thread's, for reconstructed remote
  /// spans (`index` 0, 1, ... map to distinct lanes).
  [[nodiscard]] static int remote_tid(int index);

  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::atomic<bool> enabled_{false};
  TimePoint epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// RAII span: records [construction, destruction) on `recorder` when it
/// is non-null and enabled.  The name is only materialized when the span
/// will actually be kept.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name,
             const char* category = "engine")
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                             : nullptr),
        name_(name),
        category_(category),
        start_(recorder_ != nullptr ? Clock::now() : TimePoint()) {}
  ScopedSpan(TraceRecorder* recorder, std::string name,
             const char* category = "engine")
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                             : nullptr),
        dynamic_name_(std::move(name)),
        category_(category),
        start_(recorder_ != nullptr ? Clock::now() : TimePoint()) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr)
      recorder_->add_span(
          name_ != nullptr ? std::string(name_) : std::move(dynamic_name_),
          category_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_ = nullptr;
  std::string dynamic_name_;
  const char* category_;
  TimePoint start_;
};

// ------------------------------------------------------------- campaign

/// Everything one campaign run collects: a private metric registry (so
/// the report's telemetry block covers exactly this campaign, even with
/// concurrent campaigns in the process) and the trace recorder behind
/// CampaignSpec::trace_path.  run_campaign owns one and hands a pointer
/// to the executor; a null pointer means "telemetry off" everywhere.
struct CampaignTelemetry {
  Registry registry;
  TraceRecorder trace;
};

}  // namespace cpsinw::engine::telemetry
