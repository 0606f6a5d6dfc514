// Lock-cheap metrics registry: monotonic counters, gauges, and fixed-bucket
// latency histograms for the campaign engine.
//
// The hot path is an *uncontended* atomic increment: every thread gets its
// own shard (a fixed array of relaxed atomics, registered once under the
// registry mutex on first use), and scrapes merge all shards. No increment
// ever takes a lock or touches a cacheline another thread is writing, so
// instrumenting a 50 us trial costs a handful of nanoseconds.
//
// Cost model and the off switch:
//  * enabled (default): counter add = one relaxed load (the enable flag)
//    plus one relaxed fetch_add on thread-local memory;
//  * disabled (set_enabled(false)): the relaxed load and a predictable
//    branch — nothing is written anywhere;
//  * the Cpu commit path goes further: its probes compile to nothing unless
//    the HWSEC_OBS_CPU CMake option is ON (see sim/obs_hook.h).
//
// Metrics are identified by name, interned once into a small fixed table
// (handles are cheap value types call sites cache in a static). Histograms
// use power-of-two microsecond buckets: bucket i counts observations in
// [2^i, 2^(i+1)) us, clamped to the last bucket.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hwsec::obs {

inline constexpr std::size_t kMaxCounters = 64;
inline constexpr std::size_t kMaxGauges = 32;
inline constexpr std::size_t kMaxHistograms = 16;
inline constexpr std::size_t kHistogramBuckets = 32;

class MetricsRegistry;

/// Cheap value handle to a registered counter. Copyable; cache it in a
/// static at the call site to pay the name lookup once.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const;

 private:
  friend class MetricsRegistry;
  explicit Counter(std::size_t id) : id_(id) {}
  std::size_t id_ = 0;
};

/// Handle to a last-write-wins gauge (not sharded: sets are rare).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t value) const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::size_t id) : id_(id) {}
  std::size_t id_ = 0;
};

/// Handle to a fixed-bucket latency histogram.
class Histogram {
 public:
  Histogram() = default;
  void observe_ns(std::uint64_t ns) const;
  void observe(std::chrono::nanoseconds d) const {
    observe_ns(d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count()));
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::size_t id) : id_(id) {}
  std::size_t id_ = 0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum_us = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};  ///< bucket i: [2^i, 2^(i+1)) us.
};

/// Point-in-time merged view of every shard.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns `name` (idempotent) and returns its handle. Throws
  /// std::length_error when the fixed table is full.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Merges every thread's shard into one snapshot. Safe to call while
  /// other threads keep incrementing (relaxed reads observe a consistent
  /// enough view for monitoring; call at a quiescent point for exactness).
  MetricsSnapshot snapshot() const;

  /// Snapshot serialized as a stable JSON document (counters, gauges,
  /// histograms with per-bucket counts).
  std::string to_json() const;

  /// Runtime kill switch. Disabled: increments become a relaxed load and a
  /// branch. Counts accumulated so far are retained.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every shard and gauge (registrations survive). Test helper —
  /// call only at a quiescent point.
  void reset_for_test();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>, kMaxHistograms>
        hist_buckets{};
    std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_count{};
    std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_sum_ns{};
  };

  MetricsRegistry() = default;

  Shard& local_shard();
  Shard* register_shard();
  /// pthread_atfork handlers: hold mutex_ across fork() so neither
  /// process inherits it locked by a thread that exists only in the other.
  static void lock_for_fork();
  static void unlock_after_fork();
  /// pthread_atfork's result for the handlers above; see the .cpp.
  static const int fork_handlers_registered_;
  std::size_t intern(std::vector<std::string>& names, std::size_t limit, std::string_view name,
                     const char* kind);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
};

/// Shorthands for the registry singleton.
inline Counter counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge gauge(std::string_view name) { return MetricsRegistry::instance().gauge(name); }
inline Histogram histogram(std::string_view name) {
  return MetricsRegistry::instance().histogram(name);
}

/// RAII latency sample: observes the elapsed wall time into `h` on
/// destruction. Skips the clock reads entirely when metrics are disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram h)
      : histogram_(h), armed_(MetricsRegistry::instance().enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (armed_) {
      histogram_.observe(std::chrono::steady_clock::now() - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram histogram_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Installs the (compile-time gated) Cpu commit-path probe; a no-op unless
/// the build sets HWSEC_OBS_CPU. Idempotent.
void install_cpu_probe();

}  // namespace hwsec::obs
