// Ring-buffer event tracer exporting Chrome trace_event JSON.
//
// Records spans (complete 'X' events) and instants ('i' events) into
// per-thread ring buffers: each thread writes only its own ring, so the
// record path is two steady_clock reads plus a couple of plain stores —
// no locks, no contention. The newest kRingCapacity events per thread
// survive; older ones are overwritten (a campaign's interesting tail —
// the part that hung or tripped watchdogs — is what you get).
//
// Export produces the Chrome trace_event JSON array format, loadable in
// chrome://tracing and https://ui.perfetto.dev. Export is meant to run at
// a quiescent point (after the campaign's parallel_for barrier, or at
// process exit); the per-ring write counters are release/acquire so a
// quiescent exporter sees fully written slots.
//
// Off by default: tracing turns on when the HWSEC_TRACE_OUT environment
// variable names an output path (the trace is then auto-written there at
// process exit) or when a test calls set_enabled(true). Disabled, a Span
// costs one relaxed atomic load; no clock is read, nothing is stored.
//
// Event names are `const char*` and must be string literals (or otherwise
// outlive the tracer) — the ring stores the pointer, never a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hwsec::obs {

inline constexpr std::size_t kRingCapacity = 16384;  ///< events kept per thread.

class Tracer {
 public:
  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  /// Timestamp in microseconds since tracer construction.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records a complete ('X') event covering [start_us, start_us + dur_us].
  /// `arg` with `arg_name` becomes the event's single numeric arg;
  /// arg_name == nullptr omits args. No-op when disabled.
  void complete(const char* name, double start_us, double dur_us, std::int64_t arg = 0,
                const char* arg_name = nullptr);

  /// Records an instant ('i') event at the current time. No-op when
  /// disabled.
  void instant(const char* name, std::int64_t arg = 0, const char* arg_name = nullptr);

  /// Chrome trace_event JSON document with every retained event, merged
  /// across threads in timestamp order.
  std::string export_json() const;

  /// export_json() written atomically to `path` (temp + rename). Returns
  /// false on I/O failure.
  bool write(const std::string& path) const;

  /// Path from HWSEC_TRACE_OUT at startup (empty when unset). When
  /// non-empty the tracer starts enabled and auto-writes here at exit.
  const std::string& autodump_path() const { return autodump_path_; }

  /// Drops every retained event (registrations and enable state survive).
  /// Test helper — call only at a quiescent point.
  void reset_for_test();

 private:
  struct Event {
    const char* name = nullptr;
    const char* arg_name = nullptr;
    std::int64_t arg = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    char phase = 'X';
  };

  struct Ring {
    std::vector<Event> slots{std::vector<Event>(kRingCapacity)};
    std::atomic<std::uint64_t> count{0};  ///< monotonic; slot = count % capacity.
    std::uint32_t tid = 0;
  };

  Tracer();

  Ring& local_ring();
  Ring* register_ring();
  /// pthread_atfork handlers: hold mutex_ across fork() so neither
  /// process inherits it locked by a thread that exists only in the other.
  static void lock_for_fork();
  static void unlock_after_fork();
  /// pthread_atfork's result for the handlers above; see the .cpp.
  static const int fork_handlers_registered_;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::string autodump_path_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span: measures construction-to-destruction and records one 'X'
/// event. The enable check happens at construction; a span built while
/// tracing is off records nothing even if tracing turns on mid-span.
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = 0, const char* arg_name = nullptr)
      : name_(name), arg_name_(arg_name), arg_(arg), armed_(Tracer::instance().enabled()) {
    if (armed_) {
      start_us_ = Tracer::instance().now_us();
    }
  }
  ~Span() {
    if (armed_) {
      Tracer& tracer = Tracer::instance();
      tracer.complete(name_, start_us_, tracer.now_us() - start_us_, arg_, arg_name_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  std::int64_t arg_;
  bool armed_;
  double start_us_ = 0.0;
};

}  // namespace hwsec::obs
