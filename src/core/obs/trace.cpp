#include "core/obs/trace.h"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "core/resilience/checkpoint.h"  // write_file_atomic

namespace hwsec::obs {

namespace {

void autodump_at_exit() {
  Tracer& tracer = Tracer::instance();
  if (!tracer.autodump_path().empty()) {
    tracer.write(tracer.autodump_path());
  }
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  const char* out = std::getenv("HWSEC_TRACE_OUT");
  if (out != nullptr && *out != '\0') {
    autodump_path_ = out;
    enabled_.store(true, std::memory_order_relaxed);
    std::atexit(&autodump_at_exit);
  }
}

// Registered during static initialization, while the process has one
// thread, and not by the constructor: see MetricsRegistry.
const int Tracer::fork_handlers_registered_ =
    pthread_atfork(&Tracer::lock_for_fork, &Tracer::unlock_after_fork, &Tracer::unlock_after_fork);

void Tracer::lock_for_fork() { instance().mutex_.lock(); }

void Tracer::unlock_after_fork() { instance().mutex_.unlock(); }

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // never destroyed; see MetricsRegistry.
  return *tracer;
}

Tracer::Ring* Tracer::register_ring() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<std::uint32_t>(rings_.size() + 1);
  rings_.push_back(std::move(ring));
  return rings_.back().get();
}

Tracer::Ring& Tracer::local_ring() {
  thread_local Ring* ring = register_ring();
  return *ring;
}

void Tracer::complete(const char* name, double start_us, double dur_us, std::int64_t arg,
                      const char* arg_name) {
  if (!enabled()) {
    return;
  }
  Ring& ring = local_ring();
  const std::uint64_t n = ring.count.load(std::memory_order_relaxed);
  Event& e = ring.slots[n % kRingCapacity];
  e.name = name;
  e.arg_name = arg_name;
  e.arg = arg;
  e.ts_us = start_us;
  e.dur_us = dur_us;
  e.phase = 'X';
  ring.count.store(n + 1, std::memory_order_release);
}

void Tracer::instant(const char* name, std::int64_t arg, const char* arg_name) {
  if (!enabled()) {
    return;
  }
  Ring& ring = local_ring();
  const std::uint64_t n = ring.count.load(std::memory_order_relaxed);
  Event& e = ring.slots[n % kRingCapacity];
  e.name = name;
  e.arg_name = arg_name;
  e.arg = arg;
  e.ts_us = now_us();
  e.dur_us = 0.0;
  e.phase = 'i';
  ring.count.store(n + 1, std::memory_order_release);
}

std::string Tracer::export_json() const {
  struct Tagged {
    Event event;
    std::uint32_t tid;
  };
  std::vector<Tagged> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) {
      const std::uint64_t n = ring->count.load(std::memory_order_acquire);
      const std::uint64_t kept = std::min<std::uint64_t>(n, kRingCapacity);
      for (std::uint64_t i = n - kept; i < n; ++i) {
        events.push_back({ring->slots[i % kRingCapacity], ring->tid});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Tagged& a, const Tagged& b) { return a.event.ts_us < b.event.ts_us; });

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i].event;
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << e.name << "\",\"cat\":\"hwsec\",\"ph\":\""
        << e.phase << "\",\"pid\":1,\"tid\":" << events[i].tid << ",\"ts\":" << e.ts_us;
    if (e.phase == 'X') {
      out << ",\"dur\":" << e.dur_us;
    } else {
      out << ",\"s\":\"t\"";  // instant scope: thread.
    }
    if (e.arg_name != nullptr) {
      out << ",\"args\":{\"" << e.arg_name << "\":" << e.arg << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

bool Tracer::write(const std::string& path) const {
  return core::write_file_atomic(path, export_json());
}

void Tracer::reset_for_test() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    ring->count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace hwsec::obs
