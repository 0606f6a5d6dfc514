#include "core/obs/metrics.h"

#include <pthread.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "core/json.h"
#include "sim/obs_hook.h"

namespace hwsec::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed:
  // shards are referenced from thread_local pointers whose threads may
  // outlive any static destruction order we could promise.
  static const bool cpu_probe_installed = (install_cpu_probe(), true);
  (void)cpu_probe_installed;
  return *registry;
}

// Registered during static initialization, while the process has one
// thread, and not by the constructor. pthread_atfork waits for a fork() in
// progress, so a constructor registering them would wait inside
// instance()'s one-time initialization while another thread forks, and
// the child, inheriting that initialization as in progress, would wait on
// it forever at its first counter. Registered here, the prepare handler's
// own instance() call waits out a construction in progress before forking.
const int MetricsRegistry::fork_handlers_registered_ =
    pthread_atfork(&MetricsRegistry::lock_for_fork, &MetricsRegistry::unlock_after_fork,
                   &MetricsRegistry::unlock_after_fork);

void MetricsRegistry::lock_for_fork() { instance().mutex_.lock(); }

void MetricsRegistry::unlock_after_fork() { instance().mutex_.unlock(); }

MetricsRegistry::Shard* MetricsRegistry::register_shard() {
  std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  thread_local Shard* shard = register_shard();
  return *shard;
}

std::size_t MetricsRegistry::intern(std::vector<std::string>& names, std::size_t limit,
                                    std::string_view name, const char* kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return i;
    }
  }
  if (names.size() >= limit) {
    throw std::length_error(std::string("metrics registry: ") + kind + " table full at \"" +
                            std::string(name) + "\"");
  }
  names.emplace_back(name);
  return names.size() - 1;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(intern(counter_names_, kMaxCounters, name, "counter"));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(intern(gauge_names_, kMaxGauges, name, "gauge"));
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  return Histogram(intern(histogram_names_, kMaxHistograms, name, "histogram"));
}

void Counter::add(std::uint64_t delta) const {
  MetricsRegistry& reg = MetricsRegistry::instance();
  if (!reg.enabled()) {
    return;
  }
  reg.local_shard().counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t value) const {
  MetricsRegistry& reg = MetricsRegistry::instance();
  if (!reg.enabled()) {
    return;
  }
  reg.gauges_[id_].store(value, std::memory_order_relaxed);
}

void Histogram::observe_ns(std::uint64_t ns) const {
  MetricsRegistry& reg = MetricsRegistry::instance();
  if (!reg.enabled()) {
    return;
  }
  const std::uint64_t us = ns / 1000;
  const std::size_t bucket =
      us == 0 ? 0
              : std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(us)) - 1,
                                      kHistogramBuckets - 1);
  MetricsRegistry::Shard& shard = reg.local_shard();
  shard.hist_buckets[id_][bucket].fetch_add(1, std::memory_order_relaxed);
  shard.hist_count[id_].fetch_add(1, std::memory_order_relaxed);
  shard.hist_sum_ns[id_].fetch_add(ns, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (std::size_t c = 0; c < counter_names_.size(); ++c) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[c].load(std::memory_order_relaxed);
    }
    snap.counters[counter_names_[c]] = total;
  }
  for (std::size_t g = 0; g < gauge_names_.size(); ++g) {
    snap.gauges[gauge_names_[g]] = gauges_[g].load(std::memory_order_relaxed);
  }
  for (std::size_t h = 0; h < histogram_names_.size(); ++h) {
    HistogramSnapshot hs;
    std::uint64_t sum_ns = 0;
    for (const auto& shard : shards_) {
      hs.count += shard->hist_count[h].load(std::memory_order_relaxed);
      sum_ns += shard->hist_sum_ns[h].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        hs.buckets[b] += shard->hist_buckets[h][b].load(std::memory_order_relaxed);
      }
    }
    hs.sum_us = static_cast<double>(sum_ns) / 1000.0;
    snap.histograms[histogram_names_[h]] = hs;
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  // Names flow from call sites into the document verbatim, so they MUST go
  // through json_escape: a counter named with a quote or backslash used to
  // emit an unparseable scrape (test_service holds the regression).
  const MetricsSnapshot snap = snapshot();
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "" : ",") << "\n    \"" << core::json_escape(name) << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "" : ",") << "\n    \"" << core::json_escape(name) << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    out << (first ? "" : ",") << "\n    \"" << core::json_escape(name)
        << "\": {\"count\": " << hist.count
        << ", \"sum_us\": " << hist.sum_us << ", \"buckets_pow2_us\": [";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out << (b == 0 ? "" : ", ") << hist.buckets[b];
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

void MetricsRegistry::reset_for_test() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& hist : shard->hist_buckets) {
      for (auto& b : hist) {
        b.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& c : shard->hist_count) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& s : shard->hist_sum_ns) {
      s.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauges_) {
    g.store(0, std::memory_order_relaxed);
  }
}

#if defined(HWSEC_OBS_CPU)
namespace {
void cpu_committed_probe(std::uint64_t executed) {
  static const Counter kCommitted = counter("cpu_instructions_committed");
  kCommitted.add(executed);
}
}  // namespace
#endif

void install_cpu_probe() {
#if defined(HWSEC_OBS_CPU)
  hwsec::sim::g_cpu_commit_hook = &cpu_committed_probe;
#endif
}

}  // namespace hwsec::obs
