// Observability layer: metrics registry (sharded counters, histogram merge
// under concurrent writers), ring-buffer tracer (Chrome trace_event JSON),
// heartbeat, and the contract that matters most — instrumentation must not
// perturb campaign determinism at any worker count.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/transient/spectre.h"
#include "core/campaign.h"
#include "core/machine_pool.h"
#include "core/obs/heartbeat.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/resilience/resilient.h"
#include "sim/machine.h"
#include "sim/thread_pool.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;
namespace obs = hwsec::obs;
namespace attacks = hwsec::attacks;

namespace {

// ---- metrics: sharded counters ---------------------------------------

TEST(Metrics, CounterMergesAcrossThreads) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(true);
  reg.reset_for_test();
  const obs::Counter c = obs::counter("test_merge_counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.snapshot().counter("test_merge_counter"), kThreads * kPerThread);
}

TEST(Metrics, CounterHandleIsIdempotentPerName) {
  const obs::Counter a = obs::counter("test_same_name");
  const obs::Counter b = obs::counter("test_same_name");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(true);
  reg.reset_for_test();
  a.add(3);
  b.add(4);
  EXPECT_EQ(reg.snapshot().counter("test_same_name"), 7u);
}

TEST(Metrics, DisabledIsNoOp) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset_for_test();
  const obs::Counter c = obs::counter("test_disabled_counter");
  const obs::Histogram h = obs::histogram("test_disabled_hist");
  reg.set_enabled(false);
  c.add(5);
  h.observe_ns(1000000);
  reg.set_enabled(true);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test_disabled_counter"), 0u);
  EXPECT_EQ(snap.histograms.at("test_disabled_hist").count, 0u);
}

// Concurrent histogram writers from many threads while a scraper loops:
// the TSan CI job runs this to prove the shard/merge design is race-free.
TEST(Metrics, HistogramMergeUnderConcurrentShardWrites) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(true);
  reg.reset_for_test();
  const obs::Histogram h = obs::histogram("test_concurrent_hist");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<bool> stop_scraper{false};
  std::thread scraper([&] {
    while (!stop_scraper.load()) {
      (void)reg.snapshot();  // must be safe mid-write.
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Mix of buckets: 1 us .. ~1 ms.
        h.observe_ns((1 + (i % 1000)) * 1000 * (1 + static_cast<std::uint64_t>(t)));
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop_scraper.store(true);
  scraper.join();
  const obs::HistogramSnapshot hs = reg.snapshot().histograms.at("test_concurrent_hist");
  EXPECT_EQ(hs.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : hs.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, hs.count) << "every observation lands in exactly one bucket";
  EXPECT_GT(hs.sum_us, 0.0);
}

TEST(Metrics, HistogramBucketsArePowerOfTwoMicroseconds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(true);
  reg.reset_for_test();
  const obs::Histogram h = obs::histogram("test_bucket_hist");
  h.observe_ns(1000);      // 1 us -> bucket 0 ([1, 2) us).
  h.observe_ns(3000);      // 3 us -> bucket 1 ([2, 4) us).
  h.observe_ns(1000000);   // 1000 us -> bucket 9 ([512, 1024) us).
  const obs::HistogramSnapshot hs = reg.snapshot().histograms.at("test_bucket_hist");
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[9], 1u);
  EXPECT_EQ(hs.count, 3u);
}

TEST(Metrics, JsonContainsRegisteredNames) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(true);
  reg.reset_for_test();
  obs::counter("test_json_counter").add(42);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test_json_counter\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---- tracer -----------------------------------------------------------

TEST(Tracer, RecordsSpansAndExportsChromeJson) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset_for_test();
  tracer.set_enabled(true);
  {
    obs::Span span("test_span", 7, "trial");
    tracer.instant("test_instant");
  }
  tracer.set_enabled(false);
  const std::string json = tracer.export_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test_span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test_instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"trial\":7"), std::string::npos);
}

TEST(Tracer, DisabledSpanRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset_for_test();
  tracer.set_enabled(false);
  {
    obs::Span span("test_dark_span");
  }
  EXPECT_EQ(tracer.export_json().find("test_dark_span"), std::string::npos);
}

TEST(Tracer, RingWrapKeepsMostRecentEvents) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset_for_test();
  tracer.set_enabled(true);
  // Overfill one thread's ring; only the newest kRingCapacity survive.
  for (std::size_t i = 0; i < obs::kRingCapacity + 100; ++i) {
    tracer.instant("test_flood", static_cast<std::int64_t>(i), "i");
  }
  tracer.set_enabled(false);
  const std::string json = tracer.export_json();
  // The very first events were overwritten; the last one must be present.
  std::ostringstream last;
  last << "\"i\":" << (obs::kRingCapacity + 99);
  EXPECT_NE(json.find(last.str()), std::string::npos);
  EXPECT_EQ(json.find("\"i\":0}"), std::string::npos);
  tracer.reset_for_test();
}

TEST(Tracer, ConcurrentWritersExportCleanly) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset_for_test();
  tracer.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        obs::Span span("test_mt_span");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  tracer.set_enabled(false);
  EXPECT_NE(tracer.export_json().find("test_mt_span"), std::string::npos);
  tracer.reset_for_test();
}

// ---- fork while other threads register ---------------------------------
// A thread's first span registers its trace ring, and its first counter
// its metrics shard, each under its registry's mutex. A fork() that lands
// while another thread holds either mutex must not hand the child a mutex
// locked by a thread that does not exist there. The forking thread has
// never traced or counted, so the child's first span and counter register
// fresh under both mutexes and would hang on an inherited lock.

/// Waits up to `deadline` for `pid`; SIGKILLs and reaps it on timeout.
/// Returns the wait status, or nullopt when the child hung.
std::optional<int> wait_with_deadline(pid_t pid, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  int status = 0;
  while (std::chrono::steady_clock::now() < until) {
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return std::nullopt;
}

TEST(ObsFork, ChildTracesAndCountsWhileParentThreadsKeepRegistering) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset_for_test();
  tracer.set_enabled(true);
  // Every churn thread leaves a ~640 KiB trace ring behind, so churn runs
  // in one burst per fork rather than unbounded: ~30 MiB per run.
  constexpr int kForks = 24;
  constexpr int kSpawners = 2;
  std::atomic<int> burst{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> spawners;
  for (int s = 0; s < kSpawners; ++s) {
    spawners.emplace_back([&] {
      int seen = 0;
      while (!stop.load()) {
        if (burst.load() == seen) {
          std::this_thread::yield();
          continue;
        }
        seen = burst.load();
        std::thread([] {
          obs::Span span("fork_churn");
          obs::counter("obs_fork_churn").add();
        }).join();
      }
    });
  }
  int hung = 0;
  int failed = 0;
  std::thread([&] {
    for (int f = 0; f < kForks; ++f) {
      burst.fetch_add(1);
      const pid_t pid = ::fork();
      if (pid == 0) {
        obs::Tracer::instance().set_enabled(true);
        { obs::Span span("fork_child"); }
        obs::counter("obs_fork_child").add();
        ::_exit(0);
      }
      ASSERT_GT(pid, 0);
      const std::optional<int> status = wait_with_deadline(pid, std::chrono::seconds(10));
      if (!status.has_value()) {
        ++hung;
        break;  // one hang proves the defect; the rest would hang too.
      }
      if (!WIFEXITED(*status) || WEXITSTATUS(*status) != 0) {
        ++failed;
      }
    }
  }).join();
  stop.store(true);
  for (auto& s : spawners) {
    s.join();
  }
  tracer.set_enabled(false);
  tracer.reset_for_test();
  EXPECT_EQ(hung, 0) << "children hung registering a trace ring or metrics shard";
  EXPECT_EQ(failed, 0);
}

// The registries are built on first use. A fork() that lands while another
// thread is still inside that first instance() call must not leave the
// child waiting on the unfinished one-time initialization. Each attempt
// needs a process whose registries do not exist yet, so it runs as a
// re-executed death-test child: exit 0 when its own child finished, 3 when
// that child hung.
TEST(ObsFork, ChildUsesRegistriesWhoseFirstUseRacedTheFork) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int attempt = 0; attempt < 16; ++attempt) {
    const bool tracer_first = attempt % 2 == 1;
    EXPECT_EXIT(
        {
          std::atomic<bool> go{false};
          std::thread first_user([&] {
            while (!go.load()) {
            }
            if (tracer_first) {
              obs::Tracer::instance().instant("obs_fork_first_use");
            } else {
              obs::counter("obs_fork_first_use").add();
            }
          });
          go.store(true);
          const pid_t pid = ::fork();
          if (pid == 0) {
            obs::Tracer::instance().set_enabled(true);
            { obs::Span span("fork_child"); }
            obs::counter("obs_fork_child").add();
            ::_exit(0);
          }
          first_user.join();
          const std::optional<int> status = wait_with_deadline(pid, std::chrono::seconds(10));
          std::_Exit(status.has_value() && WIFEXITED(*status) && WEXITSTATUS(*status) == 0 ? 0
                                                                                            : 3);
        },
        ::testing::ExitedWithCode(0), "")
        << "attempt " << attempt << ": the child hung on a registry first used by another thread";
  }
}

// ---- campaign determinism with observability on ------------------------

struct TrialResult {
  bool leaked = false;
  std::uint32_t value = 0;
  bool operator==(const TrialResult& o) const { return leaked == o.leaked && value == o.value; }
};

TrialResult spectre_trial(const core::TrialContext& ctx) {
  auto lease = core::acquire_machine(ctx.machines, sim::MachineProfile::mobile(), ctx.seed);
  attacks::SpectreV1 spectre(*lease, 0);
  const sim::Word index = spectre.plant_secret("K");
  const auto byte = spectre.leak_byte(index);
  TrialResult r;
  r.leaked = byte.has_value() && *byte == 'K';
  r.value = byte.value_or(0xFFFF);
  return r;
}

std::vector<TrialResult> run_with_obs(bool obs_on, unsigned workers) {
  obs::MetricsRegistry::instance().set_enabled(obs_on);
  obs::Tracer::instance().set_enabled(obs_on);
  core::MachinePool pool;
  const auto outcomes = core::run_campaign_resilient<TrialResult>(
      {.seed = 2019, .trials = 48, .workers = workers}, {.machines = &pool}, spectre_trial);
  std::vector<TrialResult> results;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.ok());
    results.push_back(o.value());
  }
  obs::MetricsRegistry::instance().set_enabled(true);
  obs::Tracer::instance().set_enabled(false);
  return results;
}

// The core acceptance property: turning tracing + metrics on must not
// change a single trial bit, at any worker count.
TEST(ObsDeterminism, CampaignBitIdenticalWithObservabilityOnVsOff) {
  const std::vector<TrialResult> reference = run_with_obs(false, 1);
  ASSERT_EQ(reference.size(), 48u);
  for (const unsigned workers : {1u, 2u, 8u}) {
    EXPECT_EQ(run_with_obs(true, workers), reference) << "workers=" << workers << " obs=on";
    EXPECT_EQ(run_with_obs(false, workers), reference) << "workers=" << workers << " obs=off";
  }
  obs::Tracer::instance().reset_for_test();
}

// ---- pool counter accounting ------------------------------------------

TEST(PoolAccounting, RegistryCountersMatchLeaseTrafficExactly) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.set_enabled(true);
  reg.reset_for_test();
  core::MachinePool pool;
  constexpr std::size_t kTrials = 40;
  const auto outcomes = core::run_campaign_resilient<TrialResult>(
      {.seed = 7, .trials = kTrials, .workers = 2}, {.machines = &pool}, spectre_trial);
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.ok());
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  // Counters must agree with the pool's own books...
  EXPECT_EQ(snap.counter("pool_machines_built"), pool.machines_built());
  EXPECT_EQ(snap.counter("pool_leases_served"), pool.leases_served());
  // ...and with the lease traffic the campaign actually generated.
  EXPECT_EQ(snap.counter("pool_leases_served"), kTrials);
  EXPECT_EQ(snap.counter("pool_machines_built") + snap.counter("pool_resets"),
            snap.counter("pool_leases_served"))
      << "every lease is either a fresh build or a reset-reuse";
  EXPECT_EQ(snap.counter("campaign_trials_completed"), kTrials);
  EXPECT_EQ(snap.counter("campaign_trials_failed"), 0u);
  EXPECT_EQ(snap.counter("campaign_trial_retries"), 0u);
  EXPECT_EQ(snap.counter("watchdog_trips"), 0u);
}

// ---- heartbeat ---------------------------------------------------------

TEST(Heartbeat, EmitsFormattedLinesUntilStopped) {
  std::atomic<int> calls{0};
  {
    obs::Heartbeat hb(std::chrono::milliseconds(5),
                      [&] { return "tick " + std::to_string(calls.fetch_add(1)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_GE(calls.load(), 2) << "heartbeat thread should have fired several times";
}

TEST(Heartbeat, InertWhenIntervalNonPositive) {
  std::atomic<int> calls{0};
  {
    obs::Heartbeat hb(std::chrono::milliseconds(0), [&] {
      calls.fetch_add(1);
      return std::string("never");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(Heartbeat, IntervalFromEnvParses) {
  ::setenv("HWSEC_HEARTBEAT_MS", "250", 1);
  EXPECT_EQ(obs::heartbeat_interval_from_env(), std::chrono::milliseconds(250));
  ::setenv("HWSEC_HEARTBEAT_MS", "garbage", 1);
  EXPECT_EQ(obs::heartbeat_interval_from_env(), std::chrono::milliseconds(0));
  ::unsetenv("HWSEC_HEARTBEAT_MS");
  EXPECT_EQ(obs::heartbeat_interval_from_env(), std::chrono::milliseconds(0));
}

}  // namespace
