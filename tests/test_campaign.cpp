// Campaign engine: the determinism contract (results bit-identical at any
// worker count), seed derivation, thread-pool behavior, and the parallel
// ports that ride on it (16-byte CPA, batched trace capture, Figure-1
// evaluation fan-out).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "attacks/physical/power_analysis.h"
#include "attacks/transient/spectre.h"
#include "core/campaign.h"
#include "core/evaluation.h"
#include "core/machine_pool.h"
#include "core/resilience/resilient.h"
#include "sca/cpa.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;
namespace attacks = hwsec::attacks;
namespace sca = hwsec::sca;

namespace {

// ---- seed derivation --------------------------------------------------

TEST(DeriveSeed, PureFunctionOfSeedAndIndex) {
  EXPECT_EQ(sim::derive_seed(1, 0), sim::derive_seed(1, 0));
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(1, 1));
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(2, 0));
}

TEST(DeriveSeed, NoShortRangeCollisions) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seeds.push_back(sim::derive_seed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// ---- thread pool ------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  sim::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, PropagatesExceptions) {
  sim::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("trial failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, FirstExceptionSelectionIsDeterministic) {
  // Two indices throw with distinct messages; the pool must rethrow the
  // LOWEST failing index regardless of which worker hit its failure
  // first. Repeat to shake out scheduling luck.
  for (int round = 0; round < 20; ++round) {
    sim::ThreadPool pool(4);
    try {
      pool.parallel_for(16, [](std::size_t i) {
        if (i == 3 || i == 11) {
          throw std::runtime_error("failed at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 3");
    }
  }
}

TEST(ThreadPool, ExceptionFromNestedParallelForPropagates) {
  sim::ThreadPool pool(2);
  std::atomic<int> outer_done{0};
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t outer) {
                                   pool.parallel_for(4, [outer](std::size_t inner) {
                                     if (outer == 1 && inner == 2) {
                                       throw std::runtime_error("nested failure");
                                     }
                                   });
                                   outer_done.fetch_add(1);
                                 }),
               std::runtime_error);
  // The failing outer iteration never increments; the other three drain.
  EXPECT_EQ(outer_done.load(), 3);
}

TEST(ThreadPool, ExceptionDuringCallerParticipationStillDrains) {
  // Every index throws, so whichever indices the *caller* thread claims
  // while participating in the drain also throw. All indices must still
  // be visited exactly once and exactly one exception must surface.
  sim::ThreadPool pool(2);
  std::vector<std::atomic<int>> visited(64);
  try {
    pool.parallel_for(visited.size(), [&](std::size_t i) {
      visited[i].fetch_add(1);
      throw std::runtime_error("failed at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "failed at 0");  // lowest index wins.
  }
  for (const auto& v : visited) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPool, ConcurrentTopLevelSubmitsSerialize) {
  sim::ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back(
        [&] { pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); }); });
  }
  for (auto& c : clients) {
    c.join();
  }
  EXPECT_EQ(total.load(), 200);
}

// ---- campaign determinism across worker counts ------------------------

struct SpectreOutcome {
  bool leaked = false;
  std::uint32_t value = 0;

  bool operator==(const SpectreOutcome& o) const {
    return leaked == o.leaked && value == o.value;
  }
};

std::vector<SpectreOutcome> spectre_campaign(unsigned workers) {
  return core::run_campaign<SpectreOutcome>(
      {.seed = 7, .trials = 24, .workers = workers}, [](const core::TrialContext& ctx) {
        sim::Machine machine(sim::MachineProfile::mobile(), ctx.seed);
        attacks::SpectreV1 spectre(machine, 0);
        const sim::Word index = spectre.plant_secret("K");
        const auto byte = spectre.leak_byte(index);
        return SpectreOutcome{byte.has_value() && *byte == 'K', byte.value_or(0xFFFF)};
      });
}

TEST(Campaign, AttackProbeTrialsBitIdenticalAcrossWorkerCounts) {
  const auto sequential = spectre_campaign(1);
  ASSERT_EQ(sequential.size(), 24u);
  EXPECT_EQ(spectre_campaign(2), sequential);
  EXPECT_EQ(spectre_campaign(8), sequential);
}

// ---- pinned campaign outcomes ------------------------------------------

struct PinnedSpectreOutcome {
  bool leaked = false;
  std::uint32_t value = 0;
  sim::Cycle cycles = 0;
  std::uint64_t retired = 0;

  bool operator==(const PinnedSpectreOutcome& o) const {
    return leaked == o.leaked && value == o.value && cycles == o.cycles && retired == o.retired;
  }
};

std::vector<PinnedSpectreOutcome> pinned_spectre_campaign(core::MachinePool* pool) {
  const auto outcomes = core::run_campaign_resilient<PinnedSpectreOutcome>(
      {.seed = 7, .trials = 24, .workers = 1}, {.machines = pool},
      [](const core::TrialContext& ctx) {
        auto lease = core::acquire_machine(ctx.machines, sim::MachineProfile::mobile(), ctx.seed);
        attacks::SpectreV1 spectre(*lease, 0);
        const sim::Word index = spectre.plant_secret("K");
        const auto byte = spectre.leak_byte(index);
        return PinnedSpectreOutcome{byte.has_value() && *byte == 'K', byte.value_or(0xFFFF),
                                    lease->cpu(0).cycles(), lease->cpu(0).stats().retired};
      });
  std::vector<PinnedSpectreOutcome> results;
  for (const auto& o : outcomes) {
    results.push_back(o.value());
  }
  return results;
}

/// Whole-campaign pin: the Spectre trial must reproduce, per trial, the
/// outcome, cycle count and retired count that the per-step switch
/// interpreter recorded before the micro-op core became the only commit
/// loop, with and without the pooled decoded-program cache in the loop.
TEST(Campaign, OutcomesBitIdenticalToPinnedSwitchInterpreterVector) {
  const std::vector<PinnedSpectreOutcome> pinned(24, {true, 'K', 854, 58});
  EXPECT_EQ(pinned_spectre_campaign(nullptr), pinned);
  core::MachinePool pool;
  EXPECT_EQ(pinned_spectre_campaign(&pool), pinned)
      << "pooled machines (shared UopCache, snapshot reset-reuse) must not diverge";
}

TEST(Campaign, ResultsLandInTrialOrder) {
  const auto indices = core::run_campaign<std::size_t>(
      {.seed = 3, .trials = 100, .workers = 8},
      [](const core::TrialContext& ctx) { return ctx.index; });
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
}

TEST(Campaign, SummarizeComputesMoments) {
  const auto s = core::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.trials, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
}

TEST(Campaign, SummarizeEmptyOutcomesIsZeroed) {
  // A sweep whose every trial failed hands summarize() an empty vector;
  // the summary must be all zeros, never NaN or garbage.
  const auto s = core::summarize({});
  EXPECT_EQ(s.trials, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.sum, 0.0);
}

// ---- trace-capture campaign ------------------------------------------

TEST(Campaign, TraceCaptureBitIdenticalAcrossWorkerCounts) {
  const hwsec::crypto::AesKey key = {0x10, 0xa5, 0x88, 0x69, 0xd7, 0x4b, 0xe5, 0xa3,
                                     0x74, 0xcf, 0x86, 0x7c, 0xfb, 0x47, 0x38, 0x59};
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = 5;

  auto capture = [&](unsigned workers) {
    return attacks::collect_aes_traces_parallel(key, attacks::AesVariant::kTTable, 150, rec,
                                                31337, 32, workers);
  };
  const auto sequential = capture(1);
  ASSERT_EQ(sequential.traces.size(), 150u);
  ASSERT_EQ(sequential.plaintexts.size(), 150u);

  for (const unsigned workers : {2u, 8u}) {
    const auto parallel = capture(workers);
    ASSERT_EQ(parallel.traces.size(), sequential.traces.size());
    EXPECT_EQ(parallel.plaintexts, sequential.plaintexts);
    EXPECT_EQ(parallel.ciphertexts, sequential.ciphertexts);
    EXPECT_EQ(parallel.traces, sequential.traces);
  }
}

TEST(Campaign, ParallelCaptureStillBreaksUnprotectedAes) {
  const hwsec::crypto::AesKey key = {0x10, 0xa5, 0x88, 0x69, 0xd7, 0x4b, 0xe5, 0xa3,
                                     0x74, 0xcf, 0x86, 0x7c, 0xfb, 0x47, 0x38, 0x59};
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = 5;
  const auto set =
      attacks::collect_aes_traces_parallel(key, attacks::AesVariant::kTTable, 300, rec, 31337);
  const auto result = sca::cpa_attack_key(set);
  EXPECT_GE(result.correct_bytes(key), 14u);
}

// ---- evaluation fan-out ----------------------------------------------

TEST(Campaign, EvaluationIdenticalAcrossWorkerCounts) {
  const auto one = core::evaluate_platform(sim::DeviceClass::kMobile, 42, 1);
  const auto many = core::evaluate_platform(sim::DeviceClass::kMobile, 42, 8);

  EXPECT_DOUBLE_EQ(one.mips, many.mips);
  EXPECT_DOUBLE_EQ(one.nj_per_instruction, many.nj_per_instruction);
  ASSERT_EQ(one.uarch_probes.size(), many.uarch_probes.size());
  for (std::size_t i = 0; i < one.uarch_probes.size(); ++i) {
    EXPECT_EQ(one.uarch_probes[i].name, many.uarch_probes[i].name);
    EXPECT_EQ(one.uarch_probes[i].succeeded, many.uarch_probes[i].succeeded);
    EXPECT_EQ(one.uarch_probes[i].detail, many.uarch_probes[i].detail);
  }
  ASSERT_EQ(one.physical_probes.size(), many.physical_probes.size());
  for (std::size_t i = 0; i < one.physical_probes.size(); ++i) {
    EXPECT_EQ(one.physical_probes[i].succeeded, many.physical_probes[i].succeeded);
    EXPECT_EQ(one.physical_probes[i].detail, many.physical_probes[i].detail);
  }
  EXPECT_DOUBLE_EQ(one.uarch_success_rate, many.uarch_success_rate);
  EXPECT_DOUBLE_EQ(one.physical_success_rate, many.physical_success_rate);
}

}  // namespace
