// Campaign resilience layer: error taxonomy, fault containment, per-trial
// watchdogs, crash-safe checkpoint/resume, and the self-chaos harness.
//
// The invariant under test throughout: containment and recovery may NEVER
// perturb the values of unaffected slots. A campaign with one poisoned
// trial must produce, in every other slot, exactly the bytes the fault-free
// campaign produces — at any worker count, and across a kill/resume cycle.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/resilience/checkpoint.h"
#include "core/resilience/monitor.h"
#include "core/resilience/resilient.h"
#include "core/shard/supervisor.h"
#include "core/shutdown.h"
#include "sim/machine.h"
#include "sim/program.h"
#include "sim/rng.h"
#include "sim/sim_error.h"
#include "sim/watchdog.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;
using hwsec::ErrorKind;
using hwsec::SimError;

namespace {

/// Checkpoint files land in HWSEC_CHECKPOINT_DIR when set (CI archives the
/// directory on failure), else the working directory.
std::string ckpt_path(const std::string& name) {
  const char* dir = std::getenv("HWSEC_CHECKPOINT_DIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  return base + "/" + name + "." + std::to_string(::getpid()) + ".ckpt";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- error taxonomy ---------------------------------------------------

TEST(SimError, CarriesKindDetailMachineAndTrial) {
  SimError e(ErrorKind::kGuestFault, "unexpected halt");
  EXPECT_EQ(e.kind(), ErrorKind::kGuestFault);
  EXPECT_EQ(e.detail(), "unexpected halt");
  EXPECT_FALSE(e.has_trial());
  EXPECT_STREQ(e.what(), "GuestFault: unexpected halt");

  e.with_machine("mobile");
  EXPECT_EQ(e.machine(), "mobile");
  EXPECT_STREQ(e.what(), "GuestFault: unexpected halt [machine=mobile]");

  e.with_trial(3, 99);
  EXPECT_TRUE(e.has_trial());
  EXPECT_EQ(e.trial_index(), 3u);
  EXPECT_EQ(e.trial_seed(), 99u);
  EXPECT_STREQ(e.what(), "GuestFault: unexpected halt [machine=mobile] [trial=3 seed=99]");
}

TEST(SimError, TrialAttributionIsIdempotent) {
  // A nested campaign must not overwrite the inner trial's identity.
  SimError e(ErrorKind::kInternalError, "x");
  e.with_trial(5, 50).with_trial(9, 90);
  EXPECT_EQ(e.trial_index(), 5u);
  EXPECT_EQ(e.trial_seed(), 50u);
}

TEST(SimError, IsCatchableAsRuntimeError) {
  // Legacy call sites catch std::runtime_error; the taxonomy must not
  // break them.
  try {
    throw SimError(ErrorKind::kConfigError, "bad geometry");
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(contains(e.what(), "bad geometry"));
  }
}

TEST(SimError, WrapCurrentExceptionMapsTheTaxonomy) {
  auto wrap = [](auto thrower) {
    try {
      thrower();
    } catch (...) {
      return core::detail::wrap_current_exception();
    }
    return SimError(ErrorKind::kInternalError, "did not throw");
  };
  EXPECT_EQ(wrap([] { throw SimError(ErrorKind::kTimedOut, "w"); }).kind(),
            ErrorKind::kTimedOut);
  EXPECT_EQ(wrap([] { throw std::bad_alloc(); }).kind(), ErrorKind::kResourceExhausted);
  EXPECT_EQ(wrap([] { throw std::runtime_error("r"); }).kind(), ErrorKind::kInternalError);
  EXPECT_EQ(wrap([] { throw 42; }).kind(), ErrorKind::kInternalError);
}

TEST(SimError, OutOfFramesReportsRequestedVsFreeAccounting) {
  sim::Machine m(sim::MachineProfile::embedded(), 1);  // 1 MiB = 256 frames.
  try {
    for (int i = 0; i < 10000; ++i) {
      m.alloc_frames(3);
    }
    FAIL() << "allocator never exhausted";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResourceExhausted);
    EXPECT_EQ(e.machine(), "embedded");
    EXPECT_TRUE(contains(e.detail(), "requested 3 frame(s)")) << e.detail();
    EXPECT_TRUE(contains(e.detail(), "of 256 frames are free")) << e.detail();
  }
}

// ---- fault containment ------------------------------------------------

std::vector<core::TrialOutcome<std::uint64_t>> poisoned_campaign(unsigned workers) {
  return core::run_campaign_resilient<std::uint64_t>(
      {.seed = 7, .trials = 16, .workers = workers}, {},
      [](const core::TrialContext& ctx) -> std::uint64_t {
        if (ctx.index == 5) {
          throw std::runtime_error("poisoned trial");
        }
        return ctx.seed * 2 + 1;
      });
}

TEST(Resilience, ThrowingTrialIsContainedAndNeighboursBitIdentical) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    const auto outcomes = poisoned_campaign(workers);
    ASSERT_EQ(outcomes.size(), 16u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i == 5) {
        ASSERT_FALSE(outcomes[i].ok()) << "workers=" << workers;
        const SimError& e = *outcomes[i].error;
        EXPECT_EQ(e.kind(), ErrorKind::kInternalError);
        EXPECT_EQ(e.detail(), "poisoned trial");
        EXPECT_TRUE(e.has_trial());
        EXPECT_EQ(e.trial_index(), 5u);
        EXPECT_EQ(e.trial_seed(), sim::derive_seed(7, 5));
      } else {
        ASSERT_TRUE(outcomes[i].ok()) << "workers=" << workers << " slot=" << i;
        // Exactly the value the fault-free engine computes for this slot.
        EXPECT_EQ(outcomes[i].value(), sim::derive_seed(7, i) * 2 + 1);
        EXPECT_EQ(outcomes[i].attempts, 1u);
      }
    }
  }
}

TEST(Resilience, ErrorWhatStringsIdenticalAcrossWorkerCounts) {
  const auto one = poisoned_campaign(1);
  const auto eight = poisoned_campaign(8);
  EXPECT_STREQ(one[5].error->what(), eight[5].error->what());
}

// ---- watchdogs --------------------------------------------------------

/// A guest that never halts: the cycle budget is its only way out.
void run_spinning_guest(sim::Machine& machine, std::uint64_t max_instructions) {
  sim::ProgramBuilder b(0x1000);
  b.label("spin").jump("spin");
  const sim::Program program = b.build();
  machine.cpu(0).load_program(program);
  machine.cpu(0).run_from(program.address_of("spin"), max_instructions);
}

TEST(Watchdog, CycleBudgetConvertsHangIntoDeterministicTimedOut) {
  std::string first_what;
  for (int round = 0; round < 2; ++round) {
    sim::Machine machine(sim::MachineProfile::embedded(), 1);
    sim::TrialWatchdog watchdog;
    watchdog.cycle_budget = 5000;
    machine.arm_watchdog(&watchdog);
    try {
      run_spinning_guest(machine, 100'000'000);
      FAIL() << "spin loop terminated";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTimedOut);
      EXPECT_TRUE(contains(e.detail(), "cycle budget")) << e.detail();
      if (round == 0) {
        first_what = e.what();
      } else {
        EXPECT_EQ(first_what, e.what()) << "timeout must be deterministic";
      }
    }
  }
}

TEST(Watchdog, CancelFlagStopsTheGuestAtNextPoll) {
  sim::Machine machine(sim::MachineProfile::embedded(), 1);
  sim::TrialWatchdog watchdog;  // no cycle budget: cancel is the only trigger.
  watchdog.cancel.store(true);
  machine.arm_watchdog(&watchdog);
  try {
    run_spinning_guest(machine, 100'000'000);
    FAIL() << "spin loop terminated";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTimedOut);
    EXPECT_TRUE(contains(e.detail(), "wall-clock")) << e.detail();
  }
}

TEST(Watchdog, CampaignConvertsHangingTrialIntoTimedOutSlot) {
  core::ResilienceConfig res;
  res.trial_cycle_budget = 5000;
  auto run = [&res](unsigned workers) {
    return core::run_campaign_resilient<int>(
        {.seed = 11, .trials = 4, .workers = workers}, res,
        [](const core::TrialContext& ctx) -> int {
          sim::Machine machine(sim::MachineProfile::embedded(), ctx.seed);
          machine.arm_watchdog(ctx.watchdog);
          if (ctx.index == 2) {
            run_spinning_guest(machine, 100'000'000);  // would hang forever.
          }
          return static_cast<int>(ctx.index);
        });
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  for (const auto* outcomes : {&sequential, &parallel}) {
    ASSERT_FALSE((*outcomes)[2].ok());
    EXPECT_EQ((*outcomes)[2].error->kind(), ErrorKind::kTimedOut);
    EXPECT_EQ((*outcomes)[2].error->trial_index(), 2u);
    for (const std::size_t i : {0u, 1u, 3u}) {
      ASSERT_TRUE((*outcomes)[i].ok());
      EXPECT_EQ((*outcomes)[i].value(), static_cast<int>(i));
    }
  }
  EXPECT_STREQ(sequential[2].error->what(), parallel[2].error->what());
}

TEST(Watchdog, WallClockMonitorCancelsOnlyAfterTimeout) {
  sim::TrialWatchdog watchdog;
  core::WallClockMonitor monitor(std::chrono::milliseconds(20));
  auto registration = monitor.watch(watchdog);
  for (int i = 0; i < 1000 && !watchdog.cancel.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(watchdog.cancel.load());
}

TEST(Watchdog, ZeroWallClockTimeoutIsInert) {
  sim::TrialWatchdog watchdog;
  core::WallClockMonitor monitor(std::chrono::milliseconds(0));
  auto registration = monitor.watch(watchdog);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(watchdog.cancel.load());
}

// ---- failure policies -------------------------------------------------

TEST(Resilience, FailFastThrowsTheLowestIndexFailure) {
  core::ResilienceConfig res;
  res.policy = core::FailurePolicy::kFailFast;
  auto body = [](const core::TrialContext& ctx) -> int {
    if (ctx.index >= 10) {
      throw std::runtime_error("late failure");
    }
    return static_cast<int>(ctx.index);
  };
  // Sequential: index 10 fails first and everything after is skipped, so
  // the rethrown error must name trial 10 exactly.
  try {
    core::run_campaign_resilient<int>({.seed = 5, .trials = 32, .workers = 1}, res, body);
    FAIL() << "fail-fast did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternalError);
    EXPECT_EQ(e.trial_index(), 10u);
  }
  // Parallel: still throws a structured error (the winning index may be
  // any failing trial that started before the trip).
  EXPECT_THROW(
      core::run_campaign_resilient<int>({.seed = 5, .trials = 32, .workers = 4}, res, body),
      SimError);
}

TEST(Resilience, RetryRecoversFromInjectedChaos) {
  core::ResilienceConfig res;
  res.policy = core::FailurePolicy::kRetry;
  res.max_attempts = 10;
  res.chaos.throw_probability = 0.35;
  const auto outcomes = core::run_campaign_resilient<std::uint64_t>(
      {.seed = 21, .trials = 12, .workers = 2}, res,
      [](const core::TrialContext& ctx) { return ctx.seed; });
  unsigned retried = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "slot " << i << ": " << outcomes[i].error->what();
    EXPECT_EQ(outcomes[i].value(), sim::derive_seed(21, i));
    retried += outcomes[i].attempts > 1 ? 1 : 0;
  }
  // The chaos stream is deterministic: with p=0.35 over 12 trials some
  // first attempts certainly fail, proving retry actually re-ran them.
  EXPECT_GT(retried, 0u);
}

TEST(Resilience, ChaosOutcomeVectorIsBitIdenticalAcrossWorkerCounts) {
  core::ResilienceConfig res;
  res.chaos.throw_probability = 0.3;
  res.chaos.bad_alloc_probability = 0.2;
  res.chaos.delay_probability = 0.5;
  res.chaos.max_delay_us = 200;
  auto run = [&res](unsigned workers) {
    return core::run_campaign_resilient<std::uint64_t>(
        {.seed = 33, .trials = 20, .workers = workers}, res,
        [](const core::TrialContext& ctx) { return ctx.seed ^ 0xABCDEF; });
  };
  const auto sequential = run(1);
  for (const unsigned workers : {2u, 8u}) {
    const auto parallel = run(workers);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i].ok(), sequential[i].ok()) << "slot " << i;
      EXPECT_EQ(parallel[i].attempts, sequential[i].attempts) << "slot " << i;
      if (sequential[i].ok()) {
        EXPECT_EQ(parallel[i].value(), sequential[i].value()) << "slot " << i;
      } else {
        EXPECT_STREQ(parallel[i].error->what(), sequential[i].error->what()) << "slot " << i;
      }
    }
  }
}

// ---- machine pool under the resilient runner ---------------------------

/// Trial body leasing a machine (pooled reset-reuse when `pool` is set,
/// fresh construction when nullptr) and fingerprinting what it computed.
std::uint64_t leased_machine_trial(const core::TrialContext& ctx, core::MachinePool* pool) {
  auto lease = core::acquire_machine(pool, sim::MachineProfile::mobile(), ctx.seed);
  sim::Machine& m = *lease;
  const sim::PhysAddr frame = m.alloc_frame();
  m.memory().write32(frame, static_cast<sim::Word>(ctx.seed));
  m.caches().access(0, sim::kDomainNormal, frame, sim::AccessType::kRead);
  return static_cast<std::uint64_t>(m.memory().read32(frame)) << 32 ^ m.rng().next_u64() ^ frame;
}

TEST(Resilience, PooledMachinesBitIdenticalToFreshUnderChaos) {
  core::ResilienceConfig res;
  res.policy = core::FailurePolicy::kRetry;
  res.max_attempts = 10;
  res.chaos.throw_probability = 0.25;

  // Reference: the same chaotic campaign with per-trial fresh construction.
  const auto reference = core::run_campaign_resilient<std::uint64_t>(
      {.seed = 77, .trials = 24, .workers = 1}, res,
      [](const core::TrialContext& ctx) { return leased_machine_trial(ctx, nullptr); });

  // Pooled runs must reproduce it bit for bit at every worker count — also
  // when a chaos throw abandons a lease mid-trial and the machine goes
  // back to the pool dirty, to be reset on the retry's acquire.
  for (const unsigned workers : {1u, 2u, 8u}) {
    core::MachinePool pool;
    core::ResilienceConfig pooled_res = res;
    pooled_res.machines = &pool;
    const auto outcomes = core::run_campaign_resilient<std::uint64_t>(
        {.seed = 77, .trials = 24, .workers = workers}, pooled_res,
        [](const core::TrialContext& ctx) { return leased_machine_trial(ctx, ctx.machines); });
    ASSERT_EQ(outcomes.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(outcomes[i].ok(), reference[i].ok()) << "slot " << i << ", " << workers << "w";
      EXPECT_EQ(outcomes[i].attempts, reference[i].attempts) << "slot " << i;
      if (reference[i].ok()) {
        EXPECT_EQ(outcomes[i].value(), reference[i].value()) << "slot " << i << ", " << workers << "w";
      } else {
        EXPECT_STREQ(outcomes[i].error->what(), reference[i].error->what()) << "slot " << i;
      }
    }
    EXPECT_LE(pool.machines_built(), workers) << "more machines than concurrent workers";
    EXPECT_GT(pool.leases_served(), pool.machines_built()) << "pool was never actually reused";
  }
}

// ---- checkpoint / resume ----------------------------------------------

TEST(Checkpoint, RoundTripsOkAndErrorRecords) {
  const std::string path = ckpt_path("roundtrip");
  core::CheckpointFile save(42, 8, sizeof(std::uint64_t));
  const std::uint64_t value = 0x0123456789ABCDEFull;
  core::CheckpointRecord ok;
  ok.ok = true;
  ok.attempts = 2;
  ok.payload.assign(reinterpret_cast<const char*>(&value), sizeof(value));
  save.record(1, ok);
  core::CheckpointRecord err;
  err.ok = false;
  err.kind = static_cast<std::uint8_t>(ErrorKind::kTimedOut);
  err.detail = "cycle budget of 5000 exhausted";
  err.machine = "embedded";
  save.record(4, err);
  ASSERT_TRUE(save.save(path));

  core::CheckpointFile load(42, 8, sizeof(std::uint64_t));
  ASSERT_TRUE(load.load(path));
  ASSERT_EQ(load.size(), 2u);
  const auto& r1 = load.records().at(1);
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(r1.attempts, 2u);
  std::uint64_t restored = 0;
  std::memcpy(&restored, r1.payload.data(), sizeof(restored));
  EXPECT_EQ(restored, value);
  const auto& r4 = load.records().at(4);
  EXPECT_FALSE(r4.ok);
  EXPECT_EQ(static_cast<ErrorKind>(r4.kind), ErrorKind::kTimedOut);
  EXPECT_EQ(r4.detail, "cycle budget of 5000 exhausted");
  EXPECT_EQ(r4.machine, "embedded");

  // A mismatched campaign identity rejects the whole file.
  core::CheckpointFile wrong_seed(43, 8, sizeof(std::uint64_t));
  EXPECT_FALSE(wrong_seed.load(path));
  core::CheckpointFile wrong_size(42, 8, 4);
  EXPECT_FALSE(wrong_size.load(path));
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeSkipsFinishedTrialsBitIdentically) {
  const std::string path = ckpt_path("full_resume");
  std::remove(path.c_str());
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  res.checkpoint_every = 1;
  const core::CampaignConfig cfg{.seed = 77, .trials = 10, .workers = 2};

  const auto first = core::run_campaign_resilient<std::uint64_t>(
      cfg, res, [](const core::TrialContext& ctx) { return ctx.seed * 3; });
  ASSERT_EQ(first.size(), 10u);

  // Second run: the body proves nothing re-executes by throwing on entry.
  const auto resumed = core::run_campaign_resilient<std::uint64_t>(
      cfg, res, [](const core::TrialContext&) -> std::uint64_t {
        throw std::runtime_error("resume must not re-run finished trials");
      });
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_TRUE(resumed[i].ok()) << "slot " << i;
    EXPECT_TRUE(resumed[i].from_checkpoint);
    EXPECT_EQ(resumed[i].value(), first[i].value());
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, PartialResumeRunsOnlyTheMissingSlots) {
  const std::string path = ckpt_path("partial_resume");
  std::remove(path.c_str());
  const std::uint64_t seed = 123;
  const std::size_t trials = 8;
  auto value_for = [seed](std::size_t i) { return sim::derive_seed(seed, i) + 7; };

  // Hand-build a checkpoint holding slots 0..3 only.
  core::CheckpointFile partial(seed, trials, sizeof(std::uint64_t));
  for (std::size_t i = 0; i < 4; ++i) {
    core::CheckpointRecord rec;
    rec.ok = true;
    const std::uint64_t v = value_for(i);
    rec.payload.assign(reinterpret_cast<const char*>(&v), sizeof(v));
    partial.record(i, rec);
  }
  ASSERT_TRUE(partial.save(path));

  core::ResilienceConfig res;
  res.checkpoint_path = path;
  std::array<std::atomic<int>, 8> executed{};
  const auto outcomes = core::run_campaign_resilient<std::uint64_t>(
      {.seed = seed, .trials = trials, .workers = 2}, res,
      [&executed, &value_for](const core::TrialContext& ctx) {
        executed[ctx.index].fetch_add(1);
        return value_for(ctx.index);
      });
  for (std::size_t i = 0; i < trials; ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "slot " << i;
    EXPECT_EQ(outcomes[i].value(), value_for(i));
    EXPECT_EQ(outcomes[i].from_checkpoint, i < 4);
    EXPECT_EQ(executed[i].load(), i < 4 ? 0 : 1) << "slot " << i;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ErrorSlotsAreCheckpointedAndNotRetriedOnResume) {
  const std::string path = ckpt_path("error_resume");
  std::remove(path.c_str());
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  res.checkpoint_every = 1;
  const core::CampaignConfig cfg{.seed = 9, .trials = 6, .workers = 1};

  const auto first = core::run_campaign_resilient<std::uint64_t>(
      cfg, res, [](const core::TrialContext& ctx) -> std::uint64_t {
        if (ctx.index == 2) {
          throw std::runtime_error("deterministic failure");
        }
        return ctx.seed;
      });
  ASSERT_FALSE(first[2].ok());

  // Resume with a body that would now succeed: the recorded failure must
  // be restored, not retried (the campaign's history is authoritative).
  std::atomic<int> reran{0};
  const auto resumed = core::run_campaign_resilient<std::uint64_t>(
      cfg, res, [&reran](const core::TrialContext& ctx) {
        reran.fetch_add(1);
        return ctx.seed;
      });
  EXPECT_EQ(reran.load(), 0);
  ASSERT_FALSE(resumed[2].ok());
  EXPECT_TRUE(resumed[2].from_checkpoint);
  EXPECT_EQ(resumed[2].error->kind(), ErrorKind::kInternalError);
  EXPECT_EQ(resumed[2].error->detail(), "deterministic failure");
  EXPECT_EQ(resumed[2].error->trial_index(), 2u);
  EXPECT_STREQ(resumed[2].error->what(), first[2].error->what());
  std::remove(path.c_str());
}

TEST(Checkpoint, CheckpointingNonTrivialResultIsAConfigError) {
  core::ResilienceConfig res;
  res.checkpoint_path = ckpt_path("nontrivial");
  try {
    core::run_campaign_resilient<std::string>(
        {.seed = 1, .trials = 2}, res,
        [](const core::TrialContext&) { return std::string("x"); });
    FAIL() << "expected kConfigError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kConfigError);
  }
}

TEST(Checkpoint, KilledCampaignResumesBitIdentically) {
  const std::string path = ckpt_path("sigkill");
  std::remove(path.c_str());
  const core::CampaignConfig cfg{.seed = 424242, .trials = 30, .workers = 2};
  const std::function<std::uint64_t(const core::TrialContext&)> slow_body =
      [](const core::TrialContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
        return ctx.seed * 2 + 1;
      };

  // Reference: the uninterrupted campaign (no checkpoint involved).
  const auto reference =
      core::run_campaign_resilient<std::uint64_t>(cfg, core::ResilienceConfig{}, slow_body);

  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: sweep with per-trial checkpointing until the parent kills us.
    core::ResilienceConfig res;
    res.checkpoint_path = path;
    res.checkpoint_every = 1;
    core::run_campaign_resilient<std::uint64_t>(cfg, res, slow_body);
    _exit(0);
  }
  // Parent: wait for at least one atomic checkpoint save, then SIGKILL the
  // child mid-sweep — the file on disk must still be a complete snapshot.
  for (int i = 0; i < 5000; ++i) {
    if (std::ifstream(path).good()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(std::ifstream(path).good()) << "child never checkpointed";
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);

  // Resume: restored + re-run slots together must equal the reference
  // bit for bit, and the checkpoint must have parsed (a torn file would
  // silently restart from zero, which the executed-count check catches).
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  std::atomic<int> executed{0};
  const std::function<std::uint64_t(const core::TrialContext&)> counting_body =
      [&executed](const core::TrialContext& ctx) {
        executed.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
        return ctx.seed * 2 + 1;
      };
  const auto resumed = core::run_campaign_resilient<std::uint64_t>(cfg, res, counting_body);
  ASSERT_EQ(resumed.size(), reference.size());
  std::size_t restored = 0;
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_TRUE(resumed[i].ok()) << "slot " << i;
    EXPECT_EQ(resumed[i].value(), reference[i].value()) << "slot " << i;
    restored += resumed[i].from_checkpoint ? 1 : 0;
  }
  EXPECT_GT(restored, 0u) << "checkpoint restored nothing";
  EXPECT_EQ(static_cast<std::size_t>(executed.load()), cfg.trials - restored);
  std::remove(path.c_str());
}

// ---- checkpoint corruption: load must warn and fall back, never throw --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Writes a valid 6-slot checkpoint and returns its on-disk bytes.
std::string write_sample_checkpoint(const std::string& path) {
  core::CheckpointFile save(55, 6, sizeof(std::uint64_t));
  for (std::size_t i = 0; i < 6; ++i) {
    core::CheckpointRecord rec;
    rec.ok = true;
    const std::uint64_t v = sim::derive_seed(55, i);
    rec.payload.assign(reinterpret_cast<const char*>(&v), sizeof(v));
    save.record(i, rec);
  }
  EXPECT_TRUE(save.save(path));
  return read_file(path);
}

TEST(Checkpoint, TruncatedFileIsRejectedNotFatal) {
  const std::string path = ckpt_path("truncated");
  const std::string intact = write_sample_checkpoint(path);
  // Chop the file at every depth — mid-header, mid-record, mid-checksum.
  for (std::size_t keep = 0; keep < intact.size(); ++keep) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(intact.data(), static_cast<std::streamsize>(keep));
    }
    core::CheckpointFile load(55, 6, sizeof(std::uint64_t));
    EXPECT_FALSE(load.load(path)) << "accepted a file truncated to " << keep << " bytes";
    EXPECT_EQ(load.size(), 0u) << "partial restore from a torn file";
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BitFlippedPayloadIsCaughtByChecksum) {
  const std::string path = ckpt_path("bitflip");
  const std::string intact = write_sample_checkpoint(path);
  // Flip one bit inside the first record's raw result bytes: the layout
  // still parses, so only the content checksum can catch it.
  const std::uint64_t first = sim::derive_seed(55, 0);
  const std::size_t payload =
      intact.find(std::string(reinterpret_cast<const char*>(&first), sizeof(first)));
  ASSERT_NE(payload, std::string::npos);
  std::string corrupt = intact;
  corrupt[payload + 3] = static_cast<char>(corrupt[payload + 3] ^ 0x10);
  ASSERT_NE(corrupt, intact);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  core::CheckpointFile load(55, 6, sizeof(std::uint64_t));
  EXPECT_FALSE(load.load(path)) << "a bit flip inside a well-formed record was restored";
  EXPECT_EQ(load.size(), 0u);
  // The intact bytes still load (the corruption above is what broke it).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << intact;
  }
  EXPECT_TRUE(load.load(path));
  EXPECT_EQ(load.size(), 6u);
  std::remove(path.c_str());
}

TEST(Checkpoint, GarbageAndBinaryFilesFallBackToFreshRun) {
  const std::string path = ckpt_path("garbage");
  for (const std::string& content :
       {std::string("not a checkpoint at all\n"), std::string("\x00\xFF\x7F garbage", 12),
        std::string("hwsec-checkpoint v1 seed=55 trials=6 result_bytes=8\nend 0\n"),
        std::string("hwsec-checkpoint v2 seed=55 trials=6 result_bytes=8\n"
                    "end 0 6e3d57c821de19f0\n")}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << content;
    }
    core::CheckpointFile load(55, 6, sizeof(std::uint64_t));
    EXPECT_FALSE(load.load(path));  // v1/v2 text checkpoints are rejected too.
    EXPECT_EQ(load.size(), 0u);
  }
  // A campaign pointed at the garbage file starts fresh and succeeds.
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  const auto outcomes = core::run_campaign_resilient<std::uint64_t>(
      {.seed = 55, .trials = 6, .workers = 1}, res,
      [](const core::TrialContext& ctx) { return ctx.seed + 1; });
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "slot " << i;
    EXPECT_FALSE(outcomes[i].from_checkpoint);
    EXPECT_EQ(outcomes[i].value(), sim::derive_seed(55, i) + 1);
  }
  std::remove(path.c_str());
}

// ---- graceful shutdown -------------------------------------------------

TEST(Shutdown, SigtermFlushesCheckpointAndExits143) {
  const std::string path = ckpt_path("sigterm");
  std::remove(path.c_str());
  const core::CampaignConfig cfg{.seed = 31337, .trials = 40, .workers = 2};

  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: a cooperative campaign binary — handler installed, slow trials,
    // per-trial checkpoints; exits with the conventional 128+signal code.
    core::install_graceful_shutdown();
    core::ResilienceConfig res;
    res.checkpoint_path = path;
    res.checkpoint_every = 1;
    core::run_campaign_resilient<std::uint64_t>(
        cfg, res, [](const core::TrialContext& ctx) -> std::uint64_t {
          std::this_thread::sleep_for(std::chrono::milliseconds(4));
          return ctx.seed ^ 0xD00D;
        });
    _exit(core::shutdown_exit_code());
  }
  // Parent: wait for the first checkpoint, then request shutdown.
  for (int i = 0; i < 5000; ++i) {
    if (std::ifstream(path).good()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(std::ifstream(path).good()) << "child never checkpointed";
  kill(child, SIGTERM);
  int status = 0;
  waitpid(child, &status, 0);
  ASSERT_TRUE(WIFEXITED(status)) << "child died instead of exiting gracefully";
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);

  // The flushed checkpoint must parse, and resuming from it must complete
  // the campaign bit-identically to an undisturbed run.
  core::CheckpointFile flushed(cfg.seed, cfg.trials, sizeof(std::uint64_t));
  EXPECT_TRUE(flushed.load(path)) << "graceful shutdown left no valid checkpoint";
  EXPECT_GT(flushed.size(), 0u);

  const auto reference = core::run_campaign_resilient<std::uint64_t>(
      cfg, core::ResilienceConfig{},
      [](const core::TrialContext& ctx) -> std::uint64_t { return ctx.seed ^ 0xD00D; });
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  const auto resumed = core::run_campaign_resilient<std::uint64_t>(
      cfg, res, [](const core::TrialContext& ctx) -> std::uint64_t {
        return ctx.seed ^ 0xD00D;
      });
  std::size_t restored = 0;
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_TRUE(resumed[i].ok()) << "slot " << i;
    EXPECT_EQ(resumed[i].value(), reference[i].value()) << "slot " << i;
    restored += resumed[i].from_checkpoint ? 1 : 0;
  }
  EXPECT_GT(restored, 0u);
  std::remove(path.c_str());
}

TEST(Shutdown, RequestSkipsRemainingTrialsAndMarksThem) {
  core::reset_shutdown_for_test();
  core::install_graceful_shutdown();
  std::atomic<int> executed{0};
  const auto outcomes = core::run_campaign_resilient<int>(
      {.seed = 3, .trials = 12, .workers = 1}, {},
      [&executed](const core::TrialContext& ctx) -> int {
        executed.fetch_add(1);
        if (ctx.index == 4) {
          raise(SIGTERM);  // handler sets the flag; nothing is interrupted.
        }
        return static_cast<int>(ctx.index);
      });
  core::reset_shutdown_for_test();
  EXPECT_EQ(executed.load(), 5);  // trials 0..4 ran; the rest were skipped.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i <= 4) {
      ASSERT_TRUE(outcomes[i].ok()) << "slot " << i;
      EXPECT_FALSE(outcomes[i].skipped);
    } else {
      EXPECT_TRUE(outcomes[i].skipped) << "slot " << i;
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_FALSE(outcomes[i].error.has_value());
    }
  }
}

// ---- sharded campaigns under fire --------------------------------------

TEST(Shard, KilledWorkerMidRunStillMergesBitIdentically) {
  // Reference: the undisturbed in-process single-worker campaign.
  const core::CampaignConfig cfg{.seed = 909, .trials = 48, .workers = 1};
  const std::function<std::uint64_t(const core::TrialContext&)> body =
      [](const core::TrialContext& ctx) -> std::uint64_t {
        return ctx.seed * 31 + ctx.index;
      };
  const auto reference =
      core::run_campaign_resilient<std::uint64_t>(cfg, core::ResilienceConfig{}, body);

  // Sharded run with seeded worker SIGKILLs: workers die mid-shard, the
  // supervisor migrates their unfinished trials and respawns. The merged
  // vector must not differ in a single byte.
  core::ResilienceConfig res;
  res.chaos.worker_kill_probability = 0.08;
  core::shard::ShardConfig shard;
  shard.processes = 2;
  shard.shard_size = 6;
  core::shard::ShardStats stats;
  const auto sharded = core::shard::run_campaign_sharded<std::uint64_t>(
      cfg, res, shard, body, &stats);
  ASSERT_EQ(sharded.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(sharded[i].ok()) << "slot " << i;
    EXPECT_EQ(sharded[i].value(), reference[i].value()) << "slot " << i;
  }
  // The chaos stream is deterministic: with p=0.08 over 48 trials at least
  // one worker certainly died, so this run actually exercised recovery.
  EXPECT_GT(stats.worker_deaths, 0u) << "chaos injected no deaths; test is vacuous";
  EXPECT_GT(stats.migrations, 0u);
}

// ---- atomic file writes -----------------------------------------------

TEST(AtomicWrite, ReplacesContentAndLeavesNoTemporary) {
  const std::string path = ckpt_path("atomic_json");
  ASSERT_TRUE(core::write_file_atomic(path, "{\"v\": 1}\n"));
  ASSERT_TRUE(core::write_file_atomic(path, "{\"v\": 2}\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"v\": 2}\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

}  // namespace
