// Multi-process sharded campaign supervisor (core/shard).
//
// The invariant under test: a sharded campaign — at ANY process count,
// under worker crashes, hangs, stragglers, checkpoint resume, or total
// worker loss — produces exactly the outcome vector the in-process
// resilient runner produces. Fork, pipes, migration, and respawn must not
// change a single byte.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/machine_pool.h"
#include "core/resilience/resilient.h"
#include "core/shard/supervisor.h"
#include "core/shard/wire.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/sim_error.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;
namespace shard = hwsec::core::shard;
using hwsec::ErrorKind;
using hwsec::SimError;

namespace {

std::string ckpt_path(const std::string& name) {
  const char* dir = std::getenv("HWSEC_CHECKPOINT_DIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  return base + "/" + name + "." + std::to_string(::getpid()) + ".ckpt";
}

// ---- wire format -------------------------------------------------------

TEST(Wire, FramesRoundTripThroughAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  shard::AssignPayload assign;
  assign.shard_id = 7;
  assign.begin = 32;
  assign.end = 48;
  assign.attempt = 2;
  assign.done_mask = {0x05, 0x80};  // trials 32, 34, and 47 already done.
  ASSERT_TRUE(shard::write_frame(
      fds[1], {shard::FrameType::kAssign, shard::encode_assign(assign)}));

  shard::TrialPayload trial;
  trial.index = 33;
  trial.record.ok = true;
  trial.record.attempts = 3;
  trial.record.payload = std::string("\x01\x02\x00\xFF", 4);
  ASSERT_TRUE(shard::write_frame(
      fds[1], {shard::FrameType::kTrial, shard::encode_trial(trial)}));

  shard::TrialPayload err_trial;
  err_trial.index = 34;
  err_trial.record.ok = false;
  err_trial.record.kind = static_cast<std::uint8_t>(ErrorKind::kTimedOut);
  err_trial.record.detail = "cycle budget exhausted";
  err_trial.record.machine = "mobile";
  ASSERT_TRUE(shard::write_frame(
      fds[1], {shard::FrameType::kTrial, shard::encode_trial(err_trial)}));

  {
    shard::Frame frame;
    ASSERT_TRUE(shard::read_frame(fds[0], frame));
    ASSERT_EQ(frame.type, shard::FrameType::kAssign);
    shard::AssignPayload got;
    ASSERT_TRUE(shard::decode_assign(frame.payload, got));
    EXPECT_EQ(got.shard_id, 7u);
    EXPECT_EQ(got.begin, 32u);
    EXPECT_EQ(got.end, 48u);
    EXPECT_EQ(got.attempt, 2u);
    EXPECT_TRUE(got.done(32));
    EXPECT_FALSE(got.done(33));
    EXPECT_TRUE(got.done(34));
    EXPECT_TRUE(got.done(47));
    EXPECT_FALSE(got.done(46));
  }
  {
    shard::Frame frame;
    ASSERT_TRUE(shard::read_frame(fds[0], frame));
    ASSERT_EQ(frame.type, shard::FrameType::kTrial);
    shard::TrialPayload got;
    ASSERT_TRUE(shard::decode_trial(frame.payload, got));
    EXPECT_EQ(got.index, 33u);
    EXPECT_TRUE(got.record.ok);
    EXPECT_EQ(got.record.attempts, 3u);
    EXPECT_EQ(got.record.payload, trial.record.payload);
  }
  {
    shard::Frame frame;
    ASSERT_TRUE(shard::read_frame(fds[0], frame));
    shard::TrialPayload got;
    ASSERT_TRUE(shard::decode_trial(frame.payload, got));
    EXPECT_EQ(got.index, 34u);
    EXPECT_FALSE(got.record.ok);
    EXPECT_EQ(static_cast<ErrorKind>(got.record.kind), ErrorKind::kTimedOut);
    EXPECT_EQ(got.record.detail, "cycle budget exhausted");
    EXPECT_EQ(got.record.machine, "mobile");
  }
  {
    // Inputs decode_trial must refuse: a kTrial record carrying the
    // skipped flag (a worker never reports a slot it did not run) and a
    // payload one byte short.
    std::string skipped = shard::encode_trial(trial);
    skipped[8] = static_cast<char>(skipped[8] | 2);  // flags byte after the u64 index.
    shard::TrialPayload got;
    EXPECT_FALSE(shard::decode_trial(skipped, got));
    const std::string full = shard::encode_trial(err_trial);
    EXPECT_TRUE(shard::decode_trial(full, got));
    EXPECT_FALSE(shard::decode_trial(full.substr(0, full.size() - 1), got));
  }
  close(fds[0]);
  close(fds[1]);
}

TEST(Wire, BadMagicAndVersionPoisonTheStream) {
  shard::Frame good{shard::FrameType::kHeartbeat, ""};
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(shard::write_frame(fds[1], good));
  char raw[64];
  const ssize_t n = read(fds[0], raw, sizeof(raw));
  ASSERT_GT(n, 0);
  close(fds[0]);
  close(fds[1]);

  {
    // Intact bytes parse.
    shard::FrameBuffer buf;
    buf.append(raw, static_cast<std::size_t>(n));
    shard::Frame out;
    EXPECT_TRUE(buf.next(out));
    EXPECT_EQ(out.type, shard::FrameType::kHeartbeat);
    EXPECT_FALSE(buf.corrupt());
  }
  {
    // Flipped magic byte: the stream is poisoned, no frame comes out.
    char bad[64];
    std::memcpy(bad, raw, static_cast<std::size_t>(n));
    bad[0] ^= 0x01;
    shard::FrameBuffer buf;
    buf.append(bad, static_cast<std::size_t>(n));
    shard::Frame out;
    EXPECT_FALSE(buf.next(out));
    EXPECT_TRUE(buf.corrupt());
  }
  {
    // Future protocol version: rejected at the header, not misparsed.
    char bad[64];
    std::memcpy(bad, raw, static_cast<std::size_t>(n));
    bad[4] = 0x7F;  // version field, little-endian low byte.
    shard::FrameBuffer buf;
    buf.append(bad, static_cast<std::size_t>(n));
    shard::Frame out;
    EXPECT_FALSE(buf.next(out));
    EXPECT_TRUE(buf.corrupt());
  }
}

TEST(Wire, TruncatedFrameWaitsForMoreBytesThenCompletes) {
  shard::TrialPayload trial;
  trial.index = 9;
  trial.record.ok = true;
  trial.record.payload = "abcdefgh";
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(shard::write_frame(
      fds[1], {shard::FrameType::kTrial, shard::encode_trial(trial)}));
  char raw[256];
  const ssize_t n = read(fds[0], raw, sizeof(raw));
  ASSERT_GT(n, 16);
  close(fds[0]);
  close(fds[1]);

  shard::FrameBuffer buf;
  shard::Frame out;
  // Feed byte by byte: no frame until the very last byte arrives.
  for (ssize_t i = 0; i < n - 1; ++i) {
    buf.append(raw + i, 1);
    EXPECT_FALSE(buf.next(out)) << "frame produced from a truncated prefix at byte " << i;
    EXPECT_FALSE(buf.corrupt());
  }
  buf.append(raw + n - 1, 1);
  ASSERT_TRUE(buf.next(out));
  shard::TrialPayload got;
  ASSERT_TRUE(shard::decode_trial(out.payload, got));
  EXPECT_EQ(got.index, 9u);
  EXPECT_EQ(got.record.payload, "abcdefgh");
}

// ---- sharded == in-process, bit for bit --------------------------------

struct Fingerprint {
  std::uint64_t a = 0;
  std::uint32_t b = 0;

  bool operator==(const Fingerprint& other) const { return a == other.a && b == other.b; }
};

const std::function<Fingerprint(const core::TrialContext&)> kFingerprintBody =
    [](const core::TrialContext& ctx) {
      Fingerprint f;
      f.a = ctx.seed * 0x9E3779B97F4A7C15ull + ctx.index;
      f.b = static_cast<std::uint32_t>(ctx.seed >> 32);
      return f;
    };

std::vector<core::TrialOutcome<Fingerprint>> reference_run(const core::CampaignConfig& cfg) {
  return core::run_campaign_resilient<Fingerprint>(cfg, core::ResilienceConfig{},
                                                   kFingerprintBody);
}

void expect_bit_identical(const std::vector<core::TrialOutcome<Fingerprint>>& got,
                          const std::vector<core::TrialOutcome<Fingerprint>>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].ok(), want[i].ok()) << label << " slot " << i;
    if (want[i].ok() && got[i].ok()) {
      EXPECT_EQ(got[i].value(), want[i].value()) << label << " slot " << i;
    }
    if (want[i].error.has_value() && got[i].error.has_value()) {
      EXPECT_STREQ(got[i].error->what(), want[i].error->what()) << label << " slot " << i;
    }
  }
}

TEST(Shard, BitIdenticalToInProcessAtEveryProcessCount) {
  const core::CampaignConfig cfg{.seed = 1234, .trials = 37, .workers = 1};
  const auto want = reference_run(cfg);
  for (const unsigned processes : {0u, 1u, 2u, 4u}) {
    core::shard::ShardConfig shard_cfg;
    shard_cfg.processes = processes;
    shard_cfg.shard_size = 5;  // uneven tail shard on purpose (37 = 7*5 + 2).
    core::shard::ShardStats stats;
    const auto got = core::shard::run_campaign_sharded<Fingerprint>(
        cfg, {}, shard_cfg, kFingerprintBody, &stats);
    expect_bit_identical(got, want, "processes=" + std::to_string(processes));
    EXPECT_EQ(stats.trials_executed, cfg.trials) << "processes=" << processes;
    EXPECT_EQ(stats.shards_total, 8u) << "processes=" << processes;
  }
}

TEST(Shard, PoisonedTrialErrorCrossesTheProcessBoundaryIntact) {
  const core::CampaignConfig cfg{.seed = 66, .trials = 20, .workers = 1};
  const std::function<Fingerprint(const core::TrialContext&)> body =
      [](const core::TrialContext& ctx) -> Fingerprint {
        if (ctx.index == 11) {
          throw SimError(ErrorKind::kGuestFault, "poisoned shard trial").with_machine("mobile");
        }
        return kFingerprintBody(ctx);
      };
  const auto want =
      core::run_campaign_resilient<Fingerprint>(cfg, core::ResilienceConfig{}, body);
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 2;
  const auto got =
      core::shard::run_campaign_sharded<Fingerprint>(cfg, {}, shard_cfg, body);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(got[11].ok());
  const SimError& e = *got[11].error;
  EXPECT_EQ(e.kind(), ErrorKind::kGuestFault);
  EXPECT_EQ(e.detail(), "poisoned shard trial");
  EXPECT_EQ(e.machine(), "mobile");
  EXPECT_EQ(e.trial_index(), 11u);
  EXPECT_EQ(e.trial_seed(), sim::derive_seed(66, 11));
  EXPECT_STREQ(e.what(), want[11].error->what());
  expect_bit_identical(got, want, "poisoned");
}

TEST(Shard, MachinePoolBodyBitIdenticalAcrossProcesses) {
  // Each worker process builds its own MachinePool; pooled reset-reuse
  // inside a worker must reproduce the in-process pooled results exactly.
  const core::CampaignConfig cfg{.seed = 424, .trials = 12, .workers = 1};
  const std::function<std::uint64_t(const core::TrialContext&)> body =
      [](const core::TrialContext& ctx) -> std::uint64_t {
        auto lease =
            core::acquire_machine(ctx.machines, sim::MachineProfile::mobile(), ctx.seed);
        sim::Machine& m = *lease;
        const sim::PhysAddr frame = m.alloc_frame();
        m.memory().write32(frame, static_cast<sim::Word>(ctx.seed));
        return static_cast<std::uint64_t>(m.memory().read32(frame)) ^ m.rng().next_u64();
      };
  const auto want =
      core::run_campaign_resilient<std::uint64_t>(cfg, core::ResilienceConfig{}, body);
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 3;
  shard_cfg.shard_size = 2;
  const auto got = core::shard::run_campaign_sharded<std::uint64_t>(cfg, {}, shard_cfg, body);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << "slot " << i;
    EXPECT_EQ(got[i].value(), want[i].value()) << "slot " << i;
  }
}

// ---- robustness: crashes, hangs, total loss ----------------------------

TEST(Shard, WorkerKillChaosConvergesBitIdentically) {
  const core::CampaignConfig cfg{.seed = 5150, .trials = 60, .workers = 1};
  const auto want = reference_run(cfg);
  core::ResilienceConfig res;
  res.chaos.worker_kill_probability = 0.10;
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 3;
  shard_cfg.shard_size = 5;
  core::shard::ShardStats stats;
  const auto got = core::shard::run_campaign_sharded<Fingerprint>(
      cfg, res, shard_cfg, kFingerprintBody, &stats);
  expect_bit_identical(got, want, "kill-chaos");
  EXPECT_GT(stats.worker_deaths, 0u) << "chaos rolled no kills; test is vacuous";
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.worker_respawns, 0u);
}

TEST(Shard, SigstoppedWorkerIsDetectedByHeartbeatAgeAndRecovered) {
  const core::CampaignConfig cfg{.seed = 8080, .trials = 24, .workers = 1};
  const auto want = reference_run(cfg);
  core::ResilienceConfig res;
  res.chaos.worker_stop_probability = 0.06;
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 2;
  shard_cfg.shard_size = 4;
  shard_cfg.heartbeat_interval = std::chrono::milliseconds(10);
  shard_cfg.hang_timeout = std::chrono::milliseconds(150);
  core::shard::ShardStats stats;
  const auto got = core::shard::run_campaign_sharded<Fingerprint>(
      cfg, res, shard_cfg, kFingerprintBody, &stats);
  expect_bit_identical(got, want, "sigstop");
  EXPECT_GT(stats.worker_hangs, 0u) << "chaos rolled no stops; test is vacuous";
  EXPECT_GT(stats.migrations, 0u);
}

TEST(Shard, TotalWorkerLossFallsBackInProcessAndStillConverges) {
  // Every worker kills itself on its first trial and the respawn budget is
  // zero: the supervisor must finish the whole campaign in-process.
  const core::CampaignConfig cfg{.seed = 17, .trials = 16, .workers = 1};
  const auto want = reference_run(cfg);
  core::ResilienceConfig res;
  res.chaos.worker_kill_probability = 1.0;
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 2;
  shard_cfg.max_respawns = 0;
  core::shard::ShardStats stats;
  const auto got = core::shard::run_campaign_sharded<Fingerprint>(
      cfg, res, shard_cfg, kFingerprintBody, &stats);
  expect_bit_identical(got, want, "total-loss");
  EXPECT_EQ(stats.worker_respawns, 0u);
  EXPECT_GT(stats.worker_deaths, 0u);
  EXPECT_GT(stats.fallback_trials, 0u);
  EXPECT_EQ(stats.trials_executed, cfg.trials);
}

TEST(Shard, FailFastThrowsTheLowestIndexFailureAfterDraining) {
  const core::CampaignConfig cfg{.seed = 2, .trials = 30, .workers = 1};
  const std::function<Fingerprint(const core::TrialContext&)> body =
      [](const core::TrialContext& ctx) -> Fingerprint {
        if (ctx.index >= 13) {
          throw SimError(ErrorKind::kGuestFault, "late failure");
        }
        return kFingerprintBody(ctx);
      };
  core::ResilienceConfig res;
  res.policy = core::FailurePolicy::kFailFast;
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 2;
  try {
    core::shard::run_campaign_sharded<Fingerprint>(cfg, res, shard_cfg, body);
    FAIL() << "sharded fail-fast did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kGuestFault);
    // The winning index is the lowest RECORDED failure; with 2 workers any
    // failing trial that completed before the trip can win, but it must be
    // a genuinely failing index.
    EXPECT_GE(e.trial_index(), 13u);
  }
}

TEST(Shard, NonTrivialResultIsAConfigError) {
  EXPECT_THROW(core::shard::run_campaign_sharded<std::string>(
                   {.seed = 1, .trials = 2, .workers = 1}, {}, {},
                   [](const core::TrialContext&) { return std::string("x"); }),
               SimError);
}

// ---- checkpoint resume across process counts ---------------------------

TEST(Shard, ResumesFromCheckpointAtADifferentProcessCount) {
  const std::string path = ckpt_path("shard_resume");
  std::remove(path.c_str());
  const core::CampaignConfig cfg{.seed = 777, .trials = 20, .workers = 1};
  const auto want = reference_run(cfg);

  // First run: in-process resilient runner writes the checkpoint.
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  res.checkpoint_every = 1;
  core::run_campaign_resilient<Fingerprint>(cfg, res, kFingerprintBody);

  // Second run: sharded at 2 processes against the same file. Every slot
  // must restore; zero fresh executions.
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 2;
  core::shard::ShardStats stats;
  const auto resumed = core::shard::run_campaign_sharded<Fingerprint>(
      cfg, res, shard_cfg, kFingerprintBody, &stats);
  expect_bit_identical(resumed, want, "full-restore");
  EXPECT_EQ(stats.trials_executed, 0u);
  for (const auto& o : resumed) {
    EXPECT_TRUE(o.from_checkpoint);
  }
  std::remove(path.c_str());
}

TEST(Shard, PartialCheckpointRunsOnlyMissingSlots) {
  const std::string path = ckpt_path("shard_partial");
  std::remove(path.c_str());
  const core::CampaignConfig cfg{.seed = 321, .trials = 18, .workers = 1};
  const auto want = reference_run(cfg);

  // Hand-build a checkpoint holding a scattered subset of slots.
  core::CheckpointFile partial(cfg.seed, cfg.trials, sizeof(Fingerprint));
  std::size_t prefilled = 0;
  for (const std::size_t i : {0u, 1u, 5u, 9u, 10u, 11u, 17u}) {
    core::CheckpointRecord rec;
    rec.ok = true;
    const Fingerprint v = want[i].value();
    rec.payload.assign(reinterpret_cast<const char*>(&v), sizeof(v));
    partial.record(i, rec);
    ++prefilled;
  }
  ASSERT_TRUE(partial.save(path));

  core::ResilienceConfig res;
  res.checkpoint_path = path;
  core::shard::ShardConfig shard_cfg;
  shard_cfg.processes = 2;
  shard_cfg.shard_size = 4;
  core::shard::ShardStats stats;
  const auto resumed = core::shard::run_campaign_sharded<Fingerprint>(
      cfg, res, shard_cfg, kFingerprintBody, &stats);
  expect_bit_identical(resumed, want, "partial-restore");
  EXPECT_EQ(stats.trials_executed, cfg.trials - prefilled);
  for (const std::size_t i : {0u, 1u, 5u, 9u, 10u, 11u, 17u}) {
    EXPECT_TRUE(resumed[i].from_checkpoint) << "slot " << i;
  }
  EXPECT_FALSE(resumed[2].from_checkpoint);
  std::remove(path.c_str());
}

}  // namespace
