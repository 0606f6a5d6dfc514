// Extension features: TLB side channel + partitioning, branch shadowing
// + predictor-flush mitigation, TimeWarp-style timer coarsening, the
// performance-counter attack detector, and C-FLAT control-flow
// attestation.
#include <gtest/gtest.h>

#include "attacks/cache/cache_attacks.h"
#include "attacks/cache/tlb_attack.h"
#include "attacks/transient/branch_shadow.h"
#include "core/detector.h"
#include "tee/cflat.h"

namespace sim = hwsec::sim;
namespace tee = hwsec::tee;
namespace attacks = hwsec::attacks;
namespace core = hwsec::core;
namespace crypto = hwsec::crypto;

namespace {

// ---- TLB attack ----------------------------------------------------------

TEST(TlbAttack, RecoversSecretNibblesThroughSharedTlb) {
  sim::Machine machine(sim::MachineProfile::server(), 901);
  attacks::TlbAttack attack(machine, 0);
  EXPECT_GE(attack.accuracy(64), 0.95)
      << "ASID tagging does not stop the occupancy channel (Gras et al.)";
}

TEST(TlbAttack, WayPartitioningClosesTheChannel) {
  sim::Machine machine(sim::MachineProfile::server(), 902);
  attacks::TlbAttack attack(machine, 0);
  // Give attacker and victim disjoint TLB ways.
  attack.mmu().tlb().set_way_partition(attacks::TlbAttack::kAttackerAsid, 0, 2);
  attack.mmu().tlb().set_way_partition(attacks::TlbAttack::kVictimAsid, 2, 2);
  EXPECT_LE(attack.accuracy(64), 0.15)
      << "with disjoint ways the victim cannot displace attacker entries";
}

TEST(Tlb, PartitionScrubsOutOfRangeEntries) {
  sim::Tlb tlb({.entries = 16, .ways = 4, .asid_tagged = true});
  tlb.insert(0x1000 * sim::kPageSize, 0x2000, 0, 5);
  tlb.set_way_partition(5, 0, 1);
  // The entry may have landed in any way; after partitioning to way 0,
  // either it survived (was in way 0) or was scrubbed — but a fresh
  // insert must stay inside the partition and be findable.
  tlb.insert(0x2000 * sim::kPageSize, 0x3000, 0, 5);
  EXPECT_TRUE(tlb.present(0x2000 * sim::kPageSize, 5));
}

// ---- branch shadowing -------------------------------------------------------

TEST(BranchShadow, InfersEnclaveBranchDirections) {
  sim::Machine machine(sim::MachineProfile::server(), 903);
  attacks::BranchShadowAttack attack(machine, 0);
  EXPECT_GE(attack.accuracy(64), 0.95)
      << "the shared PHT leaks the victim's branch direction (Lee et al.)";
}

TEST(BranchShadow, PredictorFlushBlindsTheShadow) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.predictor.flush_on_domain_switch = true;
  sim::Machine machine(profile, 904);
  attacks::BranchShadowAttack attack(machine, 0);
  const double acc = attack.accuracy(64);
  EXPECT_LE(acc, 0.75) << "flushed counters carry no victim training";
}

// ---- TimeWarp timer defense ---------------------------------------------------

TEST(TimerDefense, PerfectTimerPassesThrough) {
  sim::Machine machine(sim::MachineProfile::server(), 905);
  EXPECT_EQ(machine.observe_latency(123), 123u);
}

TEST(TimerDefense, GranularitySnapsReadings) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.timer.granularity = 100;
  sim::Machine machine(profile, 906);
  EXPECT_EQ(machine.observe_latency(34), 0u);
  EXPECT_EQ(machine.observe_latency(184), 100u);
  EXPECT_EQ(machine.observe_latency(250), 200u);
}

TEST(TimerDefense, CoarseJitteryTimerDegradesFlushReload) {
  const crypto::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  auto run = [&key](sim::Cycle granularity, sim::Cycle jitter) {
    sim::MachineProfile profile = sim::MachineProfile::server();
    profile.timer.granularity = granularity;
    profile.timer.jitter = jitter;
    sim::Machine machine(profile, 907);
    const sim::PhysAddr tables = machine.alloc_frames(2);
    attacks::AesCacheVictim victim(machine, 1, 7, tables, key);
    attacks::CacheAttackConfig config;
    config.trials = 300;
    return attacks::flush_reload_attack(
               machine, victim.layout(),
               [&victim](const crypto::AesBlock& pt) { return victim.encrypt(pt); }, config)
        .correct_nibbles(key);
  };
  EXPECT_EQ(run(1, 0), 16u);
  // TimeWarp's own claim is degradation, not elimination: the attacker
  // needs quadratically more samples. Under a fixed 300-trial budget the
  // fuzzed timer must cost a substantial fraction of the key.
  EXPECT_LE(run(512, 512), 12u)
      << "readings coarser than the hit/miss gap must degrade the signal (TimeWarp)";
}

// ---- randomized address-to-set mapping ([40] / CEASER-family) -------------

TEST(RandomizedMapping, ScrambleSpreadsCongruentLinesAndRekeyFlushes) {
  sim::Cache cache({.name = "r", .size_bytes = 64 * 1024, .ways = 4, .line_size = 64,
                    .policy = sim::ReplacementPolicy::kLru, .hit_latency = 4},
                   1);
  // Identity mapping: stride = line * sets lands every line in set 0.
  const sim::PhysAddr stride = 64 * cache.config().num_sets();
  cache.set_index_scramble(0xFEED);
  std::uint32_t distinct = 0;
  std::vector<bool> seen(cache.config().num_sets(), false);
  for (sim::PhysAddr i = 0; i < 64; ++i) {
    const std::uint32_t set = cache.set_index(i * stride);
    if (!seen[set]) {
      seen[set] = true;
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 32u) << "keyed mapping must break identity congruence classes";
  cache.access(0, 0);
  ASSERT_TRUE(cache.probe(0));
  cache.rekey(0xBEEF);
  EXPECT_FALSE(cache.probe(0)) << "a remap epoch invalidates placements";
}

TEST(RandomizedMapping, StaticScrambleAloneDoesNotStopAnAdaptedAttacker) {
  // The CEASER-static lesson: once the attacker has learned the mapping
  // (modeled by the eviction-set builder consulting the scrambled
  // set_index), a fixed randomization changes nothing.
  const crypto::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  sim::Machine machine(sim::MachineProfile::server(), 921);
  machine.caches().llc().set_index_scramble(0xD00D);
  const sim::PhysAddr tables = machine.alloc_frames(2);
  attacks::AesCacheVictim victim(machine, 1, 7, tables, key);
  attacks::CacheAttackConfig config;
  config.trials = 400;
  const auto result = attacks::prime_probe_attack(
      machine, victim.layout(),
      [&victim](const crypto::AesBlock& pt) { return victim.encrypt(pt); }, config);
  EXPECT_GE(result.correct_nibbles(key), 15u);
}

TEST(RandomizedMapping, PeriodicRekeyingStarvesTheAttack) {
  // Dynamic re-keying (the [40]-family's actual strength): learned
  // eviction sets go stale every epoch, faster than the attack gathers
  // observations.
  const crypto::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  sim::Machine machine(sim::MachineProfile::server(), 922);
  machine.caches().llc().set_index_scramble(0xD00D);
  const sim::PhysAddr tables = machine.alloc_frames(2);
  attacks::AesCacheVictim victim(machine, 1, 7, tables, key);
  attacks::CacheAttackConfig config;
  config.trials = 400;
  std::uint64_t calls = 0;
  std::uint64_t epoch = 1;
  const auto result = attacks::prime_probe_attack(
      machine, victim.layout(),
      [&victim, &machine, &calls, &epoch](const crypto::AesBlock& pt) {
        if (++calls % 8 == 0) {
          machine.caches().llc().rekey(0xD00D + (++epoch));
        }
        return victim.encrypt(pt);
      },
      config);
  EXPECT_LE(result.correct_nibbles(key), 6u)
      << "stale eviction sets carry no signal across remap epochs";
}

// ---- performance-counter detector -----------------------------------------------

TEST(Detector, FlagsPrimeProbeAndNotBenignActivity) {
  const crypto::AesKey key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7};
  sim::Machine machine(sim::MachineProfile::server(), 908);
  const sim::PhysAddr tables = machine.alloc_frames(2);
  attacks::AesCacheVictim victim(machine, 1, 7, tables, key);
  core::CacheAttackDetector detector(machine, /*victim_domain=*/7);

  hwsec::sim::Rng rng(909);
  auto random_block = [&rng]() {
    crypto::AesBlock b;
    for (auto& byte : b) {
      byte = static_cast<std::uint8_t>(rng.next_u32());
    }
    return b;
  };

  // Calibrate over benign windows: the victim encrypts, a co-tenant does
  // ordinary memory work.
  const sim::PhysAddr cotenant = machine.alloc_frames(8);
  for (int w = 0; w < 10; ++w) {
    detector.begin_window();
    for (int i = 0; i < 20; ++i) {
      victim.encrypt(random_block());
      for (sim::PhysAddr a = 0; a < 8 * sim::kPageSize; a += 256) {
        machine.touch(0, sim::kDomainNormal, cotenant + a);
      }
    }
    detector.end_window();
  }
  detector.finish_calibration();

  // More benign windows: no alerts.
  for (int w = 0; w < 5; ++w) {
    detector.begin_window();
    for (int i = 0; i < 20; ++i) {
      victim.encrypt(random_block());
    }
    detector.end_window();
  }
  EXPECT_EQ(detector.alerts(), 0u);

  // Attack window: Prime+Probe hammers the victim's sets.
  detector.begin_window();
  attacks::CacheAttackConfig config;
  config.trials = 60;
  attacks::prime_probe_attack(
      machine, victim.layout(),
      [&victim](const crypto::AesBlock& pt) { return victim.encrypt(pt); }, config);
  const auto reading = detector.end_window();
  EXPECT_TRUE(reading.flagged) << "victim evictions in window: " << reading.victim_evictions
                               << " vs baseline " << detector.baseline_mean();
  EXPECT_GE(detector.alerts(), 1u);
}

// ---- C-FLAT control-flow attestation ------------------------------------------------

class CflatTest : public ::testing::Test {
 protected:
  CflatTest() : machine_(sim::MachineProfile::embedded(), 910) {
    // A tiny firmware routine with input-dependent control flow: takes r1,
    // branches, loops r1 times, returns a value in r2.
    sim::ProgramBuilder b(0x4000);
    b.label("entry")
        .li(sim::R2, 0)
        .label("loop")
        .br(sim::BranchCond::kGeu, sim::R2, sim::R1, "done")
        .addi(sim::R2, sim::R2, 1)
        .jump("loop")
        .label("done")
        .halt();
    program_ = b.build();
    machine_.cpu(0).load_program(program_);
  }

  crypto::Sha256Digest run_measured(sim::Word input) {
    tee::CflatMonitor monitor(machine_.cpu(0));
    monitor.begin();
    machine_.cpu(0).set_reg(sim::R1, input);
    machine_.cpu(0).run_from(program_.address_of("entry"), 1000);
    return monitor.end();
  }

  sim::Machine machine_;
  sim::Program program_;
};

TEST_F(CflatTest, SameInputSamePathDigest) {
  EXPECT_EQ(run_measured(3), run_measured(3));
}

TEST_F(CflatTest, DifferentPathsDifferentDigests) {
  EXPECT_NE(run_measured(1), run_measured(2));
  EXPECT_NE(run_measured(0), run_measured(1));
}

TEST_F(CflatTest, VerifierAcceptsLegalPathsRejectsHijack) {
  const std::vector<std::uint8_t> key(32, 0x5F);
  // Verifier precomputes digests of the legal inputs 0..4.
  std::vector<crypto::Sha256Digest> legal;
  for (sim::Word input = 0; input < 5; ++input) {
    legal.push_back(run_measured(input));
  }
  tee::Nonce nonce{};
  nonce[0] = 0xCF;

  // Honest prover, input 2: accepted.
  const auto honest = tee::attest_path(key, run_measured(2), nonce);
  EXPECT_TRUE(tee::verify_path(key, honest, nonce, legal));

  // "Hijacked" execution: the adversary diverts control flow — modeled by
  // running with an out-of-policy input (a path the verifier never
  // approved). Same code, different path: rejected.
  const auto hijacked = tee::attest_path(key, run_measured(9), nonce);
  EXPECT_FALSE(tee::verify_path(key, hijacked, nonce, legal));

  // Forged report without the platform key: rejected regardless of path.
  const std::vector<std::uint8_t> wrong_key(32, 0x60);
  const auto forged = tee::attest_path(wrong_key, run_measured(2), nonce);
  EXPECT_FALSE(tee::verify_path(key, forged, nonce, legal));
}

TEST_F(CflatTest, TransferCountTracksLoopIterations) {
  tee::CflatMonitor monitor(machine_.cpu(0));
  monitor.begin();
  machine_.cpu(0).set_reg(sim::R1, 4);
  machine_.cpu(0).run_from(program_.address_of("entry"), 1000);
  monitor.end();
  // Each iteration: branch + jump = 2 transfers; final branch = 1.
  EXPECT_EQ(monitor.transfers_recorded(), 4u * 2 + 1);
}

}  // namespace
