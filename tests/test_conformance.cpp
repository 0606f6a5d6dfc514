// Differential conformance fuzzer: the fuzzer's own test suite.
//
// Covers the five claims the subsystem makes:
//  * determinism — same seed, same verdict sequence at any worker count;
//  * soundness  — all eight architecture profiles run divergence-free
//    (a sample here; CI's fuzz-smoke job runs the 10k-program budget);
//  * teeth      — a deliberately mis-installed enforcement mechanism is
//    caught and shrunk to a <= 20-instruction reproducer;
//  * regression — every minimized case in tests/corpus/ replays clean,
//    and the corpus format round-trips exactly;
//  * diff scope — pooled trials compare only dirty and oracle-written
//    pages, yet miss nothing: the precondition holds on every arch, an
//    oracle-only page is still compared, and a dropped dirty bit is caught
//    by the fresh and seeded pooled full sweeps;
//  * baseline   — the sparse per-arch image equals the flat post-install
//    DRAM page for page, and the oracle reads through it word for word.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "conformance/corpus.h"
#include "conformance/differ.h"
#include "conformance/fuzzer.h"
#include "conformance/generator.h"
#include "conformance/reference.h"
#include "conformance/shrink.h"
#include "core/campaign.h"
#include "core/obs/metrics.h"
#include "crypto/sha256.h"
#include "sim/rng.h"

namespace conf = hwsec::conformance;
namespace core = hwsec::core;

namespace {

conf::TrialVerdict fuzz_body(const core::TrialContext& ctx, conf::MachineVariant variant) {
  const conf::FuzzArch arch =
      conf::kAllFuzzArchs[ctx.index % std::size(conf::kAllFuzzArchs)];
  return conf::run_trial(arch, ctx.seed, ctx.machines, variant);
}

std::vector<conf::TrialVerdict> campaign(std::uint64_t seed, std::size_t trials,
                                         unsigned workers, conf::MachineVariant variant) {
  const std::function<conf::TrialVerdict(const core::TrialContext&)> body =
      [variant](const core::TrialContext& ctx) { return fuzz_body(ctx, variant); };
  return core::run_campaign({.seed = seed, .trials = trials, .workers = workers}, body);
}

}  // namespace

TEST(Conformance, AllArchitecturesDivergenceFree) {
  const auto verdicts = campaign(0xC04F04, 64, 0, conf::MachineVariant::kPooled);
  for (const conf::TrialVerdict& v : verdicts) {
    EXPECT_FALSE(v.failed()) << conf::to_string(v.arch) << " seed=" << v.seed
                             << (v.mismatches.empty() ? "" : ": " + v.mismatches.front());
  }
}

TEST(Conformance, DeterministicAcrossWorkerCounts) {
  const auto w1 = campaign(0xDE7E12, 48, 1, conf::MachineVariant::kPooled);
  const auto w2 = campaign(0xDE7E12, 48, 2, conf::MachineVariant::kPooled);
  const auto w8 = campaign(0xDE7E12, 48, 8, conf::MachineVariant::kPooled);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST(Conformance, GeneratorIsDeterministicAndSecretFree) {
  const conf::ArchContext& ctx = conf::arch_context(conf::FuzzArch::kSgx);
  const conf::GeneratedCase a = conf::generate_case(ctx.spec, 7);
  const conf::GeneratedCase b = conf::generate_case(ctx.spec, 7);
  EXPECT_EQ(conf::serialize_corpus(conf::FuzzArch::kSgx, a),
            conf::serialize_corpus(conf::FuzzArch::kSgx, b));
  for (const auto* program : {&a.normal, &a.enclave}) {
    for (const auto& inst : program->code) {
      EXPECT_NE(inst.op, hwsec::sim::Opcode::kRdCycle);
      EXPECT_NE(static_cast<std::uint32_t>(inst.imm) & 0xFFFF0000u, 0xA5EC0000u);
    }
  }
}

TEST(Conformance, InjectedDomainCheckSkipIsCaughtAndShrunk) {
  conf::FuzzConfig config;
  config.seed = 0x1BAD;
  config.trials = 16;
  config.inject = conf::BugInjection::kSkipDomainCheck;
  config.max_shrunk = 2;
  const conf::FuzzReport report = conf::run_fuzz(config);
  ASSERT_GT(report.divergences, 0u) << "injected bug went undetected";
  ASSERT_FALSE(report.failures.empty());
  for (const conf::FuzzFailure& f : report.failures) {
    EXPECT_LE(f.instructions, 20u) << "shrinker left a large reproducer";
    // The minimized case must still fail under the injection...
    const conf::ArchContext& arch = conf::arch_context(f.verdict.arch);
    EXPECT_TRUE(conf::run_case(arch, f.shrunk, 0, nullptr, conf::MachineVariant::kFresh,
                               conf::BugInjection::kSkipDomainCheck)
                    .failed());
    // ...and pass once the "bug" is gone (regression-test shape).
    EXPECT_FALSE(
        conf::run_case(arch, f.shrunk, 0, nullptr, conf::MachineVariant::kFresh).failed());
  }
}

TEST(Conformance, InjectedSilentZeroTripsInvariant) {
  // The silent-zero mis-installation must be flagged even by the directed
  // invariant probe alone (a divergence-free program still catches it).
  const conf::ArchContext& arch = conf::arch_context(conf::FuzzArch::kTrustZone);
  const conf::GeneratedCase test = conf::generate_case(arch.spec, 3);
  const conf::TrialVerdict v = conf::run_case(arch, test, 3, nullptr,
                                              conf::MachineVariant::kFresh,
                                              conf::BugInjection::kSilentZero);
  EXPECT_TRUE(v.failed());
}

TEST(Conformance, InjectedDroppedDirtyBitIsCaughtAndShrunk) {
  conf::FuzzConfig config;
  config.seed = 0xD1D7;
  config.trials = 16;  // trial 0 builds a fresh machine: a full sweep.
  config.inject = conf::BugInjection::kDropDirtyBit;
  config.max_shrunk = 1;
  const conf::FuzzReport report = conf::run_fuzz(config);
  ASSERT_GT(report.divergences, 0u) << "a write behind the dirty bitmap went undetected";
  ASSERT_FALSE(report.failures.empty());
  const conf::FuzzFailure& f = report.failures.front();
  EXPECT_LE(f.instructions, 20u);
  const conf::ArchContext& arch = conf::arch_context(f.verdict.arch);
  EXPECT_TRUE(conf::run_case(arch, f.shrunk, 0, nullptr, conf::MachineVariant::kFresh,
                             conf::BugInjection::kDropDirtyBit)
                  .failed());
  EXPECT_FALSE(
      conf::run_case(arch, f.shrunk, 0, nullptr, conf::MachineVariant::kFresh).failed());
}

TEST(Conformance, SeededPooledSweepCatchesDroppedDirtyBit) {
  // Pooled machines only: the dirty-page diff cannot see the injected word,
  // so only the full sweep of pooled trials whose seed is a multiple of 16
  // catches it, and only those trials fail.
  conf::FuzzConfig config;
  config.seed = 0xD1D7;
  config.trials = 128;
  config.fresh_every = 0;
  config.inject = conf::BugInjection::kDropDirtyBit;
  config.max_shrunk = 1;
  const conf::FuzzReport report = conf::run_fuzz(config);
  EXPECT_GT(report.divergences, 0u) << "stale pool state escaped the seeded sweep";
  EXPECT_LT(report.divergences, report.trials) << "pooled trials must take the dirty path";
  for (const conf::FuzzFailure& f : report.failures) {
    EXPECT_EQ(f.verdict.seed % 16, 0u);
    EXPECT_LE(f.instructions, 20u);
  }
}

TEST(Conformance, PristineMachineEqualsBaselineOutsideInstallFootprint) {
  // The dirty-page diff assumes that every page install_env does not dirty
  // holds the same bytes on a pool's pristine machine as in the oracle's
  // baseline. Any seed must do: the pool builds with the first trial's.
  for (const conf::FuzzArch a : conf::kAllFuzzArchs) {
    const conf::ArchContext& arch = conf::arch_context(a);
    hwsec::sim::Machine machine(arch.profile, 0xB45E + static_cast<std::uint64_t>(a));
    (void)machine.snapshot();
    conf::MachineRunLog log;
    conf::install_env(machine, arch.spec, log);
    const hwsec::sim::PhysicalMemory& mem = std::as_const(machine.memory());
    ASSERT_TRUE(mem.dirty_tracked()) << conf::to_string(a);
    ASSERT_EQ(mem.size(), arch.baseline.size());
    // Root, L2 table, 2 data, rodata, supervisor and secret frames on MMU
    // profiles; 2 data, rodata and secret pages on MPU ones.
    EXPECT_EQ(mem.dirty_page_count(), arch.spec.has_mmu ? 7u : 4u) << conf::to_string(a);
    const std::span<const std::uint64_t> dirty = mem.dirty_bitmap();
    const std::uint32_t pages = mem.size() / hwsec::sim::kPageSize;
    for (std::uint32_t p = 0; p < pages; ++p) {
      if ((dirty[p / 64] >> (p % 64)) & 1) {
        continue;
      }
      EXPECT_EQ(std::memcmp(mem.page(p).data(), arch.baseline.page(p).data(),
                            hwsec::sim::kPageSize),
                0)
          << conf::to_string(a) << " page " << p << " is clean but differs from the baseline";
    }
  }
}

TEST(Conformance, PooledDiffComparesPagesOnlyTheOracleWrote) {
  // Under silent-zero the machine's secret load returns 0 where the
  // oracle's faults and leaves r1 = 1, so only the oracle takes the store
  // to a page outside every MPU region and outside install_env's
  // footprint. The machine never dirties that page: the pooled diff finds
  // the mismatch only through the oracle's overlay, and must report it
  // exactly as the fresh machine's full sweep does.
  namespace sim = hwsec::sim;
  constexpr sim::PhysAddr kUntouched = 0x0008'0000;
  const conf::ArchContext& arch = conf::arch_context(conf::FuzzArch::kTrustLite);
  conf::GeneratedCase test;
  sim::ProgramBuilder normal(arch.spec.code_base);
  normal.li(sim::R1, 1)
      .li(sim::R2, static_cast<std::int64_t>(arch.spec.secret_base))
      .lw(sim::R1, sim::R2)
      .br(sim::BranchCond::kEq, sim::R1, sim::kZero, "skip")
      .li(sim::R3, kUntouched)
      .sw(sim::R3, 0, sim::R1)
      .label("skip")
      .halt();
  test.normal = normal.build();
  test.enclave = sim::ProgramBuilder(arch.spec.enclave_code).halt().build();

  const conf::TrialVerdict fresh = conf::run_case(
      arch, test, 1, nullptr, conf::MachineVariant::kFresh, conf::BugInjection::kSilentZero);
  core::MachinePool pool;
  const conf::TrialVerdict pooled = conf::run_case(
      arch, test, 1, &pool, conf::MachineVariant::kPooled, conf::BugInjection::kSilentZero);
  EXPECT_NE(std::find(fresh.mismatches.begin(), fresh.mismatches.end(),
                      "memory at 0x80000: machine=0x0 oracle=0x1"),
            fresh.mismatches.end());
  EXPECT_EQ(pooled.mismatches, fresh.mismatches);
  EXPECT_EQ(pooled, fresh);
}

TEST(Conformance, DiffPagesCounterShowsWhichPathRan) {
  const auto diff_pages = [] {
    return hwsec::obs::MetricsRegistry::instance().snapshot().counter("conformance_diff_pages");
  };
  core::MachinePool pool;
  const std::uint64_t before = diff_pages();
  conf::run_trial(conf::FuzzArch::kSgx, 1, nullptr, conf::MachineVariant::kFresh);
  const std::uint64_t fresh = diff_pages() - before;
  conf::run_trial(conf::FuzzArch::kSgx, 1, &pool, conf::MachineVariant::kPooled);
  const std::uint64_t pooled = diff_pages() - before - fresh;
  EXPECT_EQ(fresh, 512u) << "a fresh machine sweeps all of DRAM";
  EXPECT_GE(pooled, 7u) << "install_env alone dirties 7 pages";
  EXPECT_LT(pooled, 32u) << "a pooled trial compares only dirty and oracle-written pages";
}

TEST(Conformance, FullSweepCounterCountsFreshAndSeededPooledTrials) {
  // run_fuzz builds trial i fresh when i % fresh_every == 0 and hands it
  // the campaign seed derive_seed(seed, i); the full sweep runs on every
  // fresh trial and on every pooled trial whose seed is a multiple of 16.
  const auto full_sweeps = [] {
    return hwsec::obs::MetricsRegistry::instance().snapshot().counter("conformance_full_sweeps");
  };
  conf::FuzzConfig config;
  config.seed = 0x5EE9;
  config.trials = 160;
  config.workers = 2;
  std::uint64_t fresh = 0;
  std::uint64_t seeded = 0;
  for (std::size_t i = 0; i < config.trials; ++i) {
    if (i % config.fresh_every == 0) {
      ++fresh;
    } else if (hwsec::sim::derive_seed(config.seed, i) % 16 == 0) {
      ++seeded;
    }
  }
  ASSERT_GT(seeded, 0u) << "the seed set must include a seeded pooled sweep";
  const std::uint64_t before = full_sweeps();
  const conf::FuzzReport report = conf::run_fuzz(config);
  EXPECT_EQ(report.divergences, 0u);
  EXPECT_EQ(full_sweeps() - before, fresh + seeded);
}

TEST(Conformance, SparseBaselineEqualsFlatPostInstallImage) {
  // The baseline as it was built before it went sparse: a flat copy of a
  // seed-1 machine's DRAM after install_env, measured word by word.
  namespace sim = hwsec::sim;
  for (const conf::FuzzArch a : conf::kAllFuzzArchs) {
    const conf::ArchContext& arch = conf::arch_context(a);
    sim::Machine machine(arch.profile, /*seed=*/1);
    conf::MachineRunLog log;
    EXPECT_EQ(conf::install_env(machine, arch.spec, log), arch.secret_frame);
    std::vector<std::uint8_t> flat(machine.memory().size());
    machine.memory().read_block(0, flat);
    ASSERT_EQ(arch.baseline.size(), flat.size()) << conf::to_string(a);
    std::uint32_t stored = 0;
    for (std::uint32_t p = 0; p < flat.size() / sim::kPageSize; ++p) {
      const std::uint8_t* want = flat.data() + static_cast<std::size_t>(p) * sim::kPageSize;
      const bool zero =
          std::all_of(want, want + sim::kPageSize, [](std::uint8_t b) { return b == 0; });
      EXPECT_EQ(arch.baseline.zero(p), zero) << conf::to_string(a) << " page " << p;
      EXPECT_EQ(std::memcmp(arch.baseline.page(p).data(), want, sim::kPageSize), 0)
          << conf::to_string(a) << " page " << p;
      stored += zero ? 0 : 1;
    }
    EXPECT_EQ(arch.baseline.pages.size(), static_cast<std::size_t>(stored) * sim::kPageSize);

    std::vector<std::uint8_t> measured;
    for (sim::PhysAddr at = arch.spec.measured_start; at < arch.spec.measured_end; at += 4) {
      sim::Word w = static_cast<sim::Word>(flat[at]) | static_cast<sim::Word>(flat[at + 1]) << 8 |
                    static_cast<sim::Word>(flat[at + 2]) << 16 |
                    static_cast<sim::Word>(flat[at + 3]) << 24;
      if (arch.spec.in_mee(at)) {
        w = conf::mee_word(at, w);
      }
      for (int i = 0; i < 4; ++i) {
        measured.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
      }
    }
    EXPECT_EQ(arch.baseline_measurement, hwsec::crypto::Sha256::hash(measured))
        << conf::to_string(a);
  }
}

TEST(Conformance, ShadowWordReadEqualsFourByteReads) {
  namespace sim = hwsec::sim;
  const conf::ArchContext& arch = conf::arch_context(conf::FuzzArch::kSgx);
  conf::ShadowMemory shadow(arch.baseline);
  const std::uint32_t overlay_page = arch.secret_frame >> sim::kPageShift;
  for (sim::PhysAddr off = 0; off < sim::kPageSize; off += 68) {
    shadow.write32(arch.secret_frame + off, 0x0102'0304u * (off + 1));
  }
  ASSERT_EQ(shadow.overlay().count(overlay_page), 1u);
  std::uint32_t baseline_page = 0;
  while (arch.baseline.zero(baseline_page) || baseline_page == overlay_page) {
    ++baseline_page;
  }
  std::uint32_t zero_page = 0;
  while (!arch.baseline.zero(zero_page)) {
    ++zero_page;
  }
  for (const std::uint32_t p : {overlay_page, baseline_page, zero_page}) {
    for (sim::PhysAddr a = p * sim::kPageSize; a < (p + 1) * sim::kPageSize; a += 4) {
      const sim::Word bytes = static_cast<sim::Word>(shadow.read8(a)) |
                              static_cast<sim::Word>(shadow.read8(a + 1)) << 8 |
                              static_cast<sim::Word>(shadow.read8(a + 2)) << 16 |
                              static_cast<sim::Word>(shadow.read8(a + 3)) << 24;
      ASSERT_EQ(shadow.read32(a), bytes) << "page " << p << " addr " << a;
    }
  }
  EXPECT_EQ(shadow.read32(arch.secret_frame + 68), 0x0102'0304u * 69);
  EXPECT_EQ(shadow.page(baseline_page).data(), arch.baseline.page(baseline_page).data())
      << "an unwritten page reads through to the baseline";
}

TEST(Conformance, BlockFillMatchesWordByWordFill) {
  namespace sim = hwsec::sim;
  constexpr sim::PhysAddr kBase = 3 * sim::kPageSize;
  constexpr sim::Word kTag = 0x0D00'0000u;
  sim::PhysicalMemory block(8 * sim::kPageSize);
  sim::PhysicalMemory words(8 * sim::kPageSize);
  (void)block.snapshot();
  (void)words.snapshot();
  conf::fill_pattern(block, kBase, 2, kTag);
  for (sim::PhysAddr a = kBase; a < kBase + 2 * sim::kPageSize; a += 4) {
    words.write32(a, conf::pattern_word(a, kTag));
  }
  std::vector<std::uint8_t> got(block.size());
  std::vector<std::uint8_t> want(words.size());
  block.read_block(0, got);
  words.read_block(0, want);
  EXPECT_EQ(got, want);
  EXPECT_EQ(block.read32(kBase + 8), kTag | (kBase + 8));
  const auto got_dirty = block.dirty_bitmap();
  const auto want_dirty = words.dirty_bitmap();
  EXPECT_TRUE(std::equal(got_dirty.begin(), got_dirty.end(), want_dirty.begin(), want_dirty.end()));
  EXPECT_EQ(block.dirty_page_count(), 2u);
}

TEST(Conformance, CorpusFormatRoundTrips) {
  const conf::ArchContext& ctx = conf::arch_context(conf::FuzzArch::kTyTan);
  const conf::GeneratedCase test = conf::generate_case(ctx.spec, 99);
  const std::string text = conf::serialize_corpus(conf::FuzzArch::kTyTan, test);
  const conf::CorpusCase parsed = conf::parse_corpus(text);
  EXPECT_EQ(parsed.arch, conf::FuzzArch::kTyTan);
  EXPECT_EQ(conf::serialize_corpus(parsed.arch, parsed.test), text);
}

TEST(Conformance, CorpusRejectsRdcycle) {
  const std::string text =
      "arch sgx\nprogram normal 0x400000\nrdcycle r1 r0 r0 eq 0\nhalt r0 r0 r0 eq 0\n";
  EXPECT_THROW(conf::parse_corpus(text), std::invalid_argument);
}

TEST(Conformance, PersistedCorpusReplaysClean) {
  // Every minimized regression case shipped in tests/corpus/ must replay
  // divergence-free against the current simulator.
  const std::vector<std::string> files = conf::list_corpus_files(HWSEC_CORPUS_DIR);
  EXPECT_FALSE(files.empty()) << "no corpus files found under " << HWSEC_CORPUS_DIR;
  for (const std::string& path : files) {
    const conf::TrialVerdict v = conf::replay_corpus_file(path);
    EXPECT_FALSE(v.failed()) << path << (v.mismatches.empty() ? "" : ": " + v.mismatches.front());
  }
}

TEST(Conformance, ShrinkerPreservesFailureAndShrinks) {
  const conf::ArchContext& arch = conf::arch_context(conf::FuzzArch::kSanctum);
  const conf::GeneratedCase test = conf::generate_case(arch.spec, 5);
  const std::size_t original = conf::case_instruction_count(test);
  const conf::ShrinkResult shrunk =
      conf::shrink_case(arch, test, conf::BugInjection::kSkipDomainCheck);
  EXPECT_LE(shrunk.instructions, original);
  EXPECT_TRUE(conf::run_case(arch, shrunk.test, 0, nullptr, conf::MachineVariant::kFresh,
                             conf::BugInjection::kSkipDomainCheck)
                  .failed());
}
