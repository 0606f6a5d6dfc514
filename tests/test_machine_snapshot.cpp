// Machine snapshot / reset: the reset-reuse equivalence contract behind
// the campaign machine pool (core/machine_pool.h).
//
// Contract under test: for any profile and seed,
//
//     Machine m(profile, s0); auto snap = m.snapshot();
//     ... arbitrary trial ...
//     m.reset_to(snap); m.reseed(s);
//
// leaves `m` bit-identical to a freshly constructed Machine(profile, s).
// Each of the paper's eight architectures runs the same workload —
// enclave lifecycle through the generic tee::Architecture interface plus
// raw machine activity (frame allocation, memory writes, cache traffic,
// RNG draws) — on a fresh machine and on a reset-reused one, and the
// resulting state fingerprints must match exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/sanctuary.h"
#include "conformance/differ.h"
#include "core/campaign.h"
#include "arch/sanctum.h"
#include "arch/sancus.h"
#include "arch/sgx.h"
#include "arch/smart.h"
#include "arch/trustlite.h"
#include "arch/trustzone.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/sim_error.h"

namespace sim = hwsec::sim;
namespace tee = hwsec::tee;
namespace arch = hwsec::arch;

namespace {

using Fingerprint = std::vector<std::uint64_t>;

void fold_digest(Fingerprint& fp, const hwsec::crypto::Sha256Digest& digest) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the digest bytes.
  for (const std::uint8_t b : digest) {
    h = (h ^ b) * 1099511628211ull;
  }
  fp.push_back(h);
}

/// Runs one representative trial against `m` and fingerprints everything
/// it produced: enclave-interface results, attestation MACs, cache and
/// CPU counters, memory contents, the frame allocator cursor, and the
/// machine RNG stream position. Any state the reset layer failed to
/// restore shows up as a diverging fingerprint on the next run.
template <typename Arch>
Fingerprint run_workload(sim::Machine& m) {
  Arch architecture(m);
  Fingerprint fp;

  // Enclave lifecycle through the generic interface. Capacity-0 designs
  // (SMART) return a deterministic error, which fingerprints equally well.
  tee::EnclaveImage image;
  image.name = "probe";
  image.code = {0xAA, 0xBB, 0xCC, 0xDD};
  image.secret = {'s', '3', 'c'};
  const auto created = architecture.create_enclave(image);
  fp.push_back(static_cast<std::uint64_t>(created.error));
  fp.push_back(created.value);
  if (created.ok()) {
    std::uint64_t observed = 0;
    const auto call_error =
        architecture.call_enclave(created.value, 0, [&observed](tee::EnclaveContext& ctx) {
          ctx.write8(0, 0x5A);
          observed = static_cast<std::uint64_t>(ctx.read8(0)) << 8 | ctx.read8(1);
        });
    fp.push_back(static_cast<std::uint64_t>(call_error));
    fp.push_back(observed);
  }
  tee::Nonce nonce{};
  nonce[0] = 7;
  const auto report = architecture.probe_attestation(nonce);
  fp.push_back(static_cast<std::uint64_t>(report.error));
  if (report.ok()) {
    fold_digest(fp, report.value.measurement);
    fold_digest(fp, report.value.mac);
  }

  // Raw machine activity: allocator, DRAM, cache hierarchy, CPU state.
  const sim::PhysAddr frame = m.alloc_frame();
  fp.push_back(frame);
  m.memory().write32(frame, 0x0DDC0DE5u);
  for (std::uint32_t i = 0; i < 32; ++i) {
    const sim::PhysAddr addr = (frame + i * 4096u + i * 64u) % (1u << 20);
    m.caches().access(0, sim::kDomainNormal, addr, sim::AccessType::kRead);
  }
  fp.push_back(m.memory().read32(frame));
  if (m.profile().hierarchy.has_l1) {
    fp.push_back(m.caches().l1d(0).stats().hits);
    fp.push_back(m.caches().l1d(0).stats().misses);
  }
  if (m.profile().hierarchy.has_llc) {
    fp.push_back(m.caches().llc().stats().hits);
    fp.push_back(m.caches().llc().stats().misses);
    fp.push_back(m.caches().llc().stats().evictions);
  }
  fp.push_back(m.cpu(0).cycles());
  fp.push_back(m.cpu(0).stats().retired);
  fp.push_back(m.rng().next_u64());  // last: captures the RNG stream position.
  return fp;
}

/// The actual equivalence check. Two fresh machines establish that the
/// workload is deterministic at all; the third machine then runs it via
/// snapshot → run → reset_to + reseed → run (twice, to catch journal
/// re-arming bugs) and every run must reproduce the fresh fingerprint.
template <typename Arch>
void expect_reset_matches_fresh(const sim::MachineProfile& profile, std::uint64_t seed) {
  sim::Machine fresh_a(profile, seed);
  const Fingerprint expected = run_workload<Arch>(fresh_a);
  sim::Machine fresh_b(profile, seed);
  ASSERT_EQ(run_workload<Arch>(fresh_b), expected) << "workload itself is nondeterministic";

  sim::Machine pooled(profile, seed);
  const sim::MachineSnapshot snap = pooled.snapshot();
  EXPECT_EQ(run_workload<Arch>(pooled), expected) << "first (pre-reset) run diverged";
  for (int reuse = 0; reuse < 2; ++reuse) {
    pooled.reset_to(snap);
    pooled.reseed(seed);
    EXPECT_EQ(run_workload<Arch>(pooled), expected) << "reuse #" << reuse << " diverged";
  }
}

// ---- the eight surveyed architectures, on their native profiles --------

TEST(MachineSnapshot, SgxResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::Sgx>(sim::MachineProfile::server(), 21);
}

TEST(MachineSnapshot, SanctumResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::Sanctum>(sim::MachineProfile::server(), 31);
}

TEST(MachineSnapshot, TrustZoneResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::TrustZone>(sim::MachineProfile::mobile(), 41);
}

TEST(MachineSnapshot, SanctuaryResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::Sanctuary>(sim::MachineProfile::mobile(), 42);
}

TEST(MachineSnapshot, SmartResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::Smart>(sim::MachineProfile::embedded(), 51);
}

TEST(MachineSnapshot, SancusResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::Sancus>(sim::MachineProfile::embedded(), 52);
}

TEST(MachineSnapshot, TrustLiteResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::TrustLite>(sim::MachineProfile::embedded(), 53);
}

TEST(MachineSnapshot, TyTanResetBitIdenticalToFresh) {
  expect_reset_matches_fresh<arch::TyTan>(sim::MachineProfile::embedded(), 54);
}

// ---- snapshot-layer edge cases -----------------------------------------

TEST(MachineSnapshot, ForeignSnapshotRejected) {
  sim::Machine a(sim::MachineProfile::embedded(), 1);
  sim::Machine b(sim::MachineProfile::embedded(), 1);
  const sim::MachineSnapshot snap = a.snapshot();
  EXPECT_THROW(b.reset_to(snap), hwsec::SimError)
      << "component copies carry internal pointers; restoring onto another "
         "machine must be refused, not silently corrupt it";
}

TEST(MachineSnapshot, DirtyPageTrackingCoversTrialWrites) {
  sim::Machine m(sim::MachineProfile::mobile(), 3);
  const sim::MachineSnapshot snap = m.snapshot();
  EXPECT_EQ(m.memory().dirty_page_count(), 0u);
  const sim::PhysAddr frame = m.alloc_frame();  // zero-fill dirties the frame.
  m.memory().write32(frame, 0xDEADBEEF);
  m.memory().write8(frame + sim::kPageSize - 1, 0xEE);
  EXPECT_GE(m.memory().dirty_page_count(), 1u);
  m.reset_to(snap);
  EXPECT_EQ(m.memory().read32(frame), 0u) << "restore missed a dirty page";
  EXPECT_EQ(m.memory().dirty_page_count(), 0u) << "restore must re-arm tracking";
}

TEST(MachineSnapshot, UntrackedMemoryRestoresEveryPage) {
  sim::Machine a(sim::MachineProfile::embedded(), 4);
  sim::Machine b(sim::MachineProfile::embedded(), 4);
  const sim::MachineSnapshot snap = a.snapshot();
  // b's DRAM never took a snapshot, so no dirty bitmap says what changed:
  // restoring a's image onto it must take the full-restore path.
  b.memory().write8(100, 0x77);
  b.memory().write32(5 * sim::kPageSize, 0x1234);
  ASSERT_FALSE(b.memory().dirty_tracked());
  b.memory().restore(snap.memory);
  EXPECT_EQ(b.memory().read8(100), 0u);
  EXPECT_EQ(b.memory().read32(5 * sim::kPageSize), 0u);
  EXPECT_EQ(b.memory().materialized_page_count(), 0u);
  EXPECT_TRUE(b.memory().dirty_tracked());
}

// ---- cache hierarchy vs the pool's empty pristine snapshot -------------
//
// A pooled machine's pristine snapshot holds empty caches, so its restore
// journals nothing: each cache puts back the way masks of the sets the
// trial occupied. After trials that use every whole-cache operation the
// reset machine must still replay a seeded access stream — hit levels,
// latencies, per-cache counters — exactly like a freshly built one.

std::vector<std::uint64_t> cache_stream(sim::Machine& m, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> out;
  const sim::HierarchyConfig& h = m.profile().hierarchy;
  const std::uint32_t span = h.has_llc ? h.llc.size_bytes / h.llc.ways : 64 * 1024;
  for (int i = 0; i < 1500; ++i) {
    const auto core = static_cast<sim::CoreId>(rng.below(m.num_cores()));
    const auto domain = static_cast<sim::DomainId>(rng.below(3));
    const sim::PhysAddr addr = 0x0010'0000 + static_cast<sim::PhysAddr>(rng.below(200)) * 64 +
                               static_cast<sim::PhysAddr>(rng.below(40)) * span;
    const auto o = rng.below(6) == 0 ? m.caches().fetch(core, domain, addr)
                                     : m.touch(core, domain, addr);
    out.push_back(static_cast<std::uint64_t>(o.level) << 32 | o.latency);
  }
  const auto add = [&](const sim::Cache& c) {
    for (sim::DomainId d = 0; d < 3; ++d) {
      const sim::CacheStats& s = c.domain_stats(d);
      out.insert(out.end(), {s.hits, s.misses, s.evictions});
    }
    out.insert(out.end(), {c.stats().hits, c.stats().misses, c.stats().evictions,
                           c.stats().flushes});
  };
  for (sim::CoreId c = 0; h.has_l1 && c < m.num_cores(); ++c) {
    add(m.caches().l1d(c));
    add(m.caches().l1i(c));
  }
  if (h.has_llc) {
    add(m.caches().llc());
  }
  out.push_back(m.rng().next_u64());
  return out;
}

void cache_trial(sim::Machine& m, int round) {
  cache_stream(m, 500 + static_cast<std::uint64_t>(round));
  switch (round % 5) {
    case 0:
      m.caches().flush_domain(1);
      m.flush_lines(0x0010'0000, 64, 150);
      break;
    case 1:
      m.caches().llc().set_way_partition(2, 0, 3);
      cache_stream(m, 600);
      break;
    case 2:
      m.caches().llc().rekey(0x1234 + static_cast<std::uint64_t>(round));
      cache_stream(m, 700);
      break;
    case 3:
      m.caches().add_uncacheable(0x0010'0000, 64 * 64, sim::CacheHierarchy::Exclusion::kSharedOnly);
      cache_stream(m, 800);
      break;
    default:
      m.caches().flush_core_private(1);
      m.caches().flush_all();
      cache_stream(m, 900);
      break;
  }
}

TEST(MachineSnapshot, CachesResetToEmptyPristineMatchFresh) {
  sim::MachineProfile plru = sim::MachineProfile::mobile();
  plru.hierarchy.l1d.policy = sim::ReplacementPolicy::kTreePlru;
  plru.hierarchy.l1i.policy = sim::ReplacementPolicy::kTreePlru;
  plru.hierarchy.llc.policy = sim::ReplacementPolicy::kTreePlru;
  sim::MachineProfile random = sim::MachineProfile::server();
  random.hierarchy.llc.policy = sim::ReplacementPolicy::kRandom;
  for (const sim::MachineProfile& profile : {sim::MachineProfile::mobile(), plru, random}) {
    SCOPED_TRACE(to_string(profile.hierarchy.llc.policy));
    sim::Machine pooled(profile, 1);
    const sim::MachineSnapshot pristine = pooled.snapshot();
    for (int round = 0; round < 10; ++round) {
      cache_trial(pooled, round);
      pooled.reset_to(pristine);
      pooled.reseed(40 + static_cast<std::uint64_t>(round));
      sim::Machine fresh(profile, 40 + static_cast<std::uint64_t>(round));
      ASSERT_EQ(cache_stream(pooled, 9), cache_stream(fresh, 9)) << "after round " << round;
    }
  }
}

// A server trial that sweeps 1.5x its 4 MiB LLC over the follow-up
// stream's own addresses leaves a stale line of that stream in nearly every
// LLC way. The pristine snapshot copied no line bytes (its caches were
// empty) and the reset copies none back, so only the restored masks stand
// between those lines and the stream.
TEST(MachineSnapshot, ServerResetAfterLlcWideTrialMatchesFresh) {
  const sim::MachineProfile profile = sim::MachineProfile::server();
  const sim::CacheConfig& llc = profile.hierarchy.llc;
  constexpr sim::PhysAddr kBase = 0x0010'0000;  // cache_stream's base.
  sim::Machine pooled(profile, 1);
  const sim::MachineSnapshot pristine = pooled.snapshot();
  for (int round = 0; round < 2; ++round) {
    const sim::PhysAddr sweep = llc.size_bytes / 2 * 3;
    for (sim::PhysAddr off = 0; off < sweep; off += llc.line_size) {
      const auto line = off / llc.line_size;
      pooled.touch(static_cast<sim::CoreId>(line % pooled.num_cores()),
                   static_cast<sim::DomainId>(line % 3), kBase + off);
    }
    std::uint32_t occupied = 0;  // sets holding a line of the sweep's tail.
    for (std::uint32_t set = 0; set < llc.num_sets(); ++set) {
      occupied += pooled.caches().llc().probe(kBase + sweep - llc.size_bytes / llc.ways +
                                              set * llc.line_size)
                      ? 1
                      : 0;
    }
    ASSERT_GT(occupied, llc.num_sets() * 9 / 10) << "the trial must fill most LLC sets";
    pooled.reset_to(pristine);
    pooled.reseed(60 + static_cast<std::uint64_t>(round));
    ASSERT_TRUE(pooled.caches().llc().empty());
    sim::Machine fresh(profile, 60 + static_cast<std::uint64_t>(round));
    ASSERT_EQ(cache_stream(pooled, 9), cache_stream(fresh, 9)) << "after round " << round;
  }
}

// ---- decoded-program cache vs snapshot/reset ---------------------------

/// The pooled UopCache hands out shared_ptr<const DecodedProgram>; machine
/// resets copy the CPU's program table (shared_ptrs included) back from the
/// pristine snapshot. Two hazards are pinned here: (1) the decoded cache
/// must survive reset_to — trials after a reset re-serve the same decoded
/// object instead of re-decoding; (2) clear_programs + loading a different
/// program at the same base must execute the *new* code (no stale decoded
/// pointer can outlive the table it was registered in).
TEST(MachineSnapshot, UopCacheSurvivesResetWithoutStaleReuse) {
  constexpr sim::VirtAddr kCode = 0x10000;
  constexpr sim::Word kCodeFlags = sim::pte::kUser | sim::pte::kExecutable;

  auto cache = std::make_shared<sim::UopCache>();
  sim::Machine m(sim::MachineProfile::server(), 21);
  m.set_uop_cache(cache);
  auto aspace = m.create_address_space();
  aspace.map(kCode, kCode, kCodeFlags);

  sim::ProgramBuilder b1(kCode);
  b1.li(sim::R1, 0xAAAA).addi(sim::R1, sim::R1, 1).halt();
  const sim::Program prog1 = b1.build();

  const sim::MachineSnapshot snap = m.snapshot();
  m.cpu(0).load_program(prog1);
  m.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(), 1);
  m.cpu(0).run_from(kCode);
  EXPECT_EQ(m.cpu(0).reg(sim::R1), 0xAAABu);
  EXPECT_EQ(cache->size(), 1u);

  // Reset and rerun: the decoded form is served from the shared cache (no
  // growth), and execution is unchanged.
  m.reset_to(snap);
  m.cpu(0).load_program(prog1);
  m.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(), 1);
  m.cpu(0).run_from(kCode);
  EXPECT_EQ(m.cpu(0).reg(sim::R1), 0xAAABu);
  EXPECT_EQ(cache->size(), 1u) << "reset must not force a re-decode of a cached program";

  // Same base, different content, after clear_programs: must execute the
  // new instructions (distinct cache entry, no stale decoded reuse).
  m.cpu(0).clear_programs();
  sim::ProgramBuilder b2(kCode);
  b2.li(sim::R1, 0x5555).addi(sim::R1, sim::R1, 2).halt();
  m.cpu(0).load_program(b2.build());
  m.cpu(0).run_from(kCode);
  EXPECT_EQ(m.cpu(0).reg(sim::R1), 0x5557u) << "stale decoded program executed after clear";
  EXPECT_EQ(cache->size(), 2u);

  // Reset again: the snapshot predates every load_program, so the restored
  // CPU has no programs; running from the (unmapped-in-table) entry must
  // not touch any stale decoded storage.
  m.reset_to(snap);
  m.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(), 1);
  const auto result = m.cpu(0).run_from(kCode);
  EXPECT_FALSE(result.halted) << "no program is loaded; the fetch must fault, not execute";
}

// ---- conformance-fuzzer differential: pooled reset vs fresh build ------
//
// The differential fuzzer executes generated programs, traps faults, and
// walks page tables — a far harsher reset-equivalence workload than the
// enclave lifecycle above. Running the same campaign on pool-leased
// machines and on freshly constructed ones must yield bit-identical
// verdict sequences at any worker count.

namespace conf = hwsec::conformance;
namespace core = hwsec::core;

std::vector<conf::TrialVerdict> fuzz_campaign(unsigned workers, conf::MachineVariant variant,
                                              conf::BugInjection inject = conf::BugInjection::kNone,
                                              std::size_t trials = 40) {
  const std::function<conf::TrialVerdict(const core::TrialContext&)> body =
      [variant, inject](const core::TrialContext& ctx) {
        const conf::FuzzArch arch =
            conf::kAllFuzzArchs[ctx.index % std::size(conf::kAllFuzzArchs)];
        return conf::run_trial(arch, ctx.seed, ctx.machines, variant, inject);
      };
  return core::run_campaign({.seed = 0x5EED, .trials = trials, .workers = workers}, body);
}

TEST(MachineSnapshot, FuzzerPooledMatchesFreshAtAnyWorkerCount) {
  const std::vector<conf::TrialVerdict> fresh = fuzz_campaign(1, conf::MachineVariant::kFresh);
  for (const unsigned workers : {1u, 2u, 8u}) {
    EXPECT_EQ(fuzz_campaign(workers, conf::MachineVariant::kPooled), fresh)
        << "pooled campaign at workers=" << workers << " diverged from fresh machines";
    EXPECT_EQ(fuzz_campaign(workers, conf::MachineVariant::kFresh), fresh)
        << "fresh campaign at workers=" << workers << " is worker-count dependent";
  }
}

// Pooled trials diff only dirty-or-oracle-written pages; fresh trials sweep
// all of DRAM. Under injected enforcement bugs every trial diverges, so the
// verdicts carry real memory mismatches, and the two paths must still
// report them identically: same lines, same order, same secret_leak.
TEST(MachineSnapshot, FuzzerPooledMatchesFreshUnderInjectedBugs) {
  for (const conf::BugInjection inject :
       {conf::BugInjection::kSkipDomainCheck, conf::BugInjection::kSilentZero}) {
    const auto fresh = fuzz_campaign(2, conf::MachineVariant::kFresh, inject, 256);
    const auto pooled = fuzz_campaign(2, conf::MachineVariant::kPooled, inject, 256);
    std::size_t failed = 0;
    std::size_t memory_lines = 0;
    std::size_t measurement_lines = 0;
    for (const conf::TrialVerdict& v : fresh) {
      failed += v.failed() ? 1 : 0;
      for (const std::string& m : v.mismatches) {
        memory_lines += m.starts_with("memory at ") ? 1 : 0;
        measurement_lines += m.starts_with("attestation measurement ") ? 1 : 0;
      }
    }
    EXPECT_GT(failed, 0u) << "the injection must be caught";
    EXPECT_GT(memory_lines, 0u) << "the memory diff must have something to report";
    if (inject == conf::BugInjection::kSilentZero) {
      // The zeroed secret lies in the measured region on every arch.
      EXPECT_GT(measurement_lines, 0u) << "a changed measured region must be hashed";
    }
    ASSERT_EQ(pooled.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(pooled[i], fresh[i])
          << "trial " << i << " (" << conf::to_string(fresh[i].arch)
          << "): the dirty-page diff disagrees with the full sweep";
    }
  }
}

}  // namespace
