// Differential runner: one generated case, two executions, one verdict.
//
// For every trial the same pair of programs runs on (a) the reference
// interpreter over an immutable per-arch DRAM baseline and (b) a full
// sim::Machine — fresh-built or pool-reset — after install_env() compiles
// the shared EnvSpec into it. The verdict diffs all committed architectural
// state: registers, pc, halt/executed counters, the fault log, the leak
// hash, and DRAM. On top of the diff, two directed security invariants run
// against the machine after every trial:
//
//  * deny-is-fault: a normal-context probe load of the enclave-owned
//    secret page must raise a fault, not silently succeed — and in
//    particular must not succeed with a zeroed value ("silent zero" is the
//    classic broken-firewall failure mode);
//  * attestation measurement: SHA-256 over the (decrypted) measured region
//    must match between machine and oracle, and must equal the pre-trial
//    measurement unless the enclave itself wrote the region.
//
// The DRAM diff memcmps machine pages (PhysicalMemory::page) against
// baseline-or-overlay. The baseline is a sparse
// sim::PhysicalMemory::Snapshot (the same image type the pool's pristine
// snapshots use): its ~10 non-zero pages are stored, and every zero page
// is the one shared kZeroPageBytes. Machine DRAM is sparse the same way:
// a page nobody wrote is kZeroPageBytes too, so a page that is that same
// object on both sides needs no compare, and a full sweep of all 512
// pages memcmps only the machine's materialized pages. A pool-reset
// machine still compares only the union of its dirty pages
// (PhysicalMemory::dirty_bitmap) and the oracle's overlay pages: every
// other page is the pristine image on the machine and the baseline on the
// oracle, which are the same bytes. Walked in ascending page order, that
// set yields exactly the full sweep's mismatch list. The full sweep stays
// for fresh machines (which also covers the shrinker and corpus replay),
// for memory whose dirty tracking was never enabled, and for pooled
// trials whose seed is a multiple of 16, which is what catches a missed
// dirty bit leaving stale pool state behind (a store that skips the
// dirty bit still materializes its page, which survives the restore);
// the conformance_full_sweeps counter counts them. The measured region is hashed only when it no
// longer equals the baseline bytes on both sides. Every choice depends
// only on (arch, seed, variant, inject).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "conformance/env.h"
#include "conformance/generator.h"
#include "core/machine_pool.h"
#include "sim/memory.h"

namespace hwsec::conformance {

/// How the machine side is obtained. The fuzzer mixes both so the
/// snapshot/reset path is itself under differential test (a pool-reset
/// machine diverging where a fresh one agrees is a reset bug).
enum class MachineVariant : std::uint8_t { kPooled, kFresh };

/// Immutable per-architecture material shared by every trial of that
/// architecture: the spec, the machine profile, the post-install_env DRAM
/// image (identical for every trial — programs are decoded-form, so DRAM
/// content is a pure function of the arch), and its measurement. The image
/// stores only its non-zero pages.
struct ArchContext {
  EnvSpec spec;
  sim::MachineProfile profile;
  sim::PhysicalMemory::Snapshot baseline;
  sim::PhysAddr secret_frame = 0;
  std::array<std::uint8_t, 32> baseline_measurement{};
};

/// Process-wide cache, built thread-safely on first use. Pure function of
/// `arch`, so sharing across campaign workers cannot couple trials.
const ArchContext& arch_context(FuzzArch arch);

struct TrialVerdict {
  FuzzArch arch{};
  std::uint64_t seed = 0;
  bool diverged = false;           ///< any architectural-state mismatch.
  bool invariant_violated = false; ///< a directed checker fired.
  bool secret_leak = false;        ///< a divergent machine value carries 0xA5EC.
  std::vector<std::string> mismatches;  ///< capped human-readable details.

  bool failed() const { return diverged || invariant_violated; }
  bool operator==(const TrialVerdict&) const = default;
};

/// Runs one explicit case differentially. `pool` may be null (forced for
/// kFresh). `inject` mis-installs machine-side enforcement, for validating
/// that the differential catches what it claims to catch.
TrialVerdict run_case(const ArchContext& arch, const GeneratedCase& test, std::uint64_t seed,
                      core::MachinePool* pool, MachineVariant variant,
                      BugInjection inject = BugInjection::kNone);

/// generate_case + run_case. Depends only on (arch, seed, variant, inject),
/// never on worker scheduling — the campaign determinism contract.
TrialVerdict run_trial(FuzzArch arch, std::uint64_t seed, core::MachinePool* pool,
                       MachineVariant variant, BugInjection inject = BugInjection::kNone);

}  // namespace hwsec::conformance
