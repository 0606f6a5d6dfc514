// Differential-fuzzing environments: one declarative spec per surveyed
// architecture, consumed by BOTH sides of the differential.
//
// The conformance layer checks that the full simulator (pipeline, caches,
// TLB, predictors, speculative windows) and a ~300-line architectural
// reference interpreter agree on every committed effect of a random
// program. For that to be a meaningful oracle the *security environment*
// — who owns which memory, where enforcement happens, what an enclave
// entry does — must be stated once, declaratively, and interpreted
// independently by the two sides:
//
//  * install_env() compiles an EnvSpec into real machine state: page
//    tables in simulated DRAM, bus firewalls, MMU walk checks, an MEE
//    transform, MPU regions, ecall/fault handlers;
//  * the reference interpreter (reference.h) enforces the same EnvSpec
//    directly, with none of the machine's mechanisms.
//
// A divergence therefore means the machine's enforcement plumbing — not
// the shared spec — dropped, reordered, or invented a check.
//
// The eight FuzzArch profiles mirror the paper's Section-3 designs by
// *enforcement substrate*, the property the conformance fuzzer actually
// exercises:
//   sgx        server  EPCM-style MMU walk check + MEE memory encryption
//   sanctum    server  walk check (page-walker invariants) + DMA filter
//   trustzone  mobile  TZASC-style bus firewall on the secure world
//   sanctuary  mobile  bus firewall on the exclusive enclave region
//   smart      embedded MPU: attestation key gated on ROM routine PC
//   sancus     embedded MPU: module data gated on module code PC
//   trustlite  embedded MPU: trustlet data gated, config locked
//   tytan      embedded MPU: trustlite + secure-storage region
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/hash.h"
#include "sim/machine.h"
#include "sim/mpu.h"
#include "sim/types.h"

namespace hwsec::conformance {

enum class FuzzArch : std::uint8_t {
  kSgx,
  kSanctum,
  kTrustZone,
  kSanctuary,
  kSmart,
  kSancus,
  kTrustLite,
  kTyTan,
};

inline constexpr FuzzArch kAllFuzzArchs[] = {
    FuzzArch::kSgx,      FuzzArch::kSanctum, FuzzArch::kTrustZone, FuzzArch::kSanctuary,
    FuzzArch::kSmart,    FuzzArch::kSancus,  FuzzArch::kTrustLite, FuzzArch::kTyTan,
};

std::string to_string(FuzzArch a);
/// Inverse of to_string; throws std::invalid_argument on unknown names
/// (corpus files name their profile).
FuzzArch fuzz_arch_from_string(const std::string& name);

/// Deliberate machine-side mis-installation, for validating that the
/// differential actually catches enforcement bugs (the fuzzer's own
/// conformance suite injects these; normal runs use kNone). The *spec*
/// stays intact — only what install_env() wires into the machine changes,
/// exactly as a simulator bug would manifest.
enum class BugInjection : std::uint8_t {
  kNone,
  /// Skip installing the domain check on the protected range: a foreign
  /// domain's load of enclave memory succeeds instead of faulting.
  kSkipDomainCheck,
  /// Install a "deny" that returns success with a zeroed value path (the
  /// firewall is replaced by nothing and the secret page is zeroed on the
  /// machine only): MPU/MMU deny must be a fault, not silent zero.
  kSilentZero,
  /// Enforcement stays intact, but one nonzero word lands in a DRAM page
  /// nothing else touches through a store that skips the dirty bit: a
  /// write path that forgot mark_dirty(). Only the differ's full sweeps
  /// (fresh trials, and the seeded sweep of pooled trials) can see it.
  kDropDirtyBit,
};

/// One execution context (the ecall services switch between these).
struct EnvContext {
  sim::DomainId domain = sim::kDomainNormal;
  sim::Privilege priv = sim::Privilege::kUser;
  sim::Asid asid = 1;
};

/// Where a protected physical range is enforced.
enum class ProtectPoint : std::uint8_t {
  kWalkCheck,  ///< MMU page-walker hook (SGX EPCM, Sanctum invariants).
  kBus,        ///< physical-address firewall (TZASC-style).
  kMpu,        ///< EA-MPU region (embedded designs); enforced per-region.
};

/// A physical range only `owner` may touch. For kMpu the enforcement data
/// lives in EnvSpec::mpu_regions instead (PC-gating has no domain).
struct ProtectedRange {
  sim::PhysAddr start = 0;
  sim::PhysAddr end = 0;  ///< exclusive.
  sim::DomainId owner = 0;

  bool contains(sim::PhysAddr addr) const { return addr >= start && addr < end; }
};

/// Ecall service ids implemented by the conformance "OS model". Both the
/// machine-side handler and the oracle implement exactly these.
inline constexpr sim::Word kSvcEnterEnclave = 1;  ///< r14 := pc; ctx := enclave; pc := entry.
inline constexpr sim::Word kSvcExitEnclave = 2;   ///< ctx := normal; pc := r14.
inline constexpr sim::Word kSvcSupervisor = 3;    ///< ctx := normal domain, S-mode.
inline constexpr sim::Word kSvcUser = 4;          ///< ctx := normal domain, U-mode.
// Any other service id is a no-op (execution continues at pc+4).

/// Fault-handling policy shared by both sides: data faults are logged and
/// skipped; fetch faults (and everything past the per-trial fault budget)
/// redirect to the halt stub so a wild jump cannot burn the whole
/// instruction budget on a fault storm.
inline constexpr std::uint32_t kFaultBudget = 64;

struct EnvSpec {
  FuzzArch arch{};
  bool has_mmu = true;

  EnvContext normal;
  EnvContext enclave;

  // Virtual layout (physical layout for bare-mode embedded profiles).
  sim::VirtAddr code_base = 0;       ///< normal-world generated program.
  sim::VirtAddr halt_stub = 0;       ///< single-kHalt recovery program.
  sim::VirtAddr enclave_code = 0;    ///< enclave/trustlet generated program.
  sim::VirtAddr enclave_entry = 0;   ///< pc installed by kSvcEnterEnclave.
  sim::VirtAddr data_base = 0;       ///< RW data, 2 pages.
  sim::VirtAddr rodata_base = 0;     ///< read-only page.
  sim::VirtAddr supervisor_base = 0; ///< S-only page (Meltdown target); 0 if none.
  sim::VirtAddr not_present_base = 0;///< present-bit-cleared page (L1TF); 0 if none.
  sim::VirtAddr secret_base = 0;     ///< enclave-owned page (VA == PA when bare).

  ProtectPoint protect_point = ProtectPoint::kBus;
  std::vector<ProtectedRange> protected_ranges;  ///< physical; computed by make_env_spec.
  /// Page-table root frame (0 for bare profiles). Known statically because
  /// the machine's frame allocator is a deterministic bump allocator; the
  /// oracle's page walker starts here and install_env cross-checks it.
  sim::PhysAddr page_root = 0;

  /// SGX-style memory-encryption perimeter ([mee_start, mee_end), physical;
  /// empty when mee_end == 0). The transform is the pure function
  /// mee_word() below, applied by the bus on the machine side and by the
  /// oracle directly.
  sim::PhysAddr mee_start = 0;
  sim::PhysAddr mee_end = 0;

  /// EA-MPU regions for embedded profiles, in add order. install_env
  /// programs the machine's Mpu from this list; the oracle re-implements
  /// the region/gate/entry-point semantics over the same list.
  std::vector<sim::MpuRegion> mpu_regions;
  bool lock_mpu = false;  ///< TrustLite/TyTAN: lock after programming.

  /// Secret words resident in the protected page. Magic 0xA5EC prefix;
  /// the generator refuses to materialize immediates with that prefix so
  /// a secret value in non-enclave state is evidence of a leak, not a
  /// collision (see invariant checkers in differ.h).
  std::vector<sim::Word> secret_words;

  /// Measured region for the attestation invariant: the enclave's
  /// resident data. SHA-256 over its post-trial (decrypted) contents must
  /// match the oracle's, and the pre-trial measurement unless the enclave
  /// itself wrote it.
  sim::PhysAddr measured_start = 0;
  sim::PhysAddr measured_end = 0;

  /// Addresses the generator biases load/store address registers toward,
  /// with weights (legal data, read-only, secret, supervisor, unmapped...).
  struct AddressSeed {
    sim::VirtAddr addr = 0;
    std::uint32_t weight = 1;
  };
  std::vector<AddressSeed> address_pool;

  bool in_protected(sim::PhysAddr addr, sim::DomainId domain) const {
    for (const ProtectedRange& r : protected_ranges) {
      if (r.contains(addr) && domain != r.owner) {
        return true;
      }
    }
    return false;
  }
  bool in_mee(sim::PhysAddr addr) const { return addr >= mee_start && addr < mee_end; }
};

/// The (pure) MEE transform: word-aligned XOR keystream derived from the
/// physical address. Involutory, so encrypt == decrypt.
sim::Word mee_word(sim::PhysAddr addr, sim::Word value);

/// Machine profile for a fuzz architecture. Distinct names per arch keep
/// MachinePool entries separate; DRAM is shrunk to 2 MiB (the conformance
/// layout needs ~30 pages) so a worker-wide pool stays small.
sim::MachineProfile fuzz_machine_profile(FuzzArch arch);

/// Builds the EnvSpec for an architecture. Pure: depends only on `arch`.
EnvSpec make_env_spec(FuzzArch arch);

/// Deterministic data-page fill word at `addr`. Tags 0x0D/0x0E/0x0F00'0000
/// keep every pattern word clear of the 0xA5EC secret prefix.
sim::Word pattern_word(sim::PhysAddr addr, sim::Word tag);

/// Writes pattern_word(a, tag) at every word of the `pages` pages from the
/// page-aligned `base`, one write_block per page: the bytes and dirty pages
/// a word-by-word write32 loop would leave, at a fraction of its cost.
void fill_pattern(sim::PhysicalMemory& mem, sim::PhysAddr base, std::uint32_t pages,
                  sim::Word tag);

/// Per-trial log populated by the machine-side fault handler installed by
/// install_env. The oracle produces the same records independently; the
/// differ compares them entry for entry.
struct FaultRecord {
  sim::Fault fault = sim::Fault::kNone;
  sim::VirtAddr pc = 0;
  sim::VirtAddr addr = 0;
  sim::AccessType type = sim::AccessType::kRead;

  bool operator==(const FaultRecord&) const = default;
};

struct MachineRunLog {
  std::vector<FaultRecord> faults;
  std::uint64_t leak_hash = 0;  ///< running hash of every committed value.
};

/// Folds one committed value into the architectural leak-trace hash.
/// Shared by the machine-side LeakHook and the oracle so the two traces
/// are comparable. (FNV-1a over the 4 value bytes, least significant first.)
inline std::uint64_t leak_mix(std::uint64_t h, sim::Word value) {
  const char bytes[4] = {static_cast<char>(value), static_cast<char>(value >> 8),
                         static_cast<char>(value >> 16), static_cast<char>(value >> 24)};
  return sim::fnv1a64({bytes, 4}, h);
}

/// Compiles `spec` into machine state: allocates frames, builds the page
/// tables (MMU profiles) or MPU regions (bare profiles), installs the
/// firewall / walk check / MEE transform per spec.protect_point, writes
/// the data patterns and secret, installs the ecall + fault handlers
/// (which record into `log`), and switches core 0 into the normal
/// context. Must be called on a fresh or pool-reset machine. `inject`
/// deliberately mis-installs one piece of enforcement (see BugInjection).
///
/// Returns the physical frame of the secret page (for checkers).
sim::PhysAddr install_env(sim::Machine& machine, const EnvSpec& spec, MachineRunLog& log,
                          BugInjection inject = BugInjection::kNone);

}  // namespace hwsec::conformance
