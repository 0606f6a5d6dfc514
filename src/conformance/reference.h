// Reference interpreter: the differential-fuzzing oracle.
//
// Executes architectural state only — registers, memory, privilege and
// domain — with none of the machinery the full simulator carries: no
// pipeline, no caches, no TLB, no branch predictors, no transient windows.
// It re-implements the architecture's *contract* straight from the shared
// EnvSpec: the page walk over in-DRAM tables, PTE permission checks, the
// spec's protection point (walk check / bus firewall / EA-MPU), the MEE
// transform, the ecall services, and the fault-handling policy.
//
// Anything microarchitectural the full Machine does — speculation,
// Meltdown/L1TF fault forwarding, cache fills, predictor updates — must
// have NO architectural effect, so the two executions must agree on every
// committed register write, memory write, fault, and control transfer. A
// disagreement is a simulator bug (or a deliberately injected one).
//
// Memory model: the oracle never touches the machine's DRAM. It reads an
// immutable baseline image (the machine's post-install_env DRAM, identical
// for every trial of an architecture, held as a sparse
// sim::PhysicalMemory::Snapshot whose zero pages all alias one shared zero
// page) through a page-granular copy-on-write overlay; its writes
// materialize overlay pages. A word read costs one overlay lookup. After
// the machine runs, the differ compares DRAM pages against
// baseline-or-overlay.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "conformance/env.h"
#include "sim/isa.h"
#include "sim/memory.h"
#include "sim/program.h"

namespace hwsec::conformance {

/// Copy-on-write view over an immutable DRAM baseline, which must outlive
/// it.
class ShadowMemory {
 public:
  explicit ShadowMemory(const sim::PhysicalMemory::Snapshot& baseline) : baseline_(baseline) {}

  std::uint32_t size() const { return baseline_.size(); }
  bool contains(sim::PhysAddr addr, std::uint32_t len) const {
    return addr < size() && static_cast<std::uint64_t>(addr) + len <= size();
  }

  std::uint8_t read8(sim::PhysAddr addr) const;
  sim::Word read32(sim::PhysAddr addr) const;  ///< little-endian, any alignment.
  void write32(sim::PhysAddr addr, sim::Word value);

  /// Page-aligned view of one page: overlay copy if the oracle wrote to
  /// it, baseline otherwise.
  std::span<const std::uint8_t> page(std::uint32_t page_number) const;
  const std::unordered_map<std::uint32_t, std::vector<std::uint8_t>>& overlay() const {
    return overlay_;
  }

 private:
  std::vector<std::uint8_t>& materialize(std::uint32_t page_number);

  const sim::PhysicalMemory::Snapshot& baseline_;
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> overlay_;
};

/// Final architectural state of a reference run; the differ compares this
/// field-for-field against the machine's.
struct ReferenceResult {
  std::array<sim::Word, sim::kNumRegs> regs{};
  sim::VirtAddr pc = 0;
  bool halted = false;
  std::uint64_t executed = 0;
  std::vector<FaultRecord> faults;
  std::uint64_t leak_hash = 0;
  sim::DomainId final_domain = 0;
  sim::Privilege final_priv = sim::Privilege::kUser;
  /// True when the enclave context wrote inside the measured region (the
  /// attestation checker then expects the measurement to have moved).
  bool enclave_wrote_measured = false;
};

class ReferenceInterpreter {
 public:
  /// `baseline` must be the machine's post-install_env DRAM image and must
  /// outlive the interpreter. `programs` are the same decoded programs
  /// loaded into the machine (including the halt stub).
  ReferenceInterpreter(const EnvSpec& spec, const sim::PhysicalMemory::Snapshot& baseline,
                       std::vector<sim::Program> programs);

  /// Runs from `entry` until halt or `budget` steps; mirrors Cpu::run's
  /// counting exactly (faulting steps count).
  ReferenceResult run(sim::VirtAddr entry, std::uint64_t budget);

  const ShadowMemory& memory() const { return mem_; }

 private:
  struct Translated {
    sim::Fault fault = sim::Fault::kNone;
    sim::PhysAddr phys = 0;
  };

  sim::Word reg(sim::Reg r) const { return r == sim::kZero ? 0 : res_.regs[r]; }
  void set_reg(sim::Reg r, sim::Word v) {
    if (r != sim::kZero) {
      res_.regs[r] = v;
    }
  }
  void leak(sim::Word v) { res_.leak_hash = leak_mix(res_.leak_hash, v); }

  /// MMU model: page walk + PTE checks + (for kWalkCheck) the protection
  /// hook, in the simulator's exact order. Bare profiles: identity.
  Translated translate(sim::VirtAddr va, sim::AccessType type) const;
  /// Bus model: DRAM bounds + (for kBus) the firewall.
  sim::Fault bus_check(sim::PhysAddr addr, sim::AccessType type) const;
  /// EA-MPU model over spec.mpu_regions (bare profiles only).
  sim::Fault mpu_check(sim::PhysAddr addr, sim::AccessType type, sim::PhysAddr pc) const;
  sim::Fault mpu_check_fetch(sim::PhysAddr addr, sim::PhysAddr from_pc) const;

  sim::Word mem_read(sim::PhysAddr word_addr) const;   ///< applies the MEE transform.
  void mem_write(sim::PhysAddr word_addr, sim::Word v);

  const sim::Instruction* instruction_at(sim::VirtAddr pc) const;
  void ecall(sim::Word service, sim::VirtAddr pc);
  /// Fault policy shared with the machine-side handler; sets the next pc.
  void raise(const FaultRecord& record);

  /// One committed step; returns false when the run should stop (halt).
  bool step();

  const EnvSpec& spec_;
  ShadowMemory mem_;
  std::vector<sim::Program> programs_;
  ReferenceResult res_;
  EnvContext ctx_;
  sim::PhysAddr prev_fetch_phys_ = 0;
};

}  // namespace hwsec::conformance
