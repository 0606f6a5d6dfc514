#include "sim/cpu.h"

#include <algorithm>
#include <cassert>

#include "sim/sim_error.h"

namespace hwsec::sim {

Cpu::Cpu(CpuConfig config, Bus& bus)
    : config_(config),
      bus_(&bus),
      mmu_(bus.memory(), config.tlb),
      predictor_(config.predictor) {}

void Cpu::load_program(const Program& program, std::optional<Asid> asid) {
  dirty_ = true;
  auto decoded = uop_cache_ != nullptr ? uop_cache_->get_or_decode(program)
                                       : decode_program(program);
  const VirtAddr base = decoded->base;
  const VirtAddr end = decoded->end;
  programs_.push_back(LoadedProgram{std::move(decoded), asid, base, end});
  fetch_valid_ = false;
}

void Cpu::clear_programs() {
  dirty_ = true;
  programs_.clear();
  fetch_valid_ = false;
}

void Cpu::rebuild_fetch_table() const {
  fetch_valid_ = true;
  fetch_asid_ = mmu_.asid();
  fetch_flat_ok_ = false;
  fetch_slots_.clear();
  fetch_lo_ = 0;

  VirtAddr lo = ~VirtAddr{0};
  VirtAddr hi = 0;
  bool any = false;
  for (const LoadedProgram& lp : programs_) {
    if (lp.asid.has_value() && *lp.asid != fetch_asid_) {
      continue;  // invisible under this ASID; excluded from the table.
    }
    if (lp.base % 4 != 0) {
      return;  // misaligned base breaks the shared slot grid: scan path.
    }
    any = true;
    lo = std::min(lo, lp.base);
    hi = std::max(hi, lp.end);
  }
  if (!any) {
    fetch_flat_ok_ = true;  // empty table; every lookup misses.
    return;
  }
  const std::uint64_t span = (static_cast<std::uint64_t>(hi) - lo) / 4;
  if (span > kMaxFetchSlots) {
    return;  // programs too far apart to index densely: scan path.
  }
  fetch_lo_ = lo;
  fetch_slots_.assign(static_cast<std::size_t>(span), kNoSlot);
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    const LoadedProgram& lp = programs_[i];
    if (lp.asid.has_value() && *lp.asid != fetch_asid_) {
      continue;
    }
    const std::size_t first = (lp.base - lo) / 4;
    for (std::size_t s = 0; s < lp.decoded->code.size(); ++s) {
      if (fetch_slots_[first + s] == kNoSlot) {
        fetch_slots_[first + s] = static_cast<std::uint32_t>(i);  // load order wins.
      }
    }
  }
  fetch_flat_ok_ = true;
}

const Instruction* Cpu::instruction_at(VirtAddr pc) const {
  const LoadedProgram* lp = program_at(pc);
  return lp != nullptr ? &lp->decoded->code[(pc - lp->base) / 4] : nullptr;
}

void Cpu::switch_context(DomainId domain, Privilege priv, PhysAddr page_root, Asid asid) {
  dirty_ = true;
  mmu_.set_context(page_root, asid, domain, priv);
  predictor_.on_domain_switch();
  // No fetch-table invalidation: the table is a pure function of programs_
  // (load_program / clear_programs invalidate) and the active ASID, and
  // every consumer re-checks fetch_asid_ against mmu_.asid() before use —
  // so a context switch back to the same address space keeps the table.
}

void Cpu::note_service(ServiceLevel level) {
  switch (level) {
    case ServiceLevel::kL1: ++stats_.l1_hits; break;
    case ServiceLevel::kLlc: ++stats_.llc_hits; break;
    case ServiceLevel::kDram:
    case ServiceLevel::kUncached: ++stats_.dram_accesses; break;
  }
}

void Cpu::check_watchdog(std::uint64_t executed) const {
  if (watchdog_->cycle_budget != 0 && cycles_ >= watchdog_->cycle_budget) {
    throw SimError(ErrorKind::kTimedOut,
                   "cycle budget of " + std::to_string(watchdog_->cycle_budget) +
                       " exhausted at pc=" + std::to_string(pc_) + " after " +
                       std::to_string(cycles_) + " cycles");
  }
  // The cancel flag is asynchronous host state; poll it only every 1024
  // committed instructions to keep the commit loop cheap.
  if ((executed & 0x3FF) == 0 && watchdog_->cancel.load(std::memory_order_relaxed)) {
    throw SimError(ErrorKind::kTimedOut,
                   "wall-clock watchdog cancelled the trial at pc=" + std::to_string(pc_) +
                       " after " + std::to_string(cycles_) + " cycles");
  }
}

RunResult Cpu::run(std::uint64_t max_instructions) {
  dirty_ = true;
  RunResult result;
  while (result.executed < max_instructions) {
    // Re-evaluated after every fault handler and ecall: either may arm
    // hooks, swap programs or switch context.
    const bool hooked = has_leak_ || has_cf_hook_ || watchdog_ != nullptr || mpu_ != nullptr;
    const UopExit exit = hooked ? run_uops<true>(result, max_instructions)
                                : run_uops<false>(result, max_instructions);
    if (exit == UopExit::kDone) {
      break;
    }
  }
  return result;
}

RunResult Cpu::run_from(VirtAddr entry, std::uint64_t max_instructions) {
  pc_ = entry;
  return run(max_instructions);
}

bool Cpu::raise(const FaultInfo& info) {
  ++stats_.faults_raised;
  if (!fault_handler_) {
    return true;
  }
  switch (fault_handler_(*this, info)) {
    case FaultAction::kHalt:
      return true;
    case FaultAction::kSkip:
      pc_ = info.pc + 4;
      return false;
    case FaultAction::kRedirect:
      return false;  // handler set pc_ itself.
  }
  return false;
}

std::optional<Word> Cpu::transient_fault_value(const TranslateResult& tr, VirtAddr va,
                                               bool byte_load) {
  std::optional<Word> word;
  if (tr.fault == Fault::kProtection && config_.meltdown_fault_forwarding) {
    // Meltdown: the permission check resolves too late; the physically
    // translated data is forwarded to dependents. A mitigated core
    // forwards zero, which we model as "nothing useful": we still forward,
    // but the zero carries no secret — callers get std::nullopt instead so
    // the transient window squashes immediately (observationally the
    // same: the probe array stays cold).
    word = bus_->peek(tr.phys & ~3u, mmu_.domain());
  } else if (tr.fault == Fault::kPageNotPresent && config_.l1tf_vulnerable &&
             tr.l1tf_phys.has_value()) {
    // Foreshadow / L1 terminal fault: only data already present in this
    // core's L1D is reachable, and it is reachable in plaintext because
    // the L1 sits inside the memory-encryption perimeter.
    if (bus_->caches().in_l1d(config_.id, *tr.l1tf_phys)) {
      word = bus_->peek(*tr.l1tf_phys & ~3u, mmu_.domain());
    }
  }
  if (!word.has_value()) {
    return std::nullopt;
  }
  if (byte_load) {
    return (*word >> (8 * (va & 3u))) & 0xFFu;
  }
  return word;
}

void Cpu::run_transient(VirtAddr start_pc, std::optional<Reg> seed_reg, Word seed_value) {
  if (!config_.speculative_execution) {
    return;
  }
  std::array<Word, kNumRegs> shadow = regs_;
  if (seed_reg.has_value() && *seed_reg != kZero) {
    shadow[*seed_reg] = seed_value;
  }
  auto sreg = [&shadow](Reg r) -> Word { return r == kZero ? 0 : shadow[r]; };
  auto set_sreg = [&shadow](Reg r, Word v) {
    if (r != kZero) {
      shadow[r] = v;
    }
  };

  VirtAddr tpc = start_pc;
  for (std::uint32_t i = 0; i < config_.speculation_window; ++i) {
    const TranslateResult ftr = mmu_.translate(tpc, AccessType::kExecute);
    if (ftr.fault != Fault::kNone) {
      break;
    }
    const BusResult fetch = bus_->cpu_fetch(config_.id, mmu_.domain(), mmu_.privilege(), ftr.phys);
    if (fetch.fault != Fault::kNone) {
      break;
    }
    const Instruction* inst = instruction_at(tpc);
    if (inst == nullptr) {
      break;
    }
    ++stats_.transient_executed;
    VirtAddr next = tpc + 4;
    bool stop = false;
    switch (inst->op) {
      case Opcode::kNop:
        break;
      case Opcode::kLoadImm:
        set_sreg(inst->rd, static_cast<Word>(inst->imm));
        break;
      case Opcode::kAdd: set_sreg(inst->rd, sreg(inst->rs1) + sreg(inst->rs2)); break;
      case Opcode::kSub: set_sreg(inst->rd, sreg(inst->rs1) - sreg(inst->rs2)); break;
      case Opcode::kAnd: set_sreg(inst->rd, sreg(inst->rs1) & sreg(inst->rs2)); break;
      case Opcode::kOr: set_sreg(inst->rd, sreg(inst->rs1) | sreg(inst->rs2)); break;
      case Opcode::kXor: set_sreg(inst->rd, sreg(inst->rs1) ^ sreg(inst->rs2)); break;
      case Opcode::kShl: set_sreg(inst->rd, sreg(inst->rs1) << (sreg(inst->rs2) & 31u)); break;
      case Opcode::kShr: set_sreg(inst->rd, sreg(inst->rs1) >> (sreg(inst->rs2) & 31u)); break;
      case Opcode::kMul: set_sreg(inst->rd, sreg(inst->rs1) * sreg(inst->rs2)); break;
      case Opcode::kAddImm:
        set_sreg(inst->rd, sreg(inst->rs1) + static_cast<Word>(inst->imm));
        break;
      case Opcode::kAndImm:
        set_sreg(inst->rd, sreg(inst->rs1) & static_cast<Word>(inst->imm));
        break;
      case Opcode::kXorImm:
        set_sreg(inst->rd, sreg(inst->rs1) ^ static_cast<Word>(inst->imm));
        break;
      case Opcode::kShlImm:
        set_sreg(inst->rd, sreg(inst->rs1) << (static_cast<Word>(inst->imm) & 31u));
        break;
      case Opcode::kShrImm:
        set_sreg(inst->rd, sreg(inst->rs1) >> (static_cast<Word>(inst->imm) & 31u));
        break;
      case Opcode::kLoad:
      case Opcode::kLoadByte: {
        const bool byte_load = inst->op == Opcode::kLoadByte;
        const VirtAddr va = sreg(inst->rs1) + static_cast<Word>(inst->imm);
        if (!byte_load && (va & 3u)) {
          stop = true;
          break;
        }
        const TranslateResult tr = mmu_.translate(va, AccessType::kRead);
        if (tr.fault != Fault::kNone) {
          // Exception suppression: no architectural fault from a transient
          // load — but fault-forwarding silicon still forwards the data.
          ++stats_.faults_suppressed;
          const auto forwarded = transient_fault_value(tr, va, byte_load);
          if (!forwarded.has_value()) {
            stop = true;
            break;
          }
          set_sreg(inst->rd, *forwarded);
          break;
        }
        // Regular transient load: the cache fill is the persistent side
        // effect every Spectre variant relies on.
        const BusResult br = byte_load
            ? bus_->cpu_read8(config_.id, mmu_.domain(), mmu_.privilege(), tr.phys)
            : bus_->cpu_read(config_.id, mmu_.domain(), mmu_.privilege(), tr.phys);
        if (br.fault != Fault::kNone) {
          stop = true;
          break;
        }
        set_sreg(inst->rd, br.value);
        break;
      }
      case Opcode::kStore:
      case Opcode::kStoreByte:
        // Transient stores stay in the store buffer and are squashed;
        // no memory or cache side effect in this model.
        break;
      case Opcode::kBranch: {
        const Word a = sreg(inst->rs1);
        const Word b = sreg(inst->rs2);
        bool taken = false;
        switch (inst->cond) {
          case BranchCond::kEq: taken = a == b; break;
          case BranchCond::kNe: taken = a != b; break;
          case BranchCond::kLt: taken = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b); break;
          case BranchCond::kGe: taken = static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b); break;
          case BranchCond::kLtu: taken = a < b; break;
          case BranchCond::kGeu: taken = a >= b; break;
        }
        if (taken) {
          next = static_cast<VirtAddr>(inst->imm);
        }
        break;
      }
      case Opcode::kJump: next = static_cast<VirtAddr>(inst->imm); break;
      case Opcode::kJumpInd: next = sreg(inst->rs1); break;
      case Opcode::kCall:
        set_sreg(kLink, tpc + 4);
        next = static_cast<VirtAddr>(inst->imm);
        break;
      case Opcode::kCallInd:
        set_sreg(kLink, tpc + 4);
        next = sreg(inst->rs1);
        break;
      case Opcode::kRet: next = sreg(kLink); break;
      case Opcode::kRdCycle:
        set_sreg(inst->rd, static_cast<Word>(cycles_));
        break;
      case Opcode::kClflush:
        // A transient CLFLUSH never retires; treated as a no-op.
        break;
      case Opcode::kFence:
      case Opcode::kEcall:
      case Opcode::kHalt:
        stop = true;
        break;
    }
    if (stop) {
      break;
    }
    tpc = next;
  }
}

}  // namespace hwsec::sim
