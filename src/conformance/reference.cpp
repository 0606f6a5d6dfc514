#include "conformance/reference.h"

#include <algorithm>
#include <stdexcept>

#include "sim/page_table.h"

namespace hwsec::conformance {

namespace sim = hwsec::sim;

// ---------------------------------------------------------------- memory --

std::vector<std::uint8_t>& ShadowMemory::materialize(std::uint32_t page_number) {
  auto it = overlay_.find(page_number);
  if (it == overlay_.end()) {
    const auto base = baseline_.page(page_number);
    it = overlay_.emplace(page_number, std::vector<std::uint8_t>(base.begin(), base.end())).first;
  }
  return it->second;
}

std::uint8_t ShadowMemory::read8(sim::PhysAddr addr) const {
  return page(addr >> sim::kPageShift)[addr & sim::kPageOffsetMask];
}

sim::Word ShadowMemory::read32(sim::PhysAddr addr) const {
  // Word reads in the oracle are always 4-byte aligned (the CPU raises
  // kAlignment first and the page walker reads aligned PTEs), so a word
  // never straddles a page: one page lookup serves all four bytes.
  const std::uint8_t* p = page(addr >> sim::kPageShift).data() + (addr & sim::kPageOffsetMask);
  return static_cast<sim::Word>(p[0]) | (static_cast<sim::Word>(p[1]) << 8) |
         (static_cast<sim::Word>(p[2]) << 16) | (static_cast<sim::Word>(p[3]) << 24);
}

void ShadowMemory::write32(sim::PhysAddr addr, sim::Word value) {
  std::vector<std::uint8_t>& page = materialize(addr >> sim::kPageShift);
  const std::uint32_t off = addr & sim::kPageOffsetMask;
  page[off] = static_cast<std::uint8_t>(value);
  page[off + 1] = static_cast<std::uint8_t>(value >> 8);
  page[off + 2] = static_cast<std::uint8_t>(value >> 16);
  page[off + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::span<const std::uint8_t> ShadowMemory::page(std::uint32_t page_number) const {
  const auto it = overlay_.find(page_number);
  if (it != overlay_.end()) {
    return it->second;
  }
  return baseline_.page(page_number);
}

// ----------------------------------------------------------- interpreter --

ReferenceInterpreter::ReferenceInterpreter(const EnvSpec& spec,
                                           const sim::PhysicalMemory::Snapshot& baseline,
                                           std::vector<sim::Program> programs)
    : spec_(spec), mem_(baseline), programs_(std::move(programs)) {}

ReferenceInterpreter::Translated ReferenceInterpreter::translate(sim::VirtAddr va,
                                                                 sim::AccessType type) const {
  if (!spec_.has_mmu) {
    return {sim::Fault::kNone, va};
  }
  // Hardware page walk over the in-DRAM tables (sim/page_table.cpp walk),
  // then the MMU's permission checks, then the architecture's walk check —
  // the simulator's exact order. No TLB: the conformance contexts use one
  // ASID per domain, so a TLB hit can never yield a different verdict than
  // a fresh walk.
  const sim::Word l1 = mem_.read32(spec_.page_root + 4 * sim::AddressSpace::l1_index(va));
  if (!(l1 & sim::pte::kPresent)) {
    return {sim::Fault::kPageNotPresent, 0};
  }
  const sim::Word leaf =
      mem_.read32(sim::pte::frame(l1) + 4 * sim::AddressSpace::l2_index(va));
  const sim::Word flags = leaf & sim::pte::kFlagsMask;
  const sim::PhysAddr phys = sim::pte::frame(leaf) | (va & sim::kPageOffsetMask);

  if (!(flags & sim::pte::kPresent) || (flags & sim::pte::kReserved)) {
    return {sim::Fault::kPageNotPresent, 0};
  }
  if (ctx_.priv == sim::Privilege::kUser && !(flags & sim::pte::kUser)) {
    return {sim::Fault::kProtection, phys};
  }
  if (type == sim::AccessType::kWrite && !(flags & sim::pte::kWritable)) {
    return {sim::Fault::kProtection, phys};
  }
  if (type == sim::AccessType::kExecute && !(flags & sim::pte::kExecutable)) {
    return {sim::Fault::kProtection, phys};
  }
  if (spec_.protect_point == ProtectPoint::kWalkCheck &&
      spec_.in_protected(phys, ctx_.domain)) {
    return {sim::Fault::kSecurityViolation, 0};
  }
  return {sim::Fault::kNone, phys};
}

sim::Fault ReferenceInterpreter::bus_check(sim::PhysAddr addr, sim::AccessType) const {
  if (!mem_.contains(addr, 4)) {
    return sim::Fault::kBusError;
  }
  if (spec_.protect_point == ProtectPoint::kBus && spec_.in_protected(addr, ctx_.domain)) {
    return sim::Fault::kSecurityViolation;
  }
  return sim::Fault::kNone;
}

namespace {
const sim::MpuRegion* region_of(const std::vector<sim::MpuRegion>& regions,
                                sim::PhysAddr addr) {
  for (const sim::MpuRegion& r : regions) {
    if (r.contains(addr)) {
      return &r;
    }
  }
  return nullptr;
}
}  // namespace

sim::Fault ReferenceInterpreter::mpu_check(sim::PhysAddr addr, sim::AccessType type,
                                           sim::PhysAddr pc) const {
  const sim::MpuRegion* r = region_of(spec_.mpu_regions, addr);
  if (r == nullptr) {
    return sim::Fault::kNone;  // uncovered: default allow.
  }
  if (!r->gate_allows(pc)) {
    return sim::Fault::kSecurityViolation;
  }
  switch (type) {
    case sim::AccessType::kRead: return r->readable ? sim::Fault::kNone : sim::Fault::kProtection;
    case sim::AccessType::kWrite: return r->writable ? sim::Fault::kNone : sim::Fault::kProtection;
    case sim::AccessType::kExecute:
      return r->executable ? sim::Fault::kNone : sim::Fault::kProtection;
  }
  return sim::Fault::kNone;
}

sim::Fault ReferenceInterpreter::mpu_check_fetch(sim::PhysAddr addr, sim::PhysAddr from_pc) const {
  const sim::MpuRegion* r = region_of(spec_.mpu_regions, addr);
  if (r == nullptr) {
    return sim::Fault::kNone;
  }
  if (!r->executable) {
    return sim::Fault::kProtection;
  }
  const bool entering = !r->contains(from_pc);
  if (entering && !r->entry_points.empty() &&
      std::find(r->entry_points.begin(), r->entry_points.end(), addr) ==
          r->entry_points.end()) {
    return sim::Fault::kSecurityViolation;
  }
  return sim::Fault::kNone;
}

sim::Word ReferenceInterpreter::mem_read(sim::PhysAddr word_addr) const {
  const sim::Word raw = mem_.read32(word_addr);
  return spec_.in_mee(word_addr) ? mee_word(word_addr, raw) : raw;
}

void ReferenceInterpreter::mem_write(sim::PhysAddr word_addr, sim::Word v) {
  mem_.write32(word_addr, spec_.in_mee(word_addr) ? mee_word(word_addr, v) : v);
}

const sim::Instruction* ReferenceInterpreter::instruction_at(sim::VirtAddr pc) const {
  for (const sim::Program& p : programs_) {  // load order wins, like the CPU.
    if (const sim::Instruction* inst = p.at(pc)) {
      return inst;
    }
  }
  return nullptr;
}

void ReferenceInterpreter::ecall(sim::Word service, sim::VirtAddr pc) {
  res_.pc = pc + 4;  // trap entry; the service may override below.
  switch (service) {
    case kSvcEnterEnclave:
      set_reg(sim::R14, res_.pc);
      ctx_ = spec_.enclave;
      res_.pc = spec_.enclave_entry;
      break;
    case kSvcExitEnclave:
      ctx_ = spec_.normal;
      res_.pc = reg(sim::R14);
      break;
    case kSvcSupervisor:
      ctx_ = spec_.normal;
      ctx_.priv = sim::Privilege::kSupervisor;
      break;
    case kSvcUser:
      ctx_ = spec_.normal;
      break;
    default:
      break;
  }
}

void ReferenceInterpreter::raise(const FaultRecord& record) {
  res_.faults.push_back(record);
  if (record.type == sim::AccessType::kExecute || res_.faults.size() >= kFaultBudget) {
    res_.pc = spec_.halt_stub;
  } else {
    res_.pc = record.pc + 4;
  }
}

bool ReferenceInterpreter::step() {
  const sim::VirtAddr pc = res_.pc;

  // Fetch: translate, (bare) MPU fetch gate, bus bounds + firewall,
  // decoded-instruction lookup — the Cpu::step order.
  const Translated ftr = translate(pc, sim::AccessType::kExecute);
  if (ftr.fault != sim::Fault::kNone) {
    raise({ftr.fault, pc, pc, sim::AccessType::kExecute});
    return true;
  }
  if (!spec_.has_mmu) {
    if (const sim::Fault f = mpu_check_fetch(ftr.phys, prev_fetch_phys_);
        f != sim::Fault::kNone) {
      raise({f, pc, pc, sim::AccessType::kExecute});
      return true;
    }
  }
  if (const sim::Fault f = bus_check(ftr.phys, sim::AccessType::kExecute);
      f != sim::Fault::kNone) {
    raise({f, pc, pc, sim::AccessType::kExecute});
    return true;
  }
  const sim::Instruction* inst = instruction_at(pc);
  if (inst == nullptr) {
    raise({sim::Fault::kBusError, pc, pc, sim::AccessType::kExecute});
    return true;
  }
  prev_fetch_phys_ = ftr.phys;

  const sim::Word imm = static_cast<sim::Word>(inst->imm);
  auto alu = [&](sim::Word v) {
    set_reg(inst->rd, v);
    leak(v);
  };

  res_.pc = pc + 4;
  switch (inst->op) {
    case sim::Opcode::kNop:
      break;
    case sim::Opcode::kHalt:
      res_.pc = pc;  // Cpu::step returns before the pc update on halt.
      return false;
    case sim::Opcode::kLoadImm: alu(imm); break;
    case sim::Opcode::kAdd: alu(reg(inst->rs1) + reg(inst->rs2)); break;
    case sim::Opcode::kSub: alu(reg(inst->rs1) - reg(inst->rs2)); break;
    case sim::Opcode::kAnd: alu(reg(inst->rs1) & reg(inst->rs2)); break;
    case sim::Opcode::kOr: alu(reg(inst->rs1) | reg(inst->rs2)); break;
    case sim::Opcode::kXor: alu(reg(inst->rs1) ^ reg(inst->rs2)); break;
    case sim::Opcode::kShl: alu(reg(inst->rs1) << (reg(inst->rs2) & 31u)); break;
    case sim::Opcode::kShr: alu(reg(inst->rs1) >> (reg(inst->rs2) & 31u)); break;
    case sim::Opcode::kMul: alu(reg(inst->rs1) * reg(inst->rs2)); break;
    case sim::Opcode::kAddImm: alu(reg(inst->rs1) + imm); break;
    case sim::Opcode::kAndImm: alu(reg(inst->rs1) & imm); break;
    case sim::Opcode::kXorImm: alu(reg(inst->rs1) ^ imm); break;
    case sim::Opcode::kShlImm: alu(reg(inst->rs1) << (imm & 31u)); break;
    case sim::Opcode::kShrImm: alu(reg(inst->rs1) >> (imm & 31u)); break;

    case sim::Opcode::kLoad:
    case sim::Opcode::kLoadByte: {
      const bool byte_load = inst->op == sim::Opcode::kLoadByte;
      const sim::VirtAddr va = reg(inst->rs1) + imm;
      if (!byte_load && (va & 3u)) {
        raise({sim::Fault::kAlignment, pc, va, sim::AccessType::kRead});
        return true;
      }
      const Translated tr = translate(va, sim::AccessType::kRead);
      if (tr.fault != sim::Fault::kNone) {
        raise({tr.fault, pc, va, sim::AccessType::kRead});
        return true;
      }
      if (!spec_.has_mmu) {
        if (const sim::Fault f = mpu_check(tr.phys, sim::AccessType::kRead, prev_fetch_phys_);
            f != sim::Fault::kNone) {
          raise({f, pc, va, sim::AccessType::kRead});
          return true;
        }
      }
      const sim::PhysAddr wb = tr.phys & ~3u;  // byte reads check/read the word.
      if (const sim::Fault f = bus_check(wb, sim::AccessType::kRead); f != sim::Fault::kNone) {
        raise({f, pc, va, sim::AccessType::kRead});
        return true;
      }
      const sim::Word w = mem_read(wb);
      const sim::Word v = byte_load ? (w >> (8 * (tr.phys & 3u))) & 0xFFu : w;
      set_reg(inst->rd, v);
      leak(v);
      break;
    }

    case sim::Opcode::kStore:
    case sim::Opcode::kStoreByte: {
      const bool byte_store = inst->op == sim::Opcode::kStoreByte;
      const sim::VirtAddr va = reg(inst->rs1) + imm;
      if (!byte_store && (va & 3u)) {
        raise({sim::Fault::kAlignment, pc, va, sim::AccessType::kWrite});
        return true;
      }
      const Translated tr = translate(va, sim::AccessType::kWrite);
      if (tr.fault != sim::Fault::kNone) {
        raise({tr.fault, pc, va, sim::AccessType::kWrite});
        return true;
      }
      if (!spec_.has_mmu) {
        if (const sim::Fault f = mpu_check(tr.phys, sim::AccessType::kWrite, prev_fetch_phys_);
            f != sim::Fault::kNone) {
          raise({f, pc, va, sim::AccessType::kWrite});
          return true;
        }
      }
      // Byte stores are a read-modify-write of the containing word on the
      // bus; the firewall/bounds verdicts are type-agnostic here, so one
      // check of the word base mirrors both bus legs.
      const sim::PhysAddr wb = tr.phys & ~3u;
      if (const sim::Fault f = bus_check(wb, sim::AccessType::kWrite); f != sim::Fault::kNone) {
        raise({f, pc, va, sim::AccessType::kWrite});
        return true;
      }
      const sim::Word value = reg(inst->rs2);
      if (byte_store) {
        const std::uint32_t shift = 8 * (tr.phys & 3u);
        const sim::Word merged = (mem_read(wb) & ~(0xFFu << shift)) |
                                 ((value & 0xFFu) << shift);
        mem_write(wb, merged);
      } else {
        mem_write(wb, value);
      }
      // Attribute measured-region writes to the enclave by *execution
      // site*, not just the context label: on the embedded profiles the
      // MPU gate is PC-based, so code still running inside the trustlet
      // page after an exit-to-user service legitimately keeps its access
      // (Sancus/TrustLite semantics).
      const bool from_enclave_code =
          pc >= spec_.enclave_code && pc < spec_.enclave_code + sim::kPageSize;
      if ((ctx_.domain == spec_.enclave.domain || from_enclave_code) &&
          wb >= spec_.measured_start && wb < spec_.measured_end) {
        res_.enclave_wrote_measured = true;
      }
      leak(value);
      break;
    }

    case sim::Opcode::kBranch: {
      const sim::Word a = reg(inst->rs1);
      const sim::Word b = reg(inst->rs2);
      bool taken = false;
      switch (inst->cond) {
        case sim::BranchCond::kEq: taken = a == b; break;
        case sim::BranchCond::kNe: taken = a != b; break;
        case sim::BranchCond::kLt:
          taken = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
          break;
        case sim::BranchCond::kGe:
          taken = static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
          break;
        case sim::BranchCond::kLtu: taken = a < b; break;
        case sim::BranchCond::kGeu: taken = a >= b; break;
      }
      if (taken) {
        res_.pc = static_cast<sim::VirtAddr>(inst->imm);
      }
      break;
    }
    case sim::Opcode::kJump: res_.pc = static_cast<sim::VirtAddr>(inst->imm); break;
    case sim::Opcode::kJumpInd: res_.pc = reg(inst->rs1); break;
    case sim::Opcode::kCall:
      set_reg(sim::kLink, pc + 4);
      res_.pc = static_cast<sim::VirtAddr>(inst->imm);
      break;
    case sim::Opcode::kCallInd:
      set_reg(sim::kLink, pc + 4);
      res_.pc = reg(inst->rs1);
      break;
    case sim::Opcode::kRet: res_.pc = reg(sim::kLink); break;
    case sim::Opcode::kFence:
      break;
    case sim::Opcode::kClflush: {
      // The CPU only *translates* the flush address; no MPU or bus check,
      // and the flush itself is purely microarchitectural.
      const sim::VirtAddr va = reg(inst->rs1) + imm;
      const Translated tr = translate(va, sim::AccessType::kRead);
      if (tr.fault != sim::Fault::kNone) {
        raise({tr.fault, pc, va, sim::AccessType::kRead});
        return true;
      }
      break;
    }
    case sim::Opcode::kRdCycle:
      // Timing-dependent by definition: the generator never emits it and
      // the corpus loader rejects it, so reaching here is harness misuse.
      throw std::logic_error("reference interpreter: rdcycle is not oracle-predictable");
    case sim::Opcode::kEcall:
      ecall(imm, pc);
      break;
  }
  return true;
}

ReferenceResult ReferenceInterpreter::run(sim::VirtAddr entry, std::uint64_t budget) {
  res_ = ReferenceResult{};
  ctx_ = spec_.normal;
  prev_fetch_phys_ = 0;
  res_.pc = entry;
  while (res_.executed < budget) {
    const bool keep_going = step();
    ++res_.executed;  // faulting steps count, like Cpu::run.
    if (!keep_going) {
      res_.halted = true;
      break;
    }
  }
  res_.final_domain = ctx_.domain;
  res_.final_priv = ctx_.priv;
  return res_;
}

}  // namespace hwsec::conformance
