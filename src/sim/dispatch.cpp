// The commit loop: Cpu::run_uops, the one interpreter of committed
// instructions, and the program lookup it shares with the transient-window
// executor.
//
// run_uops executes predecoded micro-ops with computed-goto threaded
// dispatch on GCC/Clang. Elsewhere the same handler bodies compile as a
// plain switch, selected by the UOP_LABEL macro; that is the portability
// path. Fault, cycle, stats, predictor and hook ordering is pinned by the
// recorded observations in tests/golden/cpu_observed.json, and the
// conformance fuzzer diffs it against the independent reference
// interpreter (src/conformance/reference.cpp).
//
// The loop leans on three structural guarantees:
//  * pc_ is canonical: read at the top of every instruction, written on
//    every commit, and materialized before any host code (fault handlers,
//    ecall handlers, thrown watchdog errors) can observe it.
//  * a pc with no instruction behind it still takes the full fetch path
//    (translate, MPU execute gate, bus fetch) and only then raises
//    kBusError, so its fetch-side faults, cycles and cache effects come
//    first.
//  * after any fault handler or ecall handler runs (UopExit::kResync) the
//    caller re-evaluates the hook configuration before re-entering,
//    because handlers may arm hooks, swap programs, or switch context.
//
// The fetch memo is the per-instruction win: once a pc has fetched through
// a TLB hit + L1I hit (or has just filled both), the memo replays the hit
// side effects (LRU stamp, PLRU touch, hit counters, latency) via
// Tlb::repeat_hit / Cache::repeat_hit. Validity is proven by
// removal epochs checked on EVERY replay — transient windows, inclusive
// LLC back-invalidation and CLFLUSH can evict the memoized line between
// any two instructions — plus a packed context word (ASID, domain,
// privilege, bus-firewall presence) that covers the translation predicate.

#include "sim/cpu.h"

namespace hwsec::sim {

const Cpu::LoadedProgram* Cpu::program_at(VirtAddr pc) const {
  if (!fetch_valid_ || fetch_asid_ != mmu_.asid()) {
    rebuild_fetch_table();
  }
  if (fetch_flat_ok_) {
    const VirtAddr off = pc - fetch_lo_;  // below-lo pcs wrap to huge offsets.
    if ((off & 3u) != 0 || (off >> 2) >= fetch_slots_.size()) {
      return nullptr;
    }
    const std::uint32_t p = fetch_slots_[off >> 2];
    return p == kNoSlot ? nullptr : &programs_[p];
  }
  // Misaligned or spread-out programs: load-order scan, first match wins.
  for (const LoadedProgram& lp : programs_) {
    if (pc >= lp.base && pc < lp.end && (pc - lp.base) % 4 == 0 &&
        (!lp.asid.has_value() || *lp.asid == mmu_.asid())) {
      return &lp;
    }
  }
  return nullptr;
}

// Computed-goto dispatch where the extension exists; identical handler
// bodies compile as a switch elsewhere. Every handler ends in an explicit
// goto or return, so the two forms are control-flow equivalent.
#if defined(__GNUC__) || defined(__clang__)
#define HWSEC_UOP_GOTO 1
#define UOP_LABEL(k) u_##k:
// Label addresses and computed gotos are the extension itself; -Wpedantic
// flags every use, which a -Werror build cannot take.
#pragma GCC diagnostic ignored "-Wpedantic"
#else
#define HWSEC_UOP_GOTO 0
#define UOP_LABEL(k) case UopKind::k:
#endif

// Raises a fault: the faulting instruction counts as executed, a kHalt
// action ends the run, and any continue action forces a resync (the
// handler may have changed hooks, programs, or context).
#define UOP_RAISE(f, a, t)                                                  \
  do {                                                                      \
    pc_ = pc;                                                               \
    const FaultInfo info{.fault = (f), .pc = pc, .addr = (a), .type = (t)}; \
    ++result.executed;                                                      \
    if (raise(info)) {                                                      \
      result.stop_fault = info.fault;                                       \
      return UopExit::kDone;                                                \
    }                                                                       \
    return UopExit::kResync;                                                \
  } while (0)

// Raises the fault an MPU gate returned, if any.
#define UOP_GATE(check, a, t)   \
  do {                          \
    const Fault gate = (check); \
    if (gate != Fault::kNone) { \
      UOP_RAISE(gate, a, t);    \
    }                           \
  } while (0)

template <bool Hooked>
Cpu::UopExit Cpu::run_uops(RunResult& result, std::uint64_t max_instructions) {
  CacheHierarchy& caches = bus_->caches();
  Cache* const l1i = caches.config().has_l1 ? &caches.l1i(config_.id) : nullptr;
  Tlb& tlb = mmu_.tlb();

#if HWSEC_UOP_GOTO
  // Indexed by UopKind; must track the enum order exactly.
  const void* const kHandlers[kNumUopKinds] = {
      &&u_kNop,    &&u_kHalt,   &&u_kLoadImm, &&u_kAdd,      &&u_kSub,
      &&u_kAnd,    &&u_kOr,     &&u_kXor,     &&u_kShl,      &&u_kShr,
      &&u_kMul,    &&u_kAddImm, &&u_kAndImm,  &&u_kXorImm,   &&u_kShlImm,
      &&u_kShrImm, &&u_kLoad,   &&u_kLoadByte, &&u_kStore,   &&u_kStoreByte,
      &&u_kBranch, &&u_kJump,   &&u_kJumpInd, &&u_kCall,     &&u_kCallInd,
      &&u_kRet,    &&u_kFence,  &&u_kClflush, &&u_kRdCycle,  &&u_kEcall,
  };
#endif

  while (result.executed < max_instructions) {
    if constexpr (Hooked) {
      // The cycle budget is checked before every instruction and the
      // asynchronous cancel flag is polled when (executed & 0x3FF) == 0.
      // (Unhooked runs have no watchdog by construction — arming one
      // selects Hooked.)
      if (watchdog_ != nullptr) {
        check_watchdog(result.executed);
      }
    }
    const VirtAddr pc = pc_;

    // ---- resolve the micro-op (pure lookup, no side effects) -----------
    const LoadedProgram* lp = program_at(pc);
    const Uop* u = lp != nullptr ? &lp->decoded->uops[(pc - lp->base) >> 2] : nullptr;

    // ---- fetch ----------------------------------------------------------
    const DomainId domain = mmu_.domain();
    const std::uint64_t ctx = fetch_ctx();
    FetchMemo& memo = fetch_memo_[(pc >> 2) & (kFetchMemoSlots - 1)];
    PhysAddr fetch_phys = 0;
    // Only a resolved pc replays, so a never-armed slot's sentinel pc
    // cannot match on a core without an L1I.
    if (u != nullptr && memo.pc == pc && memo.ctx == ctx &&
        memo.tlb_epoch == tlb.removal_epoch() && memo.l1i_epoch == l1i->removal_epoch() &&
        memo.excl_epoch == caches.exclusion_epoch()) {
      // Bit-exact replay of the TLB-hit + L1I-hit fetch path.
      tlb.repeat_hit(memo.tlb_index);
      l1i->repeat_hit(memo.l1i_set, memo.l1i_way, domain);
      cycles_ += memo.latency;
      fetch_phys = memo.phys;
    } else {
      const TranslateResult ftr = mmu_.translate(pc, AccessType::kExecute);
      cycles_ += ftr.latency;
      if (ftr.fault != Fault::kNone) {
        UOP_RAISE(ftr.fault, pc, AccessType::kExecute);
      }
      if constexpr (Hooked) {
        if (mpu_ != nullptr) {
          UOP_GATE(mpu_->check_fetch(ftr.phys, prev_fetch_phys_), pc, AccessType::kExecute);
        }
      }
      const BusResult fetch =
          bus_->cpu_fetch(config_.id, domain, mmu_.privilege(), ftr.phys);
      cycles_ += fetch.latency;
      if (fetch.fault != Fault::kNone) {
        UOP_RAISE(fetch.fault, pc, AccessType::kExecute);
      }
      fetch_phys = ftr.phys;
      // Arm the memo: after a successful cacheable fetch the translation
      // sits in the TLB and the line in the L1I, so the *next* execution
      // of this pc takes the hit path the memo replays.
      if (mpu_ == nullptr && l1i != nullptr && !mmu_.bare_mode() && (ctx & 1u) == 0 &&
          fetch.level != ServiceLevel::kUncached) {
        const std::uint32_t tlb_index = tlb.find_index(pc, mmu_.asid());
        const std::uint32_t l1i_way = l1i->find_way(ftr.phys, domain);
        if (tlb_index != Tlb::kNoIndex && l1i_way != Cache::kNoWay) {
          memo.pc = pc;
          memo.phys = ftr.phys;
          memo.latency = tlb.config().hit_latency + l1i->config().hit_latency;
          memo.tlb_index = tlb_index;
          memo.l1i_set = l1i_way >> 8;
          memo.l1i_way = l1i_way & 0xFFu;
          memo.ctx = ctx;
          memo.tlb_epoch = tlb.removal_epoch();
          memo.l1i_epoch = l1i->removal_epoch();
          memo.excl_epoch = caches.exclusion_epoch();
        } else {
          memo.pc = ~VirtAddr{0};
        }
      }
    }
    if (u == nullptr) {
      UOP_RAISE(Fault::kBusError, pc, AccessType::kExecute);
    }
    prev_fetch_phys_ = fetch_phys;
    ++stats_.retired;

    VirtAddr next_pc = pc + 4;

    // regs_[0] is invariantly zero (every write path guards kZero), so
    // reads skip the guard.
    const auto commit_alu = [&](std::uint8_t rd, Word value) {
      if (rd != 0) {
        regs_[rd] = value;
      }
      if constexpr (Hooked) {
        if (has_leak_) {
          leak_(value);
        }
      }
      cycles_ += config_.alu_latency;
    };

#if HWSEC_UOP_GOTO
    goto* kHandlers[static_cast<std::uint8_t>(u->kind)];
#else
    switch (u->kind)
#endif
    {
      UOP_LABEL(kNop) {
        cycles_ += config_.alu_latency;
        goto u_commit;
      }
      UOP_LABEL(kHalt) {
        // Halt retires without a pc update: pc_ stays at the halt
        // instruction (canonical pc_).
        ++result.executed;
        result.halted = true;
        return UopExit::kDone;
      }
      UOP_LABEL(kLoadImm) {
        commit_alu(u->rd, u->imm);
        goto u_commit;
      }
      UOP_LABEL(kAdd) {
        commit_alu(u->rd, regs_[u->rs1] + regs_[u->rs2]);
        goto u_commit;
      }
      UOP_LABEL(kSub) {
        commit_alu(u->rd, regs_[u->rs1] - regs_[u->rs2]);
        goto u_commit;
      }
      UOP_LABEL(kAnd) {
        commit_alu(u->rd, regs_[u->rs1] & regs_[u->rs2]);
        goto u_commit;
      }
      UOP_LABEL(kOr) {
        commit_alu(u->rd, regs_[u->rs1] | regs_[u->rs2]);
        goto u_commit;
      }
      UOP_LABEL(kXor) {
        commit_alu(u->rd, regs_[u->rs1] ^ regs_[u->rs2]);
        goto u_commit;
      }
      UOP_LABEL(kShl) {
        commit_alu(u->rd, regs_[u->rs1] << (regs_[u->rs2] & 31u));
        goto u_commit;
      }
      UOP_LABEL(kShr) {
        commit_alu(u->rd, regs_[u->rs1] >> (regs_[u->rs2] & 31u));
        goto u_commit;
      }
      UOP_LABEL(kMul) {
        commit_alu(u->rd, regs_[u->rs1] * regs_[u->rs2]);
        goto u_commit;
      }
      UOP_LABEL(kAddImm) {
        commit_alu(u->rd, regs_[u->rs1] + u->imm);
        goto u_commit;
      }
      UOP_LABEL(kAndImm) {
        commit_alu(u->rd, regs_[u->rs1] & u->imm);
        goto u_commit;
      }
      UOP_LABEL(kXorImm) {
        commit_alu(u->rd, regs_[u->rs1] ^ u->imm);
        goto u_commit;
      }
      UOP_LABEL(kShlImm) {
        commit_alu(u->rd, regs_[u->rs1] << u->imm);  // shift pre-masked at decode.
        goto u_commit;
      }
      UOP_LABEL(kShrImm) {
        commit_alu(u->rd, regs_[u->rs1] >> u->imm);
        goto u_commit;
      }
      UOP_LABEL(kLoad)
      UOP_LABEL(kLoadByte) {
        const bool byte_load = u->kind == UopKind::kLoadByte;
        const VirtAddr va = regs_[u->rs1] + u->imm;
        if (!byte_load && (va & 3u)) {
          UOP_RAISE(Fault::kAlignment, va, AccessType::kRead);
        }
        const TranslateResult tr = mmu_.translate(va, AccessType::kRead);
        cycles_ += tr.latency;
        if (tr.fault != Fault::kNone) {
          if (config_.speculative_execution) {
            if (const auto forwarded = transient_fault_value(tr, va, byte_load)) {
              run_transient(pc + 4, static_cast<Reg>(u->rd), *forwarded);
            }
          }
          UOP_RAISE(tr.fault, va, AccessType::kRead);
        }
        if constexpr (Hooked) {
          if (mpu_ != nullptr) {
            UOP_GATE(mpu_->check(tr.phys, AccessType::kRead, prev_fetch_phys_), va,
                     AccessType::kRead);
          }
        }
        const BusResult br = byte_load
            ? bus_->cpu_read8(config_.id, mmu_.domain(), mmu_.privilege(), tr.phys)
            : bus_->cpu_read(config_.id, mmu_.domain(), mmu_.privilege(), tr.phys);
        cycles_ += br.latency;
        if (br.fault != Fault::kNone) {
          UOP_RAISE(br.fault, va, AccessType::kRead);
        }
        ++stats_.loads;
        note_service(br.level);
        if (u->rd != 0) {
          regs_[u->rd] = br.value;
        }
        if constexpr (Hooked) {
          if (has_leak_) {
            leak_(br.value);
          }
        }
        goto u_commit;
      }
      UOP_LABEL(kStore)
      UOP_LABEL(kStoreByte) {
        const bool byte_store = u->kind == UopKind::kStoreByte;
        const VirtAddr va = regs_[u->rs1] + u->imm;
        if (!byte_store && (va & 3u)) {
          UOP_RAISE(Fault::kAlignment, va, AccessType::kWrite);
        }
        const TranslateResult tr = mmu_.translate(va, AccessType::kWrite);
        cycles_ += tr.latency;
        if (tr.fault != Fault::kNone) {
          UOP_RAISE(tr.fault, va, AccessType::kWrite);
        }
        if constexpr (Hooked) {
          if (mpu_ != nullptr) {
            UOP_GATE(mpu_->check(tr.phys, AccessType::kWrite, prev_fetch_phys_), va,
                     AccessType::kWrite);
          }
        }
        const Word value = regs_[u->rs2];
        const BusResult br = byte_store
            ? bus_->cpu_write8(config_.id, mmu_.domain(), mmu_.privilege(), tr.phys,
                               static_cast<std::uint8_t>(value))
            : bus_->cpu_write(config_.id, mmu_.domain(), mmu_.privilege(), tr.phys, value);
        cycles_ += br.latency;
        if (br.fault != Fault::kNone) {
          UOP_RAISE(br.fault, va, AccessType::kWrite);
        }
        ++stats_.stores;
        note_service(br.level);
        if constexpr (Hooked) {
          if (has_leak_) {
            leak_(value);
          }
        }
        goto u_commit;
      }
      UOP_LABEL(kBranch) {
        const Word a = regs_[u->rs1];
        const Word b = regs_[u->rs2];
        bool taken = false;
        switch (u->cond) {
          case BranchCond::kEq: taken = a == b; break;
          case BranchCond::kNe: taken = a != b; break;
          case BranchCond::kLt:
            taken = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
            break;
          case BranchCond::kGe:
            taken = static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
            break;
          case BranchCond::kLtu: taken = a < b; break;
          case BranchCond::kGeu: taken = a >= b; break;
        }
        const VirtAddr target = u->imm;
        cycles_ += config_.alu_latency;
        if (config_.speculative_execution) {
          const bool predicted = predictor_.pht().predict(pc);
          if (predicted != taken) {
            ++stats_.branch_mispredicts;
            run_transient(predicted ? target : pc + 4, std::nullopt, 0);
            cycles_ += config_.mispredict_penalty;
          }
        }
        predictor_.pht().update(pc, taken);
        next_pc = taken ? target : pc + 4;
        goto u_commit_cf;
      }
      UOP_LABEL(kJump) {
        cycles_ += config_.alu_latency;
        next_pc = u->imm;
        goto u_commit_cf;
      }
      UOP_LABEL(kJumpInd)
      UOP_LABEL(kCallInd) {
        const VirtAddr actual = regs_[u->rs1];
        cycles_ += config_.alu_latency;
        if (config_.speculative_execution) {
          if (const auto predicted = predictor_.btb().predict(pc);
              predicted.has_value() && *predicted != actual) {
            ++stats_.indirect_mispredicts;
            run_transient(*predicted, std::nullopt, 0);
            cycles_ += config_.mispredict_penalty;
          }
        }
        predictor_.btb().update(pc, actual);
        if (u->kind == UopKind::kCallInd) {
          regs_[kLink] = pc + 4;
          predictor_.rsb().push(pc + 4);
        }
        next_pc = actual;
        goto u_commit_cf;
      }
      UOP_LABEL(kCall) {
        cycles_ += config_.alu_latency;
        regs_[kLink] = pc + 4;
        predictor_.rsb().push(pc + 4);
        next_pc = u->imm;
        goto u_commit_cf;
      }
      UOP_LABEL(kRet) {
        const VirtAddr actual = regs_[kLink];
        cycles_ += config_.alu_latency;
        if (config_.speculative_execution) {
          if (const auto predicted = predictor_.rsb().pop();
              predicted.has_value() && *predicted != actual) {
            ++stats_.return_mispredicts;
            run_transient(*predicted, std::nullopt, 0);
            cycles_ += config_.mispredict_penalty;
          }
        } else {
          predictor_.rsb().pop();
        }
        next_pc = actual;
        goto u_commit_cf;
      }
      UOP_LABEL(kFence) {
        cycles_ += 3;
        goto u_commit;
      }
      UOP_LABEL(kClflush) {
        const VirtAddr va = regs_[u->rs1] + u->imm;
        const TranslateResult tr = mmu_.translate(va, AccessType::kRead);
        cycles_ += tr.latency;
        if (tr.fault != Fault::kNone) {
          UOP_RAISE(tr.fault, va, AccessType::kRead);
        }
        bus_->caches().flush_line(tr.phys);
        cycles_ += 10;
        goto u_commit;
      }
      UOP_LABEL(kRdCycle) {
        if (u->rd != 0) {
          regs_[u->rd] = static_cast<Word>(cycles_);
        }
        cycles_ += config_.alu_latency;
        goto u_commit;
      }
      UOP_LABEL(kEcall) {
        cycles_ += 20;  // trap entry cost.
        pc_ = pc + 4;
        ++result.executed;
        if (!ecall_) {
          result.halted = true;
          return UopExit::kDone;
        }
        ecall_(*this, u->imm);  // the handler controls pc_ from here.
        return UopExit::kResync;
      }
    }

  u_commit_cf:
    if constexpr (Hooked) {
      if (has_cf_hook_) {
        cf_hook_(pc, next_pc);
      }
    }
  u_commit:
    pc_ = next_pc;
    ++result.executed;
  }
  return UopExit::kDone;
}

template Cpu::UopExit Cpu::run_uops<true>(RunResult& result, std::uint64_t max_instructions);
template Cpu::UopExit Cpu::run_uops<false>(RunResult& result, std::uint64_t max_instructions);

}  // namespace hwsec::sim
