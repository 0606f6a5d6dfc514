// Program builder, label resolution, disassembler, and detailed ISA
// semantics (every ALU op and branch condition, executed on a machine).
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/isa.h"
#include "sim/machine.h"
#include "sim/program.h"

namespace sim = hwsec::sim;

namespace {

TEST(ProgramBuilder, LabelsResolveToAddresses) {
  sim::ProgramBuilder b(0x1000);
  b.label("a").nop().nop().label("b").halt();
  const sim::Program p = b.build();
  EXPECT_EQ(p.address_of("a"), 0x1000u);
  EXPECT_EQ(p.address_of("b"), 0x1008u);
  EXPECT_EQ(p.end(), 0x100Cu);
}

TEST(ProgramBuilder, DuplicateLabelThrows) {
  sim::ProgramBuilder b;
  b.label("x");
  EXPECT_THROW(b.label("x"), std::invalid_argument);
}

TEST(ProgramBuilder, UnresolvedTargetThrowsAtBuild) {
  sim::ProgramBuilder b;
  b.jump("nowhere");
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(ProgramBuilder, UnknownLabelLookupThrows) {
  sim::ProgramBuilder b;
  b.nop();
  const sim::Program p = b.build();
  EXPECT_THROW(p.address_of("missing"), std::out_of_range);
}

TEST(Program, AtRespectsBoundsAndAlignment) {
  sim::ProgramBuilder b(0x2000);
  b.nop().halt();
  const sim::Program p = b.build();
  EXPECT_NE(p.at(0x2000), nullptr);
  EXPECT_NE(p.at(0x2004), nullptr);
  EXPECT_EQ(p.at(0x2008), nullptr) << "past the end";
  EXPECT_EQ(p.at(0x1FFC), nullptr) << "before the base";
  EXPECT_EQ(p.at(0x2002), nullptr) << "misaligned";
}

TEST(Disassembler, EveryOpcodeHasAMnemonic) {
  for (int op = 0; op <= static_cast<int>(sim::Opcode::kEcall); ++op) {
    sim::Instruction inst;
    inst.op = static_cast<sim::Opcode>(op);
    EXPECT_NE(sim::to_string(inst.op), "?");
    EXPECT_FALSE(sim::disassemble(inst).empty());
  }
}

TEST(Disassembler, RendersOperands) {
  sim::Instruction inst{.op = sim::Opcode::kLoad, .rd = sim::R3, .rs1 = sim::R1, .imm = 8};
  EXPECT_EQ(sim::disassemble(inst), "lw r3, [r1+8]");
}

TEST(Isa, ControlFlowClassification) {
  EXPECT_TRUE(sim::is_control_flow(sim::Opcode::kBranch));
  EXPECT_TRUE(sim::is_control_flow(sim::Opcode::kRet));
  EXPECT_TRUE(sim::is_control_flow(sim::Opcode::kHalt));
  EXPECT_FALSE(sim::is_control_flow(sim::Opcode::kAdd));
  EXPECT_FALSE(sim::is_control_flow(sim::Opcode::kLoad));
  EXPECT_FALSE(sim::is_control_flow(sim::Opcode::kFence));
}

// ---- executed semantics -----------------------------------------------------

class IsaExecTest : public ::testing::Test {
 protected:
  IsaExecTest() : machine_(sim::MachineProfile::server(), 77) {
    machine_.cpu(0).mmu().set_bare_mode(true);
  }

  /// Runs a fragment and returns the final register file snapshot.
  sim::Word run(const std::function<void(sim::ProgramBuilder&)>& body, sim::Reg result_reg) {
    sim::ProgramBuilder b(0x3000);
    body(b);
    b.halt();
    const sim::Program p = b.build();
    machine_.cpu(0).clear_programs();
    machine_.cpu(0).load_program(p);
    machine_.cpu(0).run_from(p.base);
    return machine_.cpu(0).reg(result_reg);
  }

  sim::Machine machine_;
};

TEST_F(IsaExecTest, ArithmeticAndLogic) {
  using R = sim::Reg;
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 7).li(R::R2, 5).sub(R::R3, R::R1, R::R2); }, R::R3),
            2u);
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 0xF0).li(R::R2, 0x3C).and_(R::R3, R::R1, R::R2); },
                R::R3),
            0x30u);
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 0xF0).li(R::R2, 0x0F).or_(R::R3, R::R1, R::R2); },
                R::R3),
            0xFFu);
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 0xFF).li(R::R2, 0x0F).xor_(R::R3, R::R1, R::R2); },
                R::R3),
            0xF0u);
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 3).li(R::R2, 4).shl(R::R3, R::R1, R::R2); }, R::R3),
            48u);
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 48).li(R::R2, 4).shr(R::R3, R::R1, R::R2); }, R::R3),
            3u);
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 1000).li(R::R2, 1000).mul(R::R3, R::R1, R::R2); },
                R::R3),
            1'000'000u);
  // mul wraps modulo 2^32.
  EXPECT_EQ(run([](auto& b) { b.li(R::R1, 0x10000).li(R::R2, 0x10000).mul(R::R3, R::R1, R::R2); },
                R::R3),
            0u);
}

TEST_F(IsaExecTest, RegisterZeroIsHardwired) {
  using R = sim::Reg;
  EXPECT_EQ(run([](auto& b) { b.li(R::R0, 99).addi(R::R1, R::R0, 0); }, R::R1), 0u);
}

// gtest prints a parameter without a PrintTo as its raw bytes, padding
// included, and ctest names each case after that print. Left implicit, the
// padding held whatever the heap did, so case names changed from one test
// listing to the next. It is spelled out here with the bytes the names were
// first recorded with, so every build registers the same case names.
struct BranchCase {
  sim::BranchCond cond;
  std::uint8_t pad[3];
  sim::Word a;
  sim::Word b;
  bool expect_taken;
  std::uint8_t tail[3] = {};
};
static_assert(sizeof(BranchCase) == 16, "BranchCase must have no implicit padding");

class BranchCondTest : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchCondTest, EvaluatesCorrectly) {
  const BranchCase& c = GetParam();
  sim::Machine machine(sim::MachineProfile::server(), 78);
  machine.cpu(0).mmu().set_bare_mode(true);
  sim::ProgramBuilder b(0x3000);
  b.li(sim::R1, c.a)
      .li(sim::R2, c.b)
      .li(sim::R3, 0)
      .br(c.cond, sim::R1, sim::R2, "taken")
      .li(sim::R3, 1)  // fall-through marker.
      .halt()
      .label("taken")
      .li(sim::R3, 2)
      .halt();
  const sim::Program p = b.build();
  machine.cpu(0).load_program(p);
  machine.cpu(0).run_from(p.base);
  EXPECT_EQ(machine.cpu(0).reg(sim::R3), c.expect_taken ? 2u : 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, BranchCondTest,
    ::testing::Values(
        BranchCase{sim::BranchCond::kEq, {0x73, 0x00, 0x73}, 5, 5, true},
        BranchCase{sim::BranchCond::kEq, {}, 5, 6, false},
        BranchCase{sim::BranchCond::kNe, {}, 5, 6, true},
        BranchCase{sim::BranchCond::kNe, {0x00, 0x01, 0x1B}, 5, 5, false},
        // Signed comparisons: 0xFFFFFFFF is -1.
        BranchCase{sim::BranchCond::kLt, {0xFF, 0x48, 0x00}, 0xFFFFFFFF, 0, true},
        BranchCase{sim::BranchCond::kLt, {}, 0, 0xFFFFFFFF, false},
        BranchCase{sim::BranchCond::kGe, {}, 0, 0xFFFFFFFF, true},
        BranchCase{sim::BranchCond::kGe, {0x00, 0x01, 0x1B}, 0xFFFFFFFF, 0, false},
        // Unsigned: 0xFFFFFFFF is huge.
        BranchCase{sim::BranchCond::kLtu, {0xDA, 0x48, 0x00}, 0xFFFFFFFF, 0, false},
        BranchCase{sim::BranchCond::kLtu, {}, 0, 0xFFFFFFFF, true},
        BranchCase{sim::BranchCond::kGeu, {}, 0xFFFFFFFF, 0, true},
        BranchCase{sim::BranchCond::kGeu, {}, 0, 1, false}));

TEST_F(IsaExecTest, IndirectJumpAndCall) {
  using R = sim::Reg;
  sim::ProgramBuilder b(0x3000);
  b.label("start")
      .li(R::R1, 0)          // patched below with "target".
      .jr(R::R1)
      .li(R::R2, 1)          // skipped.
      .halt()
      .label("target")
      .li(R::R2, 7)
      .halt();
  sim::Program p = b.build();
  for (auto& inst : p.code) {
    if (inst.op == sim::Opcode::kLoadImm && inst.rd == sim::R1) {
      inst.imm = p.address_of("target");
    }
  }
  machine_.cpu(0).clear_programs();
  machine_.cpu(0).load_program(p);
  machine_.cpu(0).run_from(p.base);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R2), 7u);
}

TEST_F(IsaExecTest, NestedCallsNeedLinkSpill) {
  using R = sim::Reg;
  // Inner call overwrites the link register: classic RISC behaviour the
  // builder exposes honestly.
  sim::ProgramBuilder b(0x3000);
  b.call("outer").li(R::R9, 1).halt()
      .label("outer").addi(R::R8, R::R15, 0)  // spill link to r8.
      .call("inner")
      .addi(R::R15, R::R8, 0)                 // restore.
      .ret()
      .label("inner").li(R::R7, 5).ret();
  const sim::Program p = b.build();
  machine_.cpu(0).clear_programs();
  machine_.cpu(0).load_program(p);
  const auto result = machine_.cpu(0).run_from(p.base, 64);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R7), 5u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R9), 1u);
}

TEST_F(IsaExecTest, CpuStatsCountInstructionClasses) {
  using R = sim::Reg;
  machine_.cpu(0).reset_stats();
  const sim::PhysAddr buf = machine_.alloc_frame();
  run([buf](auto& b) {
    b.li(R::R1, buf).li(R::R2, 42).sw(R::R1, 0, R::R2).lw(R::R3, R::R1).lw(R::R4, R::R1);
  }, R::R3);
  const auto& stats = machine_.cpu(0).stats();
  EXPECT_EQ(stats.loads, 2u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GE(stats.retired, 6u);
}

}  // namespace
