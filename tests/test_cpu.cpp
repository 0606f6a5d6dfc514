// Execution-engine semantics: ISA behaviour, prediction-driven transient
// windows, Meltdown-style fault forwarding and the L1TF path — the unit
// contracts the §4.2 attacks are built on.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

#include "core/json.h"
#include "sim/machine.h"
#include "sim/program.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;

namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : machine_(sim::MachineProfile::server(), 11), aspace_(machine_.create_address_space()) {}

  /// Identity-maps `pages` pages at `base` (base must be page-aligned).
  sim::PhysAddr map_identity(sim::VirtAddr base, std::uint32_t pages, sim::Word flags) {
    for (std::uint32_t p = 0; p < pages; ++p) {
      aspace_.map(base + p * sim::kPageSize, base + p * sim::kPageSize, flags);
    }
    // Identity frames must exist in DRAM; reserve them if still unused.
    return base;
  }

  void start(const sim::Program& program, sim::Privilege priv = sim::Privilege::kSupervisor) {
    machine_.cpu(0).load_program(program);
    machine_.cpu(0).switch_context(sim::kDomainNormal, priv, aspace_.root(), 1);
    machine_.cpu(0).set_pc(program.base);
  }

  sim::Machine machine_;
  sim::AddressSpace aspace_;
};

constexpr sim::VirtAddr kCode = 0x10000;
constexpr sim::Word kCodeFlags = sim::pte::kUser | sim::pte::kExecutable | sim::pte::kWritable;
constexpr sim::Word kDataFlags = sim::pte::kUser | sim::pte::kWritable;

TEST_F(CpuTest, AluAndBranchSemantics) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0)
      .li(sim::R2, 0)
      .label("loop")
      .addi(sim::R1, sim::R1, 3)
      .addi(sim::R2, sim::R2, 1)
      .li(sim::R3, 10)
      .br(sim::BranchCond::kLtu, sim::R2, sim::R3, "loop")
      .shli(sim::R4, sim::R1, 2)
      .xori(sim::R5, sim::R4, 0xFF)
      .halt();
  start(b.build());
  const auto result = machine_.cpu(0).run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R1), 30u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R4), 120u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R5), 120u ^ 0xFFu);
}

TEST_F(CpuTest, LoadStoreRoundTripAndByteOps) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr data = machine_.alloc_frame();
  aspace_.map(0x20000, data, kDataFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x20000)
      .li(sim::R2, 0xDEADBEEF)
      .sw(sim::R1, 0, sim::R2)
      .lw(sim::R3, sim::R1)
      .lb(sim::R4, sim::R1, 3)  // highest byte, little-endian.
      .li(sim::R5, 0x42)
      .sb(sim::R1, 5, sim::R5)
      .lb(sim::R6, sim::R1, 5)
      .halt();
  start(b.build());
  machine_.cpu(0).run();
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 0xDEADBEEFu);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R4), 0xDEu);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R6), 0x42u);
  EXPECT_EQ(machine_.memory().read32(data), 0xDEADBEEFu);
}

TEST_F(CpuTest, MisalignedWordLoadFaults) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x20001).lw(sim::R2, sim::R1).halt();
  start(b.build());
  const auto result = machine_.cpu(0).run();
  EXPECT_EQ(result.stop_fault, sim::Fault::kAlignment);
}

TEST_F(CpuTest, CallRetAndLinkRegister) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.call("fn").li(sim::R2, 7).halt().label("fn").li(sim::R1, 5).ret();
  start(b.build());
  machine_.cpu(0).run();
  EXPECT_EQ(machine_.cpu(0).reg(sim::R1), 5u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R2), 7u);
}

TEST_F(CpuTest, RdcycleIsMonotonic) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.rdcycle(sim::R1).nop().nop().rdcycle(sim::R2).halt();
  start(b.build());
  machine_.cpu(0).run();
  EXPECT_GT(machine_.cpu(0).reg(sim::R2), machine_.cpu(0).reg(sim::R1));
}

TEST_F(CpuTest, MispredictedBranchExecutesTransiently) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr probe = machine_.alloc_frame();
  aspace_.map(0x30000, probe, kDataFlags);

  // Branch is ALWAYS taken (skipping the probe load); the PHT starts at
  // weakly-not-taken, so the first execution mispredicts and the
  // fall-through runs transiently, heating the probe line.
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R3, sim::R2)  // transient only.
      .label("skip")
      .halt();
  start(b.build());
  machine_.caches().flush_all();
  machine_.cpu(0).run();

  EXPECT_GT(machine_.cpu(0).stats().branch_mispredicts, 0u);
  EXPECT_GT(machine_.cpu(0).stats().transient_executed, 0u);
  EXPECT_TRUE(machine_.caches().in_l1d(0, probe))
      << "the transient load's cache fill must persist (the Spectre channel)";
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 0u)
      << "architectural state must be squashed";
}

TEST_F(CpuTest, FenceStopsTransientWindow) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr probe = machine_.alloc_frame();
  aspace_.map(0x30000, probe, kDataFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .fence()
      .lw(sim::R3, sim::R2)
      .label("skip")
      .halt();
  start(b.build());
  machine_.caches().flush_all();
  machine_.cpu(0).run();
  EXPECT_FALSE(machine_.caches().in_l1d(0, probe))
      << "a fence on the mispredicted path must stop the transient loads";
}

TEST_F(CpuTest, SpeculationWindowBoundsTransientExecution) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.speculation_window = 8;
  sim::Machine machine(profile, 14);
  auto aspace = machine.create_address_space();
  aspace.map(kCode, kCode, kCodeFlags);
  const sim::PhysAddr early = machine.alloc_frame();
  const sim::PhysAddr late = machine.alloc_frame();
  aspace.map(0x30000, early, kDataFlags);
  aspace.map(0x31000, late, kDataFlags);

  // Mispredicted fall-through: a load within the window and one beyond it
  // (window = 8 transient instructions; the second load is number 10).
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .li(sim::R3, 0x31000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R4, sim::R2)  // transient #1: inside the window.
      .nop().nop().nop().nop().nop().nop().nop().nop()  // #2..#9.
      .lw(sim::R5, sim::R3)  // transient #10: beyond the window.
      .label("skip")
      .halt();
  machine.cpu(0).load_program(b.build());
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor,
                                aspace.root(), 1);
  machine.caches().flush_all();
  machine.cpu(0).run_from(kCode);
  EXPECT_TRUE(machine.caches().in_l1d(0, early)) << "inside the window: executed";
  EXPECT_FALSE(machine.caches().in_l1d(0, late)) << "beyond the window: squashed";
}

TEST_F(CpuTest, InOrderCoreHasNoTransientWindow) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.speculative_execution = false;
  sim::Machine machine(profile, 12);
  auto aspace = machine.create_address_space();
  for (std::uint32_t p = 0; p < 1; ++p) {
    aspace.map(kCode, kCode, kCodeFlags);
  }
  const sim::PhysAddr probe = machine.alloc_frame();
  aspace.map(0x30000, probe, kDataFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R3, sim::R2)
      .label("skip")
      .halt();
  machine.cpu(0).load_program(b.build());
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(), 1);
  machine.caches().flush_all();
  machine.cpu(0).run_from(kCode);
  EXPECT_EQ(machine.cpu(0).stats().transient_executed, 0u);
  EXPECT_FALSE(machine.caches().in_l1d(0, probe));
}

TEST_F(CpuTest, MeltdownForwardingHeatsProbeBeforeFault) {
  map_identity(kCode, 1, kCodeFlags);
  // Kernel page: present, NOT user-accessible, with a known byte.
  const sim::PhysAddr kernel = machine_.alloc_frame();
  aspace_.map(0x40000, kernel, sim::pte::kWritable);
  machine_.memory().write8(kernel, 0x5C);
  // Probe array: user page.
  const sim::PhysAddr probe = machine_.alloc_frames(8);  // covers 256*64 bytes... 4 pages needed
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace_.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }

  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x40000)
      .li(sim::R2, 0x50000)
      .lb(sim::R3, sim::R1)      // user reads kernel: faults.
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  start(b.build(), sim::Privilege::kUser);
  machine_.caches().flush_all();
  const auto result = machine_.cpu(0).run();

  EXPECT_EQ(result.stop_fault, sim::Fault::kProtection) << "the fault must still be raised";
  EXPECT_TRUE(machine_.caches().in_l1d(0, probe + 0x5Cu * 64))
      << "the dependent transient load must have heated probe[secret]";
}

TEST_F(CpuTest, MitigatedCoreForwardsNothing) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.meltdown_fault_forwarding = false;
  sim::Machine machine(profile, 13);
  auto aspace = machine.create_address_space();
  aspace.map(kCode, kCode, kCodeFlags);
  const sim::PhysAddr kernel = machine.alloc_frame();
  aspace.map(0x40000, kernel, sim::pte::kWritable);
  machine.memory().write8(kernel, 0x5C);
  const sim::PhysAddr probe = machine.alloc_frames(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x40000)
      .li(sim::R2, 0x50000)
      .lb(sim::R3, sim::R1)
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  machine.cpu(0).load_program(b.build());
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kUser, aspace.root(), 1);
  machine.caches().flush_all();
  machine.cpu(0).run_from(kCode);
  EXPECT_FALSE(machine.caches().in_l1d(0, probe + 0x5Cu * 64));
}

TEST_F(CpuTest, L1tfForwardsOnlyL1ResidentLines) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr secret_frame = machine_.alloc_frame();
  machine_.memory().write8(secret_frame, 0x7B);
  const sim::PhysAddr probe = machine_.alloc_frames(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace_.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }
  // Not-present mapping whose stale frame bits point at the secret.
  aspace_.map(0x60000, secret_frame, kDataFlags);
  aspace_.clear_present(0x60000);

  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x60000)
      .li(sim::R2, 0x50000)
      .lb(sim::R3, sim::R1)
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  const auto program = b.build();

  // Cold L1: terminal fault forwards nothing.
  start(program, sim::Privilege::kUser);
  machine_.caches().flush_all();
  machine_.cpu(0).run();
  EXPECT_FALSE(machine_.caches().in_l1d(0, probe + 0x7Bu * 64));

  // Hot L1: the same access now leaks the line's content.
  machine_.touch(0, 42, secret_frame);  // someone (an enclave) loads it.
  machine_.cpu(0).mmu().tlb().flush();
  machine_.cpu(0).set_pc(program.base);
  machine_.cpu(0).run();
  EXPECT_TRUE(machine_.caches().in_l1d(0, probe + 0x7Bu * 64))
      << "L1-resident data must be reachable through the terminal fault";
}

TEST_F(CpuTest, FaultHandlerSkipAndRedirect) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x40000)  // unmapped.
      .lw(sim::R2, sim::R1)
      .li(sim::R3, 1)
      .halt();
  start(b.build());
  int faults = 0;
  machine_.cpu(0).set_fault_handler([&faults](sim::Cpu&, const sim::FaultInfo& info) {
    ++faults;
    EXPECT_EQ(info.fault, sim::Fault::kPageNotPresent);
    return sim::FaultAction::kSkip;
  });
  const auto result = machine_.cpu(0).run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 1u) << "execution continues after kSkip";
}

// ---- pinned interpreter observations --------------------------------------
// Each scenario below runs on a freshly seeded machine, and its complete
// outcome (run result, registers, pc, cycle count, every stat counter, L1D
// hit/miss counts, hook traces, fault log) must match its entry in
// tests/golden/cpu_observed.json bit for bit. The file was recorded from
// the original per-step switch interpreter, so it holds the micro-op core
// to that interpreter's exact fault, cycle and stats ordering, including
// the MPU gates, ecalls and non-flat program layouts the switch
// interpreter alone used to run. There is deliberately no regeneration
// switch: a moved value is a semantic change to the simulator.

struct FaultSeen {
  sim::Fault fault = sim::Fault::kNone;
  sim::VirtAddr pc = 0;
  sim::VirtAddr addr = 0;
};

struct CpuObserved {
  sim::RunResult run;
  std::vector<sim::Word> regs;
  sim::VirtAddr pc = 0;
  sim::Cycle cycles = 0;
  sim::CpuStats stats;
  std::vector<sim::Word> leaks;
  std::vector<std::pair<sim::VirtAddr, sim::VirtAddr>> edges;
  std::vector<FaultSeen> faults;
  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;
};

std::string observed_json(const CpuObserved& o) {
  std::ostringstream s;
  const auto list = [&s](const auto& values) {
    s << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      s << (i == 0 ? "" : ",") << values[i];
    }
    s << "]";
  };
  s << "{\"halted\":" << (o.run.halted ? "true" : "false") << ",\"executed\":" << o.run.executed
    << ",\"stop_fault\":\"" << sim::to_string(o.run.stop_fault) << "\",\"pc\":" << o.pc
    << ",\"cycles\":" << o.cycles << ",\"regs\":";
  list(o.regs);
  const sim::CpuStats& st = o.stats;
  s << ",\"retired\":" << st.retired << ",\"transient_executed\":" << st.transient_executed
    << ",\"branch_mispredicts\":" << st.branch_mispredicts
    << ",\"indirect_mispredicts\":" << st.indirect_mispredicts
    << ",\"return_mispredicts\":" << st.return_mispredicts
    << ",\"faults_raised\":" << st.faults_raised
    << ",\"faults_suppressed\":" << st.faults_suppressed << ",\"loads\":" << st.loads
    << ",\"stores\":" << st.stores << ",\"l1_hits\":" << st.l1_hits
    << ",\"llc_hits\":" << st.llc_hits << ",\"dram_accesses\":" << st.dram_accesses
    << ",\"l1d_hits\":" << o.l1d_hits << ",\"l1d_misses\":" << o.l1d_misses << ",\"leaks\":";
  list(o.leaks);
  s << ",\"edges\":[";
  for (std::size_t i = 0; i < o.edges.size(); ++i) {
    s << (i == 0 ? "" : ",") << "[" << o.edges[i].first << "," << o.edges[i].second << "]";
  }
  s << "],\"faults\":[";
  for (std::size_t i = 0; i < o.faults.size(); ++i) {
    const FaultSeen& f = o.faults[i];
    s << (i == 0 ? "" : ",") << "[\"" << sim::to_string(f.fault) << "\"," << f.pc << ","
      << f.addr << "]";
  }
  s << "]}";
  return s.str();
}

/// Canonical text of a parsed value (numbers by their raw token), so two
/// documents compare member by member with readable failure messages.
std::string dump(const core::JsonValue& v) {
  switch (v.type) {
    case core::JsonValue::Type::kNull: return "null";
    case core::JsonValue::Type::kBool: return v.boolean ? "true" : "false";
    case core::JsonValue::Type::kNumber: return v.raw_number;
    case core::JsonValue::Type::kString: return "\"" + core::json_escape(v.string) + "\"";
    case core::JsonValue::Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += (i == 0 ? "" : ",") + dump(v.array[i]);
      }
      return out + "]";
    }
    case core::JsonValue::Type::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += (i == 0 ? "\"" : ",\"") + v.object[i].first + "\":" + dump(v.object[i].second);
      }
      return out + "}";
    }
  }
  return "?";
}

const core::JsonValue& cpu_golden() {
  static const core::JsonValue doc = [] {
    const std::string path = std::string(HWSEC_GOLDEN_DIR) + "/cpu_observed.json";
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    core::JsonValue parsed;
    std::string error;
    if (!core::parse_json(text.str(), parsed, &error)) {
      ADD_FAILURE() << "cannot parse " << path << ": " << error;
    }
    return parsed;
  }();
  return doc;
}

void expect_matches_golden(const std::string& name, const CpuObserved& observed) {
  const core::JsonValue* want = cpu_golden().find(name);
  ASSERT_NE(want, nullptr) << "tests/golden/cpu_observed.json has no entry " << name;
  core::JsonValue got;
  ASSERT_TRUE(core::parse_json(observed_json(observed), got));
  EXPECT_EQ(got.object.size(), want->object.size()) << name;
  for (const auto& [key, value] : got.object) {
    const core::JsonValue* pinned = want->find(key);
    ASSERT_NE(pinned, nullptr) << name << ": golden entry lacks " << key;
    EXPECT_EQ(dump(value), dump(*pinned)) << name << ": " << key;
  }
}

using Scenario = std::function<void(sim::Machine&, sim::AddressSpace&, CpuObserved&)>;

class BackendIdentityTest : public ::testing::Test {
 protected:
  /// Builds a fresh machine, hands it to `scenario` for setup (mapping,
  /// program, hooks), runs from `entry`, and captures everything an
  /// interpreter could get wrong. `hooked` additionally arms a leak hook
  /// and a control-flow hook, driving the Hooked=true template
  /// instantiation of the micro-op core.
  CpuObserved observe(bool hooked, sim::VirtAddr entry, const Scenario& scenario,
                      const sim::MachineProfile& profile = sim::MachineProfile::server(),
                      std::uint64_t max_instructions = 1'000'000) {
    sim::Machine machine(profile, 77);
    sim::AddressSpace aspace = machine.create_address_space();
    CpuObserved out;
    if (hooked) {
      machine.cpu(0).set_leak_hook([&out](sim::Word v) { out.leaks.push_back(v); });
      machine.cpu(0).set_control_flow_hook([&out](sim::VirtAddr from, sim::VirtAddr to) {
        out.edges.emplace_back(from, to);
      });
    }
    scenario(machine, aspace, out);
    machine.caches().flush_all();
    out.run = machine.cpu(0).run_from(entry, max_instructions);
    for (std::uint32_t r = 0; r < sim::kNumRegs; ++r) {
      out.regs.push_back(machine.cpu(0).reg(static_cast<sim::Reg>(r)));
    }
    out.pc = machine.cpu(0).pc();
    out.cycles = machine.cpu(0).cycles();
    out.stats = machine.cpu(0).stats();
    if (machine.caches().config().has_l1) {
      out.l1d_hits = machine.caches().l1d(0).stats().hits;
      out.l1d_misses = machine.caches().l1d(0).stats().misses;
    }
    return out;
  }

  /// Runs `scenario` unhooked and hooked; `name` + "/unhooked" or
  /// "/hooked" keys the golden entry.
  void expect_pinned(const std::string& name, sim::VirtAddr entry, const Scenario& scenario,
                     const sim::MachineProfile& profile = sim::MachineProfile::server(),
                     std::uint64_t max_instructions = 1'000'000) {
    for (const bool hooked : {false, true}) {
      expect_matches_golden(name + (hooked ? "/hooked" : "/unhooked"),
                            observe(hooked, entry, scenario, profile, max_instructions));
    }
  }
};

std::string action_name(sim::FaultAction action) {
  switch (action) {
    case sim::FaultAction::kHalt: return "halt";
    case sim::FaultAction::kSkip: return "skip";
    case sim::FaultAction::kRedirect: return "redirect";
  }
  return "?";
}

/// Logs every fault into `out` and answers `action`; kRedirect moves the
/// pc to `vector` first.
void install_fault_handler(sim::Machine& machine, sim::FaultAction action, sim::VirtAddr vector,
                           CpuObserved& out) {
  machine.cpu(0).set_fault_handler(
      [action, vector, &out](sim::Cpu& cpu, const sim::FaultInfo& info) {
        out.faults.push_back({info.fault, info.pc, info.addr});
        if (action == sim::FaultAction::kRedirect) {
          cpu.set_pc(vector);
        }
        return action;
      });
}

/// Exercises every opcode (and both branch outcomes, plus a shift amount
/// beyond 31 whose masking the decoder pre-applies).
sim::Program full_opcode_program() {
  sim::ProgramBuilder b(kCode);
  b.nop()
      .li(sim::R1, 0x20000)
      .li(sim::R2, 0xDEADBEEF)
      .sw(sim::R1, 0, sim::R2)
      .lw(sim::R3, sim::R1)
      .lb(sim::R4, sim::R1, 2)
      .li(sim::R5, 0x42)
      .sb(sim::R1, 5, sim::R5)
      .add(sim::R6, sim::R3, sim::R5)
      .sub(sim::R7, sim::R6, sim::R5)
      .and_(sim::R8, sim::R6, sim::R7)
      .or_(sim::R9, sim::R6, sim::R7)
      .xor_(sim::R10, sim::R6, sim::R7)
      .li(sim::R11, 3)
      .shl(sim::R12, sim::R9, sim::R11)
      .shr(sim::R13, sim::R9, sim::R11)
      .mul(sim::R14, sim::R11, sim::R11)
      .addi(sim::R14, sim::R14, 7)
      .andi(sim::R14, sim::R14, 0xFF)
      .xori(sim::R14, sim::R14, 0x0F)
      .shli(sim::R15, sim::R14, 33)  // decoder pre-masks to 1.
      .shri(sim::R15, sim::R15, 1)
      .br(sim::BranchCond::kEq, sim::R1, sim::R1, "taken")
      .li(sim::R4, 0xBAD)  // skipped.
      .label("taken")
      .br(sim::BranchCond::kNe, sim::R1, sim::R1, "nottaken")
      .li(sim::R5, 0x111)  // falls through.
      .label("nottaken")
      .br(sim::BranchCond::kLt, sim::R0, sim::R11, "lt")
      .label("lt")
      .br(sim::BranchCond::kGe, sim::R11, sim::R0, "ge")
      .label("ge")
      .br(sim::BranchCond::kLtu, sim::R0, sim::R11, "ltu")
      .label("ltu")
      .br(sim::BranchCond::kGeu, sim::R11, sim::R0, "geu")
      .label("geu")
      .jump("jmp")
      .li(sim::R6, 0xBAD)
      .label("jmp")
      .call("fn")
      .li(sim::R7, 0x222)
      .clflush(sim::R1)
      .fence()
      .rdcycle(sim::R8)
      .ecall(0x31)
      .li(sim::R9, 0x333)
      .halt()
      .label("fn")
      .li(sim::R10, 0x444)
      .ret();
  return b.build();
}

TEST_F(BackendIdentityTest, FullOpcodeSetMatchesSwitch) {
  expect_pinned("full_opcode", kCode, [](sim::Machine& machine, sim::AddressSpace& aspace,
                                         CpuObserved&) {
    aspace.map(kCode, kCode, kCodeFlags);
    const sim::PhysAddr data = machine.alloc_frame();
    aspace.map(0x20000, data, kDataFlags);
    machine.cpu(0).set_ecall_handler([](sim::Cpu& cpu, sim::Word service) {
      cpu.set_reg(sim::R11, service + cpu.reg(sim::R5));
    });
    machine.cpu(0).load_program(full_opcode_program());
    machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(),
                                  1);
  });
}

TEST_F(BackendIdentityTest, IndirectJumpCallAndMispredictsMatchSwitch) {
  expect_pinned("indirect_mispredicts", kCode, [](sim::Machine& machine,
                                                  sim::AddressSpace& aspace, CpuObserved&) {
    aspace.map(kCode, kCode, kCodeFlags);
    sim::ProgramBuilder b(kCode);
    // jr/callr/ret all mispredict on first sight (cold BTB/RSB), covering
    // the indirect transient windows. The jr/callr targets are fixed
    // addresses, so the blocks are padded to known offsets with nops.
    b.li(sim::R1, 0).label("loop").li(sim::R2, kCode + 0x40).jr(sim::R2);
    for (int i = 0; i < 13; ++i) {
      b.nop();  // land at instruction 16 = kCode + 0x40.
    }
    b.label("land")
        .li(sim::R3, kCode + 0x60)
        .callr(sim::R3)
        .addi(sim::R1, sim::R1, 1)
        .li(sim::R4, 3)
        .br(sim::BranchCond::kLtu, sim::R1, sim::R4, "loop")
        .halt();
    b.nop().nop();  // fn at instruction 24 = kCode + 0x60.
    b.label("fn").addi(sim::R5, sim::R5, 1).ret();
    machine.cpu(0).load_program(b.build());
    machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(),
                                  1);
  });
}

TEST_F(BackendIdentityTest, FaultSkipRedirectAndHaltMatchSwitch) {
  for (const sim::FaultAction action :
       {sim::FaultAction::kSkip, sim::FaultAction::kRedirect, sim::FaultAction::kHalt}) {
    expect_pinned("data_faults/" + action_name(action), kCode,
                  [action](sim::Machine& machine, sim::AddressSpace& aspace, CpuObserved& out) {
                    aspace.map(kCode, kCode, kCodeFlags);
                    sim::ProgramBuilder b(kCode);
                    b.li(sim::R1, 0x40000)  // unmapped: every load below faults.
                        .lw(sim::R2, sim::R1)
                        .li(sim::R3, 1)
                        .lb(sim::R4, sim::R1)
                        .li(sim::R5, 2)
                        .halt()
                        .label("vector")
                        .li(sim::R6, 0xEC)
                        .halt();
                    const sim::Program program = b.build();
                    install_fault_handler(machine, action, program.address_of("vector"), out);
                    machine.cpu(0).load_program(program);
                    machine.cpu(0).switch_context(sim::kDomainNormal,
                                                  sim::Privilege::kSupervisor, aspace.root(), 1);
                  });
  }
}

TEST_F(BackendIdentityTest, TransientWindowAndMeltdownForwardingMatchSwitch) {
  expect_pinned("transient", kCode, [](sim::Machine& machine, sim::AddressSpace& aspace,
                                       CpuObserved&) {
    aspace.map(kCode, kCode, kCodeFlags);
    const sim::PhysAddr kernel = machine.alloc_frame();
    aspace.map(0x40000, kernel, sim::pte::kWritable);  // supervisor-only.
    machine.memory().write8(kernel, 0x5C);
    const sim::PhysAddr probe = machine.alloc_frames(4);
    for (std::uint32_t p = 0; p < 4; ++p) {
      aspace.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
    }
    sim::ProgramBuilder b(kCode);
    // A mispredicted branch with transient loads, then a Meltdown
    // forwarding sequence: both transient paths in one scenario.
    b.li(sim::R1, 1)
        .li(sim::R2, 0x50000)
        .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
        .lw(sim::R3, sim::R2)  // transient only.
        .label("skip")
        .li(sim::R1, 0x40000)
        .lb(sim::R3, sim::R1)  // user reads kernel: faults + forwards.
        .shli(sim::R3, sim::R3, 6)
        .add(sim::R3, sim::R2, sim::R3)
        .lb(sim::R4, sim::R3)
        .halt();
    machine.cpu(0).load_program(b.build());
    machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kUser, aspace.root(), 1);
  });
}

// Embedded-profile MPU layout (bare physical addressing): a trusted module
// whose code region admits entry only at its first instruction and whose
// data region is code-gated to that code, plus a non-executable, a
// read-only and a write-only region.
constexpr sim::PhysAddr kTmCode = 0x20000;
constexpr sim::PhysAddr kTmData = 0x30000;
constexpr sim::PhysAddr kNoExec = 0x40000;
constexpr sim::PhysAddr kReadOnly = 0x50000;
constexpr sim::PhysAddr kWriteOnly = 0x60000;

/// Installs the MPU layout, the trusted module, the non-executable stub,
/// `main` (at kCode, ending in a "vector" label) and the fault handler.
void setup_mpu_machine(sim::Machine& machine, sim::ProgramBuilder& main, sim::FaultAction action,
                       CpuObserved& out) {
  sim::Mpu& mpu = machine.mpu();
  mpu.add_region({.name = "tm_code", .start = kTmCode, .end = kTmCode + 0x10, .writable = false,
                  .entry_points = {kTmCode}});
  mpu.add_region({.name = "tm_data", .start = kTmData, .end = kTmData + 0x100,
                  .executable = false, .code_gate_start = kTmCode,
                  .code_gate_end = kTmCode + 0x10});
  mpu.add_region({.name = "nx", .start = kNoExec, .end = kNoExec + 4, .executable = false});
  mpu.add_region({.name = "ro", .start = kReadOnly, .end = kReadOnly + 0x100, .writable = false,
                  .executable = false});
  mpu.add_region({.name = "wo", .start = kWriteOnly, .end = kWriteOnly + 0x100,
                  .readable = false, .executable = false});
  machine.memory().write32(kTmData, 0x5EC12E75);
  machine.memory().write32(kReadOnly, 0xAB0D);

  sim::ProgramBuilder tm(kTmCode);
  tm.lw(sim::R6, sim::R4)       // gated read, allowed from inside the module.
      .sw(sim::R4, 4, sim::R6)  // gated write, allowed from inside the module.
      .ret()
      .nop()   // kTmCode + 0xC: a mid-module entry the MPU vetoes.
      .ret();  // kTmCode + 0x10: outside the region; kSkip lands here.
  machine.cpu(0).load_program(tm.build());
  sim::ProgramBuilder nx(kNoExec);
  nx.nop()     // inside "nx": the fetch faults.
      .ret();  // kNoExec + 4: where kSkip of that fault lands.
  machine.cpu(0).load_program(nx.build());

  main.halt().label("vector").li(sim::R12, 0xEC).halt();
  const sim::Program program = main.build();
  install_fault_handler(machine, action, program.address_of("vector"), out);
  machine.cpu(0).load_program(program);
}

constexpr sim::FaultAction kAllActions[] = {sim::FaultAction::kSkip,
                                            sim::FaultAction::kRedirect,
                                            sim::FaultAction::kHalt};

TEST_F(BackendIdentityTest, MpuExecuteGateAndEntryPointMatchSwitch) {
  for (const sim::FaultAction action : kAllActions) {
    expect_pinned(
        "mpu_execute/" + action_name(action), kCode,
        [action](sim::Machine& machine, sim::AddressSpace&, CpuObserved& out) {
          sim::ProgramBuilder main(kCode);
          main.li(sim::R4, kTmData)
              .li(sim::R2, kTmCode + 0xC)
              .callr(sim::R2)  // entry-point violation.
              .call_abs(kTmCode)  // legal entry: gated read and write.
              .li(sim::R3, kNoExec)
              .callr(sim::R3)  // execute-permission violation.
              .addi(sim::R7, sim::R6, 1);
          setup_mpu_machine(machine, main, action, out);
        },
        sim::MachineProfile::embedded());
  }
}

TEST_F(BackendIdentityTest, MpuDataReadGateMatchesSwitch) {
  for (const sim::FaultAction action : kAllActions) {
    expect_pinned(
        "mpu_read/" + action_name(action), kCode,
        [action](sim::Machine& machine, sim::AddressSpace&, CpuObserved& out) {
          sim::ProgramBuilder main(kCode);
          main.li(sim::R4, kTmData)
              .lw(sim::R5, sim::R4)     // code-gate violation.
              .lb(sim::R5, sim::R4, 1)  // byte code-gate violation.
              .li(sim::R3, kWriteOnly)
              .lw(sim::R7, sim::R3)  // read of a write-only region.
              .call_abs(kTmCode)
              .li(sim::R3, kReadOnly)
              .lw(sim::R8, sim::R3);
          setup_mpu_machine(machine, main, action, out);
        },
        sim::MachineProfile::embedded());
  }
}

TEST_F(BackendIdentityTest, MpuDataWriteGateMatchesSwitch) {
  for (const sim::FaultAction action : kAllActions) {
    expect_pinned(
        "mpu_write/" + action_name(action), kCode,
        [action](sim::Machine& machine, sim::AddressSpace&, CpuObserved& out) {
          sim::ProgramBuilder main(kCode);
          main.li(sim::R4, kTmData)
              .li(sim::R5, 0x77)
              .sw(sim::R4, 0, sim::R5)  // code-gate violation.
              .sb(sim::R4, 2, sim::R5)  // byte code-gate violation.
              .li(sim::R3, kReadOnly)
              .sw(sim::R3, 0, sim::R5)  // write to a read-only region.
              .li(sim::R3, kWriteOnly)
              .sw(sim::R3, 0, sim::R5)
              .call_abs(kTmCode);
          setup_mpu_machine(machine, main, action, out);
        },
        sim::MachineProfile::embedded());
  }
}

TEST_F(BackendIdentityTest, SpreadOutAndMisalignedProgramsMatchSwitch) {
  // Three programs: one at kCode, one 8 MiB above it (wider than the flat
  // fetch table spans) and one at a misaligned base. Either alone forces
  // the load-order scan. The run ends on a jump into an executable page
  // that holds no program, which redirects to the vector.
  constexpr sim::VirtAddr kFar = kCode + 0x800000;
  constexpr sim::VirtAddr kOdd = 0x30002;
  constexpr sim::VirtAddr kEmpty = 0x60000;
  expect_pinned("layout", kCode, [](sim::Machine& machine, sim::AddressSpace& aspace,
                                    CpuObserved& out) {
    aspace.map(kCode, kCode, kCodeFlags);
    aspace.map(kFar, machine.alloc_frame(), kCodeFlags);
    aspace.map(kOdd & ~(sim::kPageSize - 1), machine.alloc_frame(), kCodeFlags);
    aspace.map(kEmpty, machine.alloc_frame(), kCodeFlags);
    aspace.map(0x20000, machine.alloc_frame(), kDataFlags);
    sim::ProgramBuilder a(kCode);
    a.li(sim::R1, 5)
        .call_abs(kFar)
        .li(sim::R2, kOdd)
        .callr(sim::R2)
        .li(sim::R3, kEmpty)
        .jr(sim::R3)  // fetch succeeds, no instruction: bus error.
        .halt()
        .label("vector")
        .li(sim::R12, 0xEC)
        .halt();
    sim::ProgramBuilder far(kFar);
    far.addi(sim::R1, sim::R1, 1).ecall(0x12).ret();
    sim::ProgramBuilder odd(kOdd);
    odd.li(sim::R6, 0x20000).sw(sim::R6, 0, sim::R1).lw(sim::R5, sim::R6).ret();
    const sim::Program main = a.build();
    install_fault_handler(machine, sim::FaultAction::kRedirect, main.address_of("vector"), out);
    machine.cpu(0).set_ecall_handler([](sim::Cpu& cpu, sim::Word service) {
      cpu.set_reg(sim::R11, service + cpu.reg(sim::R1));
    });
    machine.cpu(0).load_program(main);
    machine.cpu(0).load_program(far.build());
    machine.cpu(0).load_program(odd.build());
    machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(),
                                  1);
  });
}

TEST_F(BackendIdentityTest, UnresolvedPcAndUnhandledEcallMatchSwitch) {
  // A jump into an executable page with no program raises kBusError only
  // after the full fetch; under kSkip it keeps faulting until the budget.
  for (const sim::FaultAction action : kAllActions) {
    expect_pinned(
        "unresolved_pc/" + action_name(action), kCode,
        [action](sim::Machine& machine, sim::AddressSpace& aspace, CpuObserved& out) {
          aspace.map(kCode, kCode, kCodeFlags);
          aspace.map(0x60000, machine.alloc_frame(), kCodeFlags);
          sim::ProgramBuilder b(kCode);
          b.li(sim::R1, 1)
              .li(sim::R3, 0x60000)
              .jr(sim::R3)
              .halt()
              .label("vector")
              .li(sim::R12, 0xEC)
              .halt();
          const sim::Program program = b.build();
          install_fault_handler(machine, action, program.address_of("vector"), out);
          machine.cpu(0).load_program(program);
          machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor,
                                        aspace.root(), 1);
        },
        sim::MachineProfile::server(), 64);
  }
  // An ecall with no handler installed halts the run, pc past the ecall.
  const auto ecall_halt = [](sim::Machine& machine, sim::AddressSpace& aspace, CpuObserved&) {
    sim::ProgramBuilder b(kCode);
    b.li(sim::R1, 1).ecall(5).li(sim::R2, 2).halt();
    machine.cpu(0).load_program(b.build());
    if (machine.profile().has_mmu) {
      aspace.map(kCode, kCode, kCodeFlags);
      machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor,
                                    aspace.root(), 1);
    }
  };
  expect_pinned("ecall_halt/server", kCode, ecall_halt);
  expect_pinned("ecall_halt/embedded", kCode, ecall_halt, sim::MachineProfile::embedded());
}

TEST_F(CpuTest, EcallInvokesHandlerAndResumesAfter) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 5).ecall(0x77).li(sim::R2, 9).halt();
  start(b.build());
  sim::Word seen_service = 0;
  machine_.cpu(0).set_ecall_handler([&seen_service](sim::Cpu& cpu, sim::Word service) {
    seen_service = service;
    cpu.set_reg(sim::R3, cpu.reg(sim::R1) + 1);
  });
  machine_.cpu(0).run();
  EXPECT_EQ(seen_service, 0x77u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 6u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R2), 9u);
}

}  // namespace
