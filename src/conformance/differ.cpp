#include "conformance/differ.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "conformance/reference.h"
#include "core/obs/metrics.h"
#include "crypto/sha256.h"

namespace hwsec::conformance {

namespace sim = hwsec::sim;

namespace {

constexpr std::size_t kMaxMismatches = 12;
constexpr sim::Word kProbeSentinel = 0x51E11u;
/// Pooled trials whose seed is a multiple of this sweep all of DRAM, to
/// catch stale pool state that a missed dirty bit would leave behind.
constexpr std::uint64_t kPooledSweepEvery = 16;

const obs::Counter& diff_pages_counter() {
  static const obs::Counter c = obs::counter("conformance_diff_pages");
  return c;
}

const obs::Counter& full_sweeps_counter() {
  static const obs::Counter c = obs::counter("conformance_full_sweeps");
  return c;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

bool has_secret_prefix(sim::Word w) { return (w & 0xFFFF0000u) == 0xA5EC0000u; }

void note(TrialVerdict& v, std::string msg) {
  v.diverged = true;
  if (v.mismatches.size() < kMaxMismatches) {
    v.mismatches.push_back(std::move(msg));
  }
}

void note_invariant(TrialVerdict& v, std::string msg) {
  v.invariant_violated = true;
  if (v.mismatches.size() < kMaxMismatches) {
    v.mismatches.push_back(std::move(msg));
  }
}

sim::Program halt_stub_program(const EnvSpec& spec) {
  sim::Program p;
  p.base = spec.halt_stub;
  p.code.push_back(sim::Instruction{.op = sim::Opcode::kHalt});
  return p;
}

std::uint32_t read32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

// The measured-region helpers below read DRAM through `page_of(p)`: a
// pointer to page p's bytes in the machine's DRAM, the oracle's view or
// the baseline image.

/// SHA-256 over the measured region as the attestation engine would see it:
/// word-wise, after undoing the MEE transform.
template <typename PageOf>
std::array<std::uint8_t, 32> measure_region(const EnvSpec& spec, PageOf&& page_of) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(spec.measured_end - spec.measured_start);
  for (sim::PhysAddr a = spec.measured_start; a < spec.measured_end; a += 4) {
    sim::Word w = read32_le(page_of(a >> sim::kPageShift) + (a & sim::kPageOffsetMask));
    if (spec.in_mee(a)) {
      w = mee_word(a, w);
    }
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  }
  return crypto::Sha256::hash(bytes);
}

ArchContext build_arch_context(FuzzArch arch) {
  ArchContext ctx;
  ctx.spec = make_env_spec(arch);
  ctx.profile = fuzz_machine_profile(arch);
  // The baseline DRAM image is seed-independent: a Machine's seed feeds
  // only its RNG and glitch injector, and install_env writes the same
  // bytes for every trial of an arch.
  sim::Machine machine(ctx.profile, /*seed=*/1);
  MachineRunLog log;
  ctx.secret_frame = install_env(machine, ctx.spec, log);
  ctx.baseline = machine.memory().snapshot();
  ctx.baseline_measurement =
      measure_region(ctx.spec, [&](std::uint32_t p) { return ctx.baseline.page(p).data(); });
  return ctx;
}

/// Notes the first divergent word of one page, if any. Pages that are the
/// same object (both sides still the shared zero page) need no compare.
void diff_page(TrialVerdict& v, std::uint32_t page, const std::uint8_t* mp,
               const std::uint8_t* op) {
  if (mp == op || std::memcmp(mp, op, sim::kPageSize) == 0) {
    return;
  }
  for (std::uint32_t off = 0; off < sim::kPageSize; off += 4) {
    const sim::Word mw = read32_le(mp + off);
    const sim::Word ow = read32_le(op + off);
    if (mw != ow) {
      const sim::PhysAddr addr = page * sim::kPageSize + off;
      note(v, "memory at " + hex(addr) + ": machine=" + hex(mw) + " oracle=" + hex(ow));
      if (has_secret_prefix(mw)) {
        v.secret_leak = true;
      }
      return;  // first divergent word per page is enough detail.
    }
  }
}

/// True when the measured region reads the same through `page_of` as in
/// the baseline, compared page by page. A page that is the baseline page
/// itself (an oracle page outside the overlay, or the shared zero page on
/// either side) needs no compare.
template <typename PageOf>
bool region_is_baseline(const ArchContext& arch, PageOf&& page_of) {
  const EnvSpec& spec = arch.spec;
  for (sim::PhysAddr lo = spec.measured_start; lo < spec.measured_end;) {
    const std::uint32_t p = lo >> sim::kPageShift;
    const sim::PhysAddr hi = std::min(spec.measured_end, (p + 1) * sim::kPageSize);
    const std::uint32_t off = lo & sim::kPageOffsetMask;
    const std::uint8_t* have = page_of(p);
    const std::uint8_t* want = arch.baseline.page(p).data();
    if (have != want && std::memcmp(have + off, want + off, hi - lo) != 0) {
      return false;
    }
    lo = hi;
  }
  return true;
}

void diff_faults(TrialVerdict& v, const std::vector<FaultRecord>& machine,
                 const std::vector<FaultRecord>& oracle) {
  if (machine == oracle) {
    return;
  }
  std::string msg = "fault log differs: machine has " + std::to_string(machine.size()) +
                    " records, oracle " + std::to_string(oracle.size());
  const std::size_t n = std::min(machine.size(), oracle.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(machine[i] == oracle[i])) {
      msg += "; first divergent record #" + std::to_string(i) + ": machine {" +
             sim::to_string(machine[i].fault) + " pc=" + hex(machine[i].pc) +
             " addr=" + hex(machine[i].addr) + " " + sim::to_string(machine[i].type) +
             "} oracle {" + sim::to_string(oracle[i].fault) + " pc=" + hex(oracle[i].pc) +
             " addr=" + hex(oracle[i].addr) + " " + sim::to_string(oracle[i].type) + "}";
      break;
    }
  }
  note(v, std::move(msg));
}

/// Directed deny-is-fault probe: from the normal context, a load of the
/// enclave-owned secret page must fault — and must not succeed with a
/// zeroed (or any) value. Runs after the diff, so the extra faults and
/// register writes it produces perturb nothing that is still compared.
void probe_secret_denial(TrialVerdict& v, const EnvSpec& spec, sim::Machine& machine,
                         MachineRunLog& log) {
  sim::Cpu& cpu = machine.cpu(0);
  cpu.switch_context(spec.normal.domain, spec.normal.priv, spec.page_root, spec.normal.asid);
  const std::size_t faults_before = log.faults.size();

  sim::Program probe;
  probe.base = spec.halt_stub + 16;  // inside the executable halt-stub page.
  probe.code = {
      sim::Instruction{.op = sim::Opcode::kLoadImm, .rd = sim::R11,
                       .imm = static_cast<std::int64_t>(spec.secret_base)},
      sim::Instruction{.op = sim::Opcode::kLoadImm, .rd = sim::R12, .imm = kProbeSentinel},
      sim::Instruction{.op = sim::Opcode::kLoad, .rd = sim::R12, .rs1 = sim::R11},
      sim::Instruction{.op = sim::Opcode::kHalt},
  };
  cpu.load_program(probe);
  cpu.run_from(probe.base, 16);

  const bool faulted = log.faults.size() > faults_before;
  const sim::Word got = cpu.reg(sim::R12);
  if (!faulted) {
    if (got == 0) {
      note_invariant(v, "secret-page deny is silent zero: probe load from " +
                            hex(spec.secret_base) + " succeeded with value 0");
    } else {
      note_invariant(v, "cross-domain read of enclave-owned page allowed: probe load from " +
                            hex(spec.secret_base) + " returned " + hex(got));
    }
    if (has_secret_prefix(got)) {
      v.secret_leak = true;
    }
  } else if (got != kProbeSentinel) {
    note_invariant(v, "secret-page probe faulted but still produced a value: " + hex(got));
    if (has_secret_prefix(got)) {
      v.secret_leak = true;
    }
  }
}

}  // namespace

const ArchContext& arch_context(FuzzArch arch) {
  static const std::array<ArchContext, std::size(kAllFuzzArchs)> contexts = [] {
    std::array<ArchContext, std::size(kAllFuzzArchs)> all{};
    for (std::size_t i = 0; i < std::size(kAllFuzzArchs); ++i) {
      all[i] = build_arch_context(kAllFuzzArchs[i]);
    }
    return all;
  }();
  return contexts[static_cast<std::size_t>(arch)];
}

TrialVerdict run_case(const ArchContext& arch, const GeneratedCase& test, std::uint64_t seed,
                      core::MachinePool* pool, MachineVariant variant, BugInjection inject) {
  const EnvSpec& spec = arch.spec;
  TrialVerdict v;
  v.arch = spec.arch;
  v.seed = seed;

  // Oracle run against the shared immutable baseline.
  ReferenceInterpreter ref(spec, arch.baseline,
                           {halt_stub_program(spec), test.normal, test.enclave});
  const ReferenceResult oracle = ref.run(spec.code_base, kTrialBudget);

  // Machine run. Pooled machines are bit-identical to fresh construction;
  // the fuzzer runs both variants to keep that claim under test.
  core::MachineLease lease = core::acquire_machine(
      variant == MachineVariant::kFresh ? nullptr : pool, arch.profile, seed);
  sim::Machine& machine = *lease;
  MachineRunLog log;
  install_env(machine, spec, log, inject);
  sim::Cpu& cpu = machine.cpu(0);
  cpu.load_program(test.normal);
  cpu.load_program(test.enclave);
  const sim::RunResult run = cpu.run_from(spec.code_base, kTrialBudget);

  // ---- architectural diff ----------------------------------------------
  for (std::uint32_t r = 1; r < sim::kNumRegs; ++r) {
    const sim::Word mv = cpu.reg(static_cast<sim::Reg>(r));
    const sim::Word ov = oracle.regs[r];
    if (mv != ov) {
      std::string msg = "r";
      msg += std::to_string(r);
      msg += ": machine=" + hex(mv) + " oracle=" + hex(ov);
      note(v, std::move(msg));
      if (has_secret_prefix(mv)) {
        v.secret_leak = true;
      }
    }
  }
  if (cpu.pc() != oracle.pc) {
    note(v, "pc: machine=" + hex(cpu.pc()) + " oracle=" + hex(oracle.pc));
  }
  if (run.halted != oracle.halted) {
    std::string msg = "halted: machine=";
    msg += run.halted ? "yes" : "no";
    msg += " oracle=";
    msg += oracle.halted ? "yes" : "no";
    note(v, std::move(msg));
  }
  if (run.executed != oracle.executed) {
    note(v, "executed: machine=" + std::to_string(run.executed) + " oracle=" +
                std::to_string(oracle.executed));
  }
  if (cpu.domain() != oracle.final_domain) {
    note(v, "final domain: machine=" + std::to_string(cpu.domain()) + " oracle=" +
                std::to_string(oracle.final_domain));
  }
  if (cpu.privilege() != oracle.final_priv) {
    note(v, "final privilege: machine=" + sim::to_string(cpu.privilege()) + " oracle=" +
                sim::to_string(oracle.final_priv));
  }
  if (log.leak_hash != oracle.leak_hash) {
    note(v, "leak-trace hash: machine=" + hex(log.leak_hash) + " oracle=" +
                hex(oracle.leak_hash));
  }
  diff_faults(v, log.faults, oracle.faults);

  // ---- memory diff: DRAM pages vs baseline-or-overlay --------------------
  const sim::PhysicalMemory& mem = machine.memory();
  const ShadowMemory& omem = ref.memory();
  const auto machine_page = [&](std::uint32_t p) { return mem.page(p).data(); };
  const auto oracle_page = [&](std::uint32_t p) { return omem.page(p).data(); };
  const std::uint32_t pages = mem.page_count();
  std::vector<std::uint64_t> compare((pages + 63) / 64, ~0ull);  // full sweep.
  const bool full_sweep = variant != MachineVariant::kPooled || !mem.dirty_tracked() ||
                          seed % kPooledSweepEvery == 0;
  if (full_sweep) {
    full_sweeps_counter().add(1);
  } else {
    // A page outside both sets holds the pool's pristine bytes on the
    // machine and the baseline on the oracle, and those are equal: machine
    // construction depends only on the profile, and install_env re-dirties
    // its whole footprint every trial.
    const std::span<const std::uint64_t> dirty = mem.dirty_bitmap();
    std::copy(dirty.begin(), dirty.end(), compare.begin());
    for (const auto& entry : omem.overlay()) {
      compare[entry.first >> 6] |= 1ull << (entry.first & 63);
    }
  }
  std::uint64_t compared = 0;
  for (std::uint32_t word = 0; word < compare.size(); ++word) {
    for (std::uint64_t bits = compare[word]; bits != 0; bits &= bits - 1) {
      const std::uint32_t p = word * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      if (p >= pages) {
        break;
      }
      ++compared;
      diff_page(v, p, machine_page(p), oracle_page(p));
    }
  }
  diff_pages_counter().add(compared);

  // ---- attestation-measurement invariant --------------------------------
  // A region still byte-equal to the baseline on both sides measures to
  // baseline_measurement on both, so neither check can fire; hash only
  // when something in it changed.
  if (!region_is_baseline(arch, machine_page) || !region_is_baseline(arch, oracle_page)) {
    const auto machine_meas = measure_region(spec, machine_page);
    const auto oracle_meas = measure_region(spec, oracle_page);
    if (machine_meas != oracle_meas) {
      note_invariant(v, "attestation measurement diverged between machine and oracle");
    }
    if (!oracle.enclave_wrote_measured && machine_meas != arch.baseline_measurement) {
      note_invariant(v, "attestation measurement moved without an enclave write");
    }
  }

  // ---- deny-is-fault invariant ------------------------------------------
  probe_secret_denial(v, spec, machine, log);

  return v;
}

TrialVerdict run_trial(FuzzArch arch, std::uint64_t seed, core::MachinePool* pool,
                       MachineVariant variant, BugInjection inject) {
  const ArchContext& ctx = arch_context(arch);
  return run_case(ctx, generate_case(ctx.spec, seed), seed, pool, variant, inject);
}

}  // namespace hwsec::conformance
