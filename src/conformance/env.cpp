#include "conformance/env.h"

#include <array>
#include <bit>
#include <stdexcept>

#include "sim/page_table.h"

namespace hwsec::conformance {

namespace sim = hwsec::sim;

namespace {

// Security domains, mirroring src/arch/domains.h without depending on the
// arch layer (conformance sits between sim and arch in the build).
constexpr sim::DomainId kNormalDomain = 0;
constexpr sim::DomainId kSecureWorldDomain = 1;
constexpr sim::DomainId kEnclaveDomain = 16;

// Fixed ASIDs for the two contexts. Distinct per domain so the ASID-tagged
// TLBs of the server/mobile profiles can never serve one domain's
// walk-check-approved translation to the other.
constexpr sim::Asid kNormalAsid = 10;
constexpr sim::Asid kEnclaveAsid = 20;

// What BugInjection::kDropDirtyBit stores behind the dirty bitmap's back.
constexpr sim::Word kDroppedDirtyWord = 0xD1D7'B175u;

// Virtual layout for the MMU profiles. Everything lives in one 4 MiB L1
// region (one L2 table); kUnmappedLeaf has an L2 slot whose PTE is zero,
// kUnmappedL1 has no L1 entry at all — the two distinct not-present walks.
constexpr sim::VirtAddr kCodeBase = 0x0040'0000;
constexpr sim::VirtAddr kHaltStubBase = 0x0040'1000;
constexpr sim::VirtAddr kEnclaveCodeBase = 0x0040'2000;
constexpr sim::VirtAddr kDataBase = 0x0041'0000;  // 2 pages.
constexpr sim::VirtAddr kRoDataBase = 0x0041'2000;
constexpr sim::VirtAddr kSupervisorBase = 0x0041'3000;
constexpr sim::VirtAddr kNotPresentBase = 0x0041'4000;
constexpr sim::VirtAddr kSecretBase = 0x0041'5000;
constexpr sim::VirtAddr kUnmappedLeaf = 0x0070'0000;
constexpr sim::VirtAddr kUnmappedL1 = 0x0090'0000;

// Physical layout for the bare (embedded) profiles: VA == PA, 1 MiB DRAM.
constexpr sim::PhysAddr kBareCode = 0x0002'0000;
constexpr sim::PhysAddr kBareHaltStub = 0x0002'1000;
constexpr sim::PhysAddr kBareTrustlet = 0x0002'2000;
constexpr sim::PhysAddr kBareData = 0x0003'0000;  // 2 pages.
constexpr sim::PhysAddr kBareRoData = 0x0003'2000;
constexpr sim::PhysAddr kBareSecret = 0x0003'3000;
constexpr sim::PhysAddr kBareStorage = 0x0003'4000;  // TyTAN secure storage.
constexpr sim::PhysAddr kBareUncovered = 0x0008'0000;
constexpr sim::PhysAddr kBareOutOfDram = 0x0018'0000;  // > 1 MiB: bus error.

bool is_embedded(FuzzArch a) {
  return a == FuzzArch::kSmart || a == FuzzArch::kSancus || a == FuzzArch::kTrustLite ||
         a == FuzzArch::kTyTan;
}

}  // namespace

sim::Word pattern_word(sim::PhysAddr addr, sim::Word tag) { return tag | (addr & 0x00FF'FFFFu); }

void fill_pattern(sim::PhysicalMemory& mem, sim::PhysAddr base, std::uint32_t pages,
                  sim::Word tag) {
  // One write_block per page: one bounds check and one dirty-bit update
  // instead of 1024 out-of-line word stores that each mark the page. The
  // page is built as host words, a loop the compiler vectorizes plainly;
  // DRAM is little-endian, so a big-endian host swaps each word first.
  std::array<sim::Word, sim::kPageSize / 4> words;
  for (std::uint32_t p = 0; p < pages; ++p) {
    const sim::PhysAddr page_base = base + p * sim::kPageSize;
    for (std::uint32_t i = 0; i < words.size(); ++i) {
      words[i] = pattern_word(page_base + 4 * i, tag);
    }
    if constexpr (std::endian::native == std::endian::big) {
      for (sim::Word& w : words) {
        w = (w >> 24) | ((w >> 8) & 0xFF00u) | ((w << 8) & 0xFF'0000u) | (w << 24);
      }
    }
    mem.write_block(page_base,
                    {reinterpret_cast<const std::uint8_t*>(words.data()), sim::kPageSize});
  }
}

std::string to_string(FuzzArch a) {
  switch (a) {
    case FuzzArch::kSgx: return "sgx";
    case FuzzArch::kSanctum: return "sanctum";
    case FuzzArch::kTrustZone: return "trustzone";
    case FuzzArch::kSanctuary: return "sanctuary";
    case FuzzArch::kSmart: return "smart";
    case FuzzArch::kSancus: return "sancus";
    case FuzzArch::kTrustLite: return "trustlite";
    case FuzzArch::kTyTan: return "tytan";
  }
  return "?";
}

FuzzArch fuzz_arch_from_string(const std::string& name) {
  for (FuzzArch a : kAllFuzzArchs) {
    if (to_string(a) == name) {
      return a;
    }
  }
  throw std::invalid_argument("unknown fuzz architecture: " + name);
}

sim::Word mee_word(sim::PhysAddr addr, sim::Word value) {
  // splitmix64-style keystream of the word address; involutory via XOR.
  std::uint64_t z = (static_cast<std::uint64_t>(addr & ~3u) + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return value ^ static_cast<sim::Word>(z ^ (z >> 31));
}

sim::MachineProfile fuzz_machine_profile(FuzzArch arch) {
  sim::MachineProfile p;
  switch (arch) {
    case FuzzArch::kSgx:
    case FuzzArch::kSanctum:
      p = sim::MachineProfile::server();
      p.dram_bytes = 2u << 20;  // the conformance layout needs ~30 pages.
      break;
    case FuzzArch::kTrustZone:
    case FuzzArch::kSanctuary:
      p = sim::MachineProfile::mobile();
      p.dram_bytes = 2u << 20;
      break;
    case FuzzArch::kSmart:
    case FuzzArch::kSancus:
    case FuzzArch::kTrustLite:
    case FuzzArch::kTyTan:
      p = sim::MachineProfile::embedded();
      break;
  }
  p.name = "fuzz-" + to_string(arch);  // distinct pool key per arch.
  return p;
}

EnvSpec make_env_spec(FuzzArch arch) {
  EnvSpec spec;
  spec.arch = arch;
  spec.has_mmu = !is_embedded(arch);
  spec.normal = {kNormalDomain, sim::Privilege::kUser, kNormalAsid};
  const sim::DomainId owner =
      arch == FuzzArch::kTrustZone ? kSecureWorldDomain : kEnclaveDomain;
  spec.enclave = {owner, sim::Privilege::kUser, kEnclaveAsid};

  for (std::size_t i = 0; i < 8; ++i) {
    spec.secret_words.push_back(0xA5EC'0000u | static_cast<sim::Word>(i * 0x0101u));
  }

  if (spec.has_mmu) {
    spec.code_base = kCodeBase;
    spec.halt_stub = kHaltStubBase;
    spec.enclave_code = kEnclaveCodeBase;
    spec.enclave_entry = kEnclaveCodeBase;
    spec.data_base = kDataBase;
    spec.rodata_base = kRoDataBase;
    spec.supervisor_base = kSupervisorBase;
    spec.not_present_base = kNotPresentBase;
    spec.secret_base = kSecretBase;
    spec.protect_point = (arch == FuzzArch::kSgx || arch == FuzzArch::kSanctum)
                             ? ProtectPoint::kWalkCheck
                             : ProtectPoint::kBus;
    // Physical enforcement data, computed from the machine's deterministic
    // bump allocator (first frame at 0x10000): root, code, halt, enclave
    // code, 2 data, rodata, supervisor, not-present, secret — install_env
    // allocates in exactly this order and cross-checks against these.
    constexpr sim::PhysAddr kFrameBase = 0x0001'0000;
    spec.page_root = kFrameBase;
    const sim::PhysAddr encl_f = kFrameBase + 3 * sim::kPageSize;
    const sim::PhysAddr secret_f = kFrameBase + 9 * sim::kPageSize;
    spec.protected_ranges = {{encl_f, encl_f + sim::kPageSize, owner},
                             {secret_f, secret_f + sim::kPageSize, owner}};
    if (arch == FuzzArch::kSgx) {
      spec.mee_start = secret_f;
      spec.mee_end = secret_f + sim::kPageSize;
    }
    spec.measured_start = secret_f;
    spec.measured_end = secret_f + sim::kPageSize;
    spec.address_pool = {
        {kDataBase, 6},        {kDataBase + sim::kPageSize, 3},
        {kRoDataBase, 3},      {kSecretBase, 4},
        {kSupervisorBase, 3},  {kNotPresentBase, 3},
        {kUnmappedLeaf, 2},    {kUnmappedL1, 1},
        {kCodeBase, 2},        {kEnclaveCodeBase, 2},
    };
  } else {
    spec.code_base = kBareCode;
    spec.halt_stub = kBareHaltStub;
    spec.enclave_code = kBareTrustlet;
    spec.enclave_entry = kBareTrustlet;
    spec.data_base = kBareData;
    spec.rodata_base = kBareRoData;
    spec.secret_base = kBareSecret;
    spec.protect_point = ProtectPoint::kMpu;
    spec.address_pool = {
        {kBareData, 6},     {kBareData + sim::kPageSize, 3},
        {kBareRoData, 3},   {kBareSecret, 4},
        {kBareUncovered, 2},{kBareOutOfDram, 2},
        {kBareCode, 2},     {kBareTrustlet, 2},
    };

    // EA-MPU regions. The trustlet's code region accepts entry only at its
    // first instruction (SMART's "attestation code entered at its start"),
    // and the secret region is code-gated on the trustlet.
    sim::MpuRegion rodata;
    rodata.name = "rodata";
    rodata.start = kBareRoData;
    rodata.end = kBareRoData + sim::kPageSize;
    rodata.writable = false;
    rodata.executable = false;
    sim::MpuRegion trustlet;
    trustlet.name = "trustlet-code";
    trustlet.start = kBareTrustlet;
    trustlet.end = kBareTrustlet + sim::kPageSize;
    trustlet.writable = false;
    trustlet.entry_points = {kBareTrustlet};
    sim::MpuRegion secret;
    secret.name = "trustlet-secret";
    secret.start = kBareSecret;
    secret.end = kBareSecret + sim::kPageSize;
    secret.writable = arch != FuzzArch::kSmart;  // SMART: RO key.
    secret.executable = false;
    secret.code_gate_start = kBareTrustlet;
    secret.code_gate_end = kBareTrustlet + sim::kPageSize;
    spec.mpu_regions = {rodata, trustlet, secret};
    if (arch == FuzzArch::kTyTan) {
      sim::MpuRegion storage;
      storage.name = "secure-storage";
      storage.start = kBareStorage;
      storage.end = kBareStorage + sim::kPageSize;
      storage.executable = false;
      storage.code_gate_start = kBareTrustlet;
      storage.code_gate_end = kBareTrustlet + sim::kPageSize;
      spec.mpu_regions.push_back(storage);
      spec.address_pool.push_back({kBareStorage, 2});
    }
    spec.lock_mpu = arch == FuzzArch::kTrustLite || arch == FuzzArch::kTyTan;
    spec.protected_ranges = {{kBareSecret, kBareSecret + sim::kPageSize, owner}};
    spec.measured_start = kBareSecret;
    spec.measured_end = kBareSecret + sim::kPageSize;
  }
  return spec;
}

sim::PhysAddr install_env(sim::Machine& machine, const EnvSpec& spec_in, MachineRunLog& log,
                          BugInjection inject) {
  const EnvSpec& spec = spec_in;
  sim::PhysicalMemory& mem = machine.memory();
  sim::Cpu& cpu = machine.cpu(0);

  const bool enforce =
      inject != BugInjection::kSkipDomainCheck && inject != BugInjection::kSilentZero;
  sim::PhysAddr root = 0;  // page-table root (0 for bare profiles).

  if (spec.has_mmu) {
    // Deterministic frame layout: root, L2 table, then payload frames in a
    // fixed order. resolve_env() mirrors this arithmetic.
    sim::AddressSpace as = machine.create_address_space();
    root = as.root();
    if (root != spec.page_root) {
      throw std::logic_error("install_env: page-table root does not match the spec");
    }
    const sim::PhysAddr code_f = machine.alloc_frame();
    const sim::PhysAddr halt_f = machine.alloc_frame();
    const sim::PhysAddr encl_f = machine.alloc_frame();
    const sim::PhysAddr data_f = machine.alloc_frames(2);
    const sim::PhysAddr ro_f = machine.alloc_frame();
    const sim::PhysAddr sup_f = machine.alloc_frame();
    const sim::PhysAddr np_f = machine.alloc_frame();
    const sim::PhysAddr secret_f = machine.alloc_frame();

    using namespace sim::pte;
    as.map(spec.code_base, code_f, kUser | kExecutable);
    as.map(spec.halt_stub, halt_f, kUser | kExecutable);
    as.map(spec.enclave_code, encl_f, kUser | kExecutable);
    as.map(spec.data_base, data_f, kUser | kWritable);
    as.map(spec.data_base + sim::kPageSize, data_f + sim::kPageSize, kUser | kWritable);
    as.map(spec.rodata_base, ro_f, kUser);
    as.map(spec.supervisor_base, sup_f, kWritable);  // no U: the Meltdown target.
    as.map(spec.not_present_base, np_f, kUser | kWritable);
    as.clear_present(spec.not_present_base);  // the L1TF target.
    as.map(spec.secret_base, secret_f, kUser | kWritable);

    fill_pattern(mem, data_f, 2, 0x0D00'0000u);
    fill_pattern(mem, ro_f, 1, 0x0E00'0000u);
    fill_pattern(mem, sup_f, 1, 0x0F00'0000u);

    // make_env_spec predicted this frame layout from the bump-allocator
    // arithmetic; if the two ever drift the whole differential is built on
    // sand, so fail loudly.
    if (spec.protected_ranges.size() != 2 || spec.protected_ranges.front().start != encl_f ||
        spec.protected_ranges.back().start != secret_f) {
      throw std::logic_error("install_env: spec physical layout does not match the machine");
    }

    // Secret, encrypted when the architecture has an MEE.
    for (std::size_t i = 0; i < spec.secret_words.size(); ++i) {
      const sim::PhysAddr at = secret_f + static_cast<sim::PhysAddr>(4 * i);
      const sim::Word plain = inject == BugInjection::kSilentZero ? 0 : spec.secret_words[i];
      mem.write32(at, spec.in_mee(at) ? mee_word(at, plain) : plain);
    }

    if (spec.mee_end != 0) {
      machine.bus().set_transform(
          [start = spec.mee_start, end = spec.mee_end](sim::PhysAddr addr, sim::Word value,
                                                       sim::DomainId, bool) {
            return (addr >= start && addr < end) ? mee_word(addr, value) : value;
          });
    }

    if (enforce) {
      if (spec.protect_point == ProtectPoint::kWalkCheck) {
        for (std::uint32_t c = 0; c < machine.num_cores(); ++c) {
          machine.cpu(static_cast<sim::CoreId>(c))
              .mmu()
              .set_walk_check([ranges = spec.protected_ranges](
                                  sim::VirtAddr, const sim::Translation& t, sim::AccessType,
                                  sim::Privilege, sim::DomainId domain) {
                for (const ProtectedRange& r : ranges) {
                  if (r.contains(t.phys) && domain != r.owner) {
                    return sim::Fault::kSecurityViolation;
                  }
                }
                return sim::Fault::kNone;
              });
        }
        // Sanctum pairs the walker invariants with a DMA range filter.
        if (spec.arch == FuzzArch::kSanctum) {
          machine.bus().add_check([ranges = spec.protected_ranges](
                                      sim::PhysAddr addr, sim::AccessType, sim::DomainId domain,
                                      sim::Privilege, bool is_dma) {
            if (!is_dma) {
              return sim::Fault::kNone;
            }
            for (const ProtectedRange& r : ranges) {
              if (r.contains(addr) && domain != r.owner) {
                return sim::Fault::kBusError;
              }
            }
            return sim::Fault::kNone;
          });
        }
      } else {  // ProtectPoint::kBus: TZASC-style firewall, CPU and DMA alike.
        machine.bus().add_check([ranges = spec.protected_ranges](
                                    sim::PhysAddr addr, sim::AccessType, sim::DomainId domain,
                                    sim::Privilege, bool) {
          for (const ProtectedRange& r : ranges) {
            if (r.contains(addr) && domain != r.owner) {
              return sim::Fault::kSecurityViolation;
            }
          }
          return sim::Fault::kNone;
        });
      }
    }
  } else {
    // Bare profile: fixed physical layout, MPU enforcement.
    fill_pattern(mem, spec.data_base, 2, 0x0D00'0000u);
    fill_pattern(mem, spec.rodata_base, 1, 0x0E00'0000u);
    for (std::size_t i = 0; i < spec.secret_words.size(); ++i) {
      mem.write32(spec.secret_base + static_cast<sim::PhysAddr>(4 * i),
                  inject == BugInjection::kSilentZero ? 0 : spec.secret_words[i]);
    }
    for (const sim::MpuRegion& region : spec.mpu_regions) {
      sim::MpuRegion r = region;
      if (!enforce && r.name == "trustlet-secret") {
        // The injected bug: the secret region loses its code gate (and, for
        // the silent-zero variant, the key bytes were zeroed above).
        r.code_gate_start.reset();
        r.code_gate_end.reset();
        r.writable = true;
      }
      machine.mpu().add_region(std::move(r));
    }
    if (spec.lock_mpu) {
      machine.mpu().lock();
    }
  }

  if (inject == BugInjection::kDropDirtyBit) {
    // The last DRAM page lies beyond every frame and address the
    // environment or the generator uses.
    mem.inject_write32_without_dirty_bit(mem.size() - sim::kPageSize, kDroppedDirtyWord);
  }

  // Halt stub: the fault handler's recovery vector.
  sim::Program stub;
  stub.base = spec.halt_stub;
  stub.code.push_back(sim::Instruction{.op = sim::Opcode::kHalt});
  cpu.load_program(stub);

  // OS / monitor / SDK model: the four conformance services.
  cpu.set_ecall_handler([spec_normal = spec.normal, spec_enclave = spec.enclave, root,
                         entry = spec.enclave_entry](sim::Cpu& c, sim::Word service) {
    switch (service) {
      case kSvcEnterEnclave:
        c.set_reg(sim::R14, c.pc());  // pc is already the ecall's pc + 4.
        c.switch_context(spec_enclave.domain, spec_enclave.priv, root, spec_enclave.asid);
        c.set_pc(entry);
        break;
      case kSvcExitEnclave:
        c.switch_context(spec_normal.domain, spec_normal.priv, root, spec_normal.asid);
        c.set_pc(c.reg(sim::R14));
        break;
      case kSvcSupervisor:
        c.switch_context(spec_normal.domain, sim::Privilege::kSupervisor, root,
                         spec_normal.asid);
        break;
      case kSvcUser:
        c.switch_context(spec_normal.domain, sim::Privilege::kUser, root, spec_normal.asid);
        break;
      default:
        break;  // unknown service: no-op, continue at pc + 4.
    }
  });

  cpu.set_fault_handler([log_ptr = &log, halt = spec.halt_stub](sim::Cpu& c,
                                                                const sim::FaultInfo& info) {
    log_ptr->faults.push_back({info.fault, info.pc, info.addr, info.type});
    if (info.type == sim::AccessType::kExecute || log_ptr->faults.size() >= kFaultBudget) {
      c.set_pc(halt);
      return sim::FaultAction::kRedirect;
    }
    return sim::FaultAction::kSkip;
  });

  cpu.set_leak_hook(
      [log_ptr = &log](sim::Word value) { log_ptr->leak_hash = leak_mix(log_ptr->leak_hash, value); });

  cpu.switch_context(spec.normal.domain, spec.normal.priv, root, spec.normal.asid);

  return spec.has_mmu ? spec.protected_ranges.back().start : spec.secret_base;
}

}  // namespace hwsec::conformance
