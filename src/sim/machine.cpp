#include "sim/machine.h"

#include "sim/sim_error.h"

namespace hwsec::sim {

std::string to_string(DeviceClass c) {
  switch (c) {
    case DeviceClass::kServer: return "server/desktop";
    case DeviceClass::kMobile: return "mobile";
    case DeviceClass::kEmbedded: return "embedded";
  }
  return "?";
}

MachineProfile MachineProfile::server() {
  MachineProfile p;
  p.name = "server";
  p.device_class = DeviceClass::kServer;
  p.dram_bytes = 32u << 20;
  p.num_cores = 4;
  p.has_mmu = true;
  p.hierarchy.num_cores = 4;
  p.hierarchy.l1d = {.name = "L1D", .size_bytes = 32 * 1024, .ways = 8, .line_size = 64,
                     .policy = ReplacementPolicy::kLru, .hit_latency = 4};
  p.hierarchy.l1i = p.hierarchy.l1d;
  p.hierarchy.l1i.name = "L1I";
  p.hierarchy.llc = {.name = "LLC", .size_bytes = 4 * 1024 * 1024, .ways = 16, .line_size = 64,
                     .policy = ReplacementPolicy::kLru, .hit_latency = 30};
  p.hierarchy.dram_latency = 150;
  p.cpu.speculative_execution = true;
  p.cpu.speculation_window = 64;
  p.cpu.meltdown_fault_forwarding = true;  // pre-2018 silicon.
  p.cpu.l1tf_vulnerable = true;
  p.cpu.predictor = {.pht_entries = 4096, .btb_entries = 1024, .btb_tag_bits = 0,
                     .rsb_depth = 16, .flush_on_domain_switch = false};
  p.cpu.tlb = {.entries = 128, .ways = 4, .asid_tagged = true, .hit_latency = 1,
               .walk_latency = 25};
  p.dvfs.rated_points = {{2400, 1.00}, {3000, 1.10}, {3600, 1.20}};
  p.dvfs.slope_mhz_per_volt = 5500.0;
  p.dvfs.v_threshold = 0.45;
  p.dvfs.energy_per_cycle_nj_at_1v = 1.0;
  p.energy = {.per_instruction_nj = 1.2, .per_l1_access_nj = 0.15,
              .per_llc_access_nj = 0.8, .per_dram_access_nj = 8.0};
  return p;
}

MachineProfile MachineProfile::mobile() {
  MachineProfile p;
  p.name = "mobile";
  p.device_class = DeviceClass::kMobile;
  p.dram_bytes = 16u << 20;
  p.num_cores = 4;
  p.has_mmu = true;
  p.hierarchy.num_cores = 4;
  p.hierarchy.l1d = {.name = "L1D", .size_bytes = 32 * 1024, .ways = 4, .line_size = 64,
                     .policy = ReplacementPolicy::kLru, .hit_latency = 3};
  p.hierarchy.l1i = p.hierarchy.l1d;
  p.hierarchy.l1i.name = "L1I";
  p.hierarchy.llc = {.name = "L2", .size_bytes = 1024 * 1024, .ways = 16, .line_size = 64,
                     .policy = ReplacementPolicy::kLru, .hit_latency = 21};
  p.hierarchy.dram_latency = 130;
  p.cpu.speculative_execution = true;
  p.cpu.speculation_window = 32;
  // ARM application cores are broadly Spectre-vulnerable, but most are not
  // Meltdown- or L1TF-vulnerable — permission checks gate forwarding.
  p.cpu.meltdown_fault_forwarding = false;
  p.cpu.l1tf_vulnerable = false;
  p.cpu.predictor = {.pht_entries = 2048, .btb_entries = 512, .btb_tag_bits = 0,
                     .rsb_depth = 8, .flush_on_domain_switch = false};
  p.cpu.tlb = {.entries = 64, .ways = 4, .asid_tagged = true, .hit_latency = 1,
               .walk_latency = 20};
  // Software-writable DVFS with a generous register range: the CLKSCREW
  // precondition.
  p.dvfs.rated_points = {{300, 0.70}, {900, 0.85}, {1500, 1.00}, {2100, 1.10}};
  p.dvfs.slope_mhz_per_volt = 4000.0;
  p.dvfs.v_threshold = 0.48;
  p.dvfs.tau_mhz = 300.0;
  p.dvfs.energy_per_cycle_nj_at_1v = 0.35;
  p.energy = {.per_instruction_nj = 0.35, .per_l1_access_nj = 0.06,
              .per_llc_access_nj = 0.35, .per_dram_access_nj = 4.0};
  return p;
}

MachineProfile MachineProfile::embedded() {
  MachineProfile p;
  p.name = "embedded";
  p.device_class = DeviceClass::kEmbedded;
  p.dram_bytes = 1u << 20;
  p.num_cores = 1;
  p.has_mmu = false;  // bare physical addressing + MPU.
  p.hierarchy.num_cores = 1;
  p.hierarchy.has_l1 = false;
  p.hierarchy.has_llc = false;
  p.hierarchy.dram_latency = 2;  // on-chip SRAM, single-cycle-ish.
  p.cpu.speculative_execution = false;  // in-order, unpipelined model.
  p.cpu.meltdown_fault_forwarding = false;
  p.cpu.l1tf_vulnerable = false;
  p.cpu.predictor = {.pht_entries = 64, .btb_entries = 16, .btb_tag_bits = 0, .rsb_depth = 4,
                     .flush_on_domain_switch = false};
  p.cpu.tlb = {.entries = 4, .ways = 1, .asid_tagged = false, .hit_latency = 0,
               .walk_latency = 0};
  p.dvfs.rated_points = {{16, 0.60}, {48, 0.80}};
  p.dvfs.slope_mhz_per_volt = 400.0;
  p.dvfs.v_threshold = 0.40;
  p.dvfs.tau_mhz = 40.0;
  p.dvfs.energy_per_cycle_nj_at_1v = 0.02;
  p.energy = {.per_instruction_nj = 0.04, .per_l1_access_nj = 0.0,
              .per_llc_access_nj = 0.0, .per_dram_access_nj = 0.05};
  return p;
}

Machine::Machine(MachineProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      memory_(profile_.dram_bytes),
      caches_([this] {
        HierarchyConfig h = profile_.hierarchy;
        h.num_cores = profile_.num_cores;
        return h;
      }()),
      bus_(memory_, caches_),
      dvfs_(profile_.dvfs),
      injector_(seed ^ 0xFA57),
      rng_(seed),
      next_frame_(1u << 16) /* first 64 KiB reserved for firmware/vectors */ {
  for (std::uint32_t c = 0; c < profile_.num_cores; ++c) {
    CpuConfig cfg = profile_.cpu;
    cfg.id = static_cast<CoreId>(c);
    auto cpu = std::make_unique<Cpu>(cfg, bus_);
    if (!profile_.has_mmu) {
      cpu->mmu().set_bare_mode(true);
      cpu->set_mpu(&mpu_);
    }
    cpus_.push_back(std::move(cpu));
  }
}

MachineSnapshot Machine::snapshot() {
  MachineSnapshot snap{.owner = this,
                       .memory = memory_.snapshot(),
                       .caches = caches_.snapshot(),
                       .bus = bus_.snapshot(),
                       .mpu = mpu_,
                       .dvfs = dvfs_,
                       .injector = injector_,
                       .rng = rng_,
                       .cpus = {},
                       .next_frame = next_frame_,
                       .next_asid = next_asid_};
  snap.cpus.reserve(cpus_.size());
  for (const auto& cpu : cpus_) {
    // Clean before copying: the copies then carry a clean flag, and
    // reset_to can skip cores nothing mutated since this snapshot.
    cpu->mark_clean();
    snap.cpus.push_back(*cpu);
  }
  return snap;
}

void Machine::reset_to(const MachineSnapshot& snap) {
  if (snap.owner != this) {
    throw SimError(ErrorKind::kConfigError,
                   "machine snapshot restored on a different machine than it was taken from")
        .with_machine(profile_.name);
  }
  memory_.restore(snap.memory);
  caches_.restore(snap.caches);
  bus_.restore(snap.bus);
  mpu_ = snap.mpu;
  dvfs_ = snap.dvfs;
  injector_ = snap.injector;
  rng_ = snap.rng;
  for (std::size_t c = 0; c < cpus_.size(); ++c) {
    if (cpus_[c]->dirty()) {
      *cpus_[c] = snap.cpus[c];
    }
  }
  next_frame_ = snap.next_frame;
  next_asid_ = snap.next_asid;
}

void Machine::set_uop_cache(const std::shared_ptr<UopCache>& cache) {
  uop_cache_ = cache;
  for (auto& cpu : cpus_) {
    cpu->set_uop_cache(uop_cache_.get());
  }
}

void Machine::reseed(std::uint64_t seed) {
  // Mirrors the constructor's seed derivations exactly.
  injector_ = FaultInjector(seed ^ 0xFA57);
  rng_ = Rng(seed);
}

PhysAddr Machine::alloc_frame() { return alloc_frames(1); }

PhysAddr Machine::alloc_frames(std::uint32_t n) {
  const PhysAddr base = next_frame_;
  const std::uint64_t end = static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(n) * kPageSize;
  if (end > memory_.size()) {
    const std::uint64_t total = memory_.size() / kPageSize;
    const std::uint64_t free = (memory_.size() - next_frame_) / kPageSize;
    throw SimError(ErrorKind::kResourceExhausted,
                   "out of physical frames: requested " + std::to_string(n) + " frame(s) (" +
                       std::to_string(static_cast<std::uint64_t>(n) * kPageSize / 1024) +
                       " KiB) but only " + std::to_string(free) + " of " +
                       std::to_string(total) + " frames are free")
        .with_machine(profile_.name);
  }
  next_frame_ = static_cast<PhysAddr>(end);
  memory_.fill(base, n * kPageSize, 0);
  return base;
}

std::uint32_t Machine::frame_color(PhysAddr frame, std::uint32_t num_colors) const {
  // Color = which LLC set-group the frame's lines land in. With 64-byte
  // lines and 4 KiB pages, a page covers 64 consecutive sets; the color is
  // the page-number modulo the number of colors (classic page coloring).
  (void)this;
  return page_number(frame) % num_colors;
}

PhysAddr Machine::alloc_frame_colored(std::uint32_t color, std::uint32_t num_colors) {
  if (num_colors == 0) {
    throw SimError(ErrorKind::kConfigError, "num_colors must be positive")
        .with_machine(profile_.name);
  }
  // Skip frames until the color matches. Skipped frames are simply leaked;
  // acceptable for experiment-scale allocation.
  for (std::uint32_t attempts = 0; attempts < num_colors + 1; ++attempts) {
    if (frame_color(next_frame_, num_colors) == color % num_colors) {
      return alloc_frame();
    }
    alloc_frame();  // discard.
  }
  throw SimError(ErrorKind::kInternalError,
                 "unreachable: color not found within num_colors frames")
      .with_machine(profile_.name);
}

AddressSpace Machine::create_address_space() {
  const PhysAddr root = alloc_frame();
  return AddressSpace(memory_, root, &Machine::alloc_frame_trampoline, this);
}

PhysAddr Machine::alloc_frame_trampoline(void* ctx) {
  return static_cast<Machine*>(ctx)->alloc_frame();
}

MemoryAccessOutcome Machine::touch(CoreId core, DomainId domain, PhysAddr addr, AccessType type) {
  return caches_.access(core, domain, addr, type);
}

void Machine::arm_watchdog(const TrialWatchdog* watchdog) {
  for (auto& cpu : cpus_) {
    cpu->set_watchdog(watchdog);
  }
}

double Machine::energy_nj() const {
  const double v = dvfs_.point().voltage;
  const double scale = v * v;
  double total = 0.0;
  for (const auto& cpu : cpus_) {
    const CpuStats& s = cpu->stats();
    total += static_cast<double>(s.retired) * profile_.energy.per_instruction_nj;
    total += static_cast<double>(s.l1_hits) * profile_.energy.per_l1_access_nj;
    total += static_cast<double>(s.llc_hits) * profile_.energy.per_llc_access_nj;
    total += static_cast<double>(s.dram_accesses) * profile_.energy.per_dram_access_nj;
  }
  return total * scale;
}

double Machine::elapsed_ns() const {
  Cycle busiest = 0;
  for (const auto& cpu : cpus_) {
    busiest = std::max(busiest, cpu->cycles());
  }
  return static_cast<double>(busiest) * dvfs_.ns_per_cycle();
}

std::uint64_t Machine::total_retired() const {
  std::uint64_t total = 0;
  for (const auto& cpu : cpus_) {
    total += cpu->stats().retired;
  }
  return total;
}

void Machine::reset_stats() {
  for (auto& cpu : cpus_) {
    cpu->reset_stats();
  }
  caches_.reset_stats();
}

}  // namespace hwsec::sim
