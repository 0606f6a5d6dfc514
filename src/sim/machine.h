// Machine composition: cores + MMU/MPU + caches + bus + DMA-capable
// devices + DVFS, wired per a MachineProfile.
//
// The three built-in profiles model the paper's three platform classes
// (Figure 1 columns):
//
//  * server():   many fast speculative cores, large caches, big energy
//                budget — microarchitecturally rich and therefore exposed
//                to the Section 4 attacks; physically inaccessible.
//  * mobile():   speculative but Meltdown/L1TF-mitigated cores (ARM-like),
//                shared LLC, DVFS with software-writable registers (the
//                CLKSCREW precondition), MMU + TrustZone-style hooks.
//  * embedded(): one in-order core, no caches, no MMU (bare physical
//                addressing + MPU), microwatt energy budget — immune to
//                the microarchitectural attacks by construction but fully
//                exposed to physical ones.
//
// Profiles are data, not subclasses: an experiment can take a profile,
// tweak one knob (the ablation benches do) and build a Machine from it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/bus.h"
#include "sim/cache_hierarchy.h"
#include "sim/cpu.h"
#include "sim/dvfs.h"
#include "sim/memory.h"
#include "sim/mpu.h"
#include "sim/page_table.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace hwsec::sim {

enum class DeviceClass : std::uint8_t { kServer, kMobile, kEmbedded };

std::string to_string(DeviceClass c);

/// TimeWarp-style timer defense (Martin et al., the paper's [32]):
/// coarsen and fuzz every timing measurement an attacker can take.
/// granularity == 1 and jitter == 0 is a perfect cycle counter.
struct TimerConfig {
  Cycle granularity = 1;  ///< readings snap to multiples of this.
  Cycle jitter = 0;       ///< uniform random 0..jitter added before snapping.
};

/// Per-event energy costs in nanojoules at 1.0 V (scaled by V² at the
/// current DVFS point).
struct EnergyCosts {
  double per_instruction_nj = 0.5;
  double per_l1_access_nj = 0.1;
  double per_llc_access_nj = 0.6;
  double per_dram_access_nj = 6.0;
};

struct MachineProfile {
  std::string name = "generic";
  DeviceClass device_class = DeviceClass::kServer;
  std::uint32_t dram_bytes = 32u << 20;
  std::uint32_t num_cores = 4;
  bool has_mmu = true;  ///< false: bare physical addressing + MPU.
  HierarchyConfig hierarchy{};
  CpuConfig cpu{};      ///< template; core ids are assigned by Machine.
  DvfsConfig dvfs{};
  EnergyCosts energy{};
  TimerConfig timer{};

  static MachineProfile server();
  static MachineProfile mobile();
  static MachineProfile embedded();
};

class Machine;

/// Full machine state captured by Machine::snapshot(): registers, MMU/TLB
/// and predictor state (inside the Cpu copies), page-table frames and all
/// other DRAM (inside the memory snapshot), cache/PLRU arrays, bus
/// firewalls/transform, MPU, DVFS and fault-injector state, the machine
/// RNG, and the frame/ASID allocation cursors.
///
/// A snapshot is tied to the Machine it was taken from (component copies
/// hold callbacks that capture pointers into that machine); reset_to()
/// rejects snapshots from any other instance.
struct MachineSnapshot {
  const Machine* owner = nullptr;
  PhysicalMemory::Snapshot memory;
  CacheHierarchy::Snapshot caches;
  Bus::Snapshot bus;
  Mpu mpu;
  DvfsController dvfs;
  FaultInjector injector;
  Rng rng;
  std::vector<Cpu> cpus;
  PhysAddr next_frame = 0;
  Asid next_asid = 1;
};

class Machine {
 public:
  explicit Machine(MachineProfile profile, std::uint64_t seed = 0xC0FFEE);

  const MachineProfile& profile() const { return profile_; }

  Cpu& cpu(CoreId core = 0) { return *cpus_.at(core); }
  const Cpu& cpu(CoreId core = 0) const { return *cpus_.at(core); }
  std::uint32_t num_cores() const { return static_cast<std::uint32_t>(cpus_.size()); }

  PhysicalMemory& memory() { return memory_; }
  CacheHierarchy& caches() { return caches_; }
  Bus& bus() { return bus_; }
  Mpu& mpu() { return mpu_; }
  DvfsController& dvfs() { return dvfs_; }
  FaultInjector& injector() { return injector_; }
  Rng& rng() { return rng_; }

  // -- physical frame management ---------------------------------------
  /// Bump-allocates a zeroed 4 KiB frame. Frames are never freed; the
  /// experiments are short-lived.
  PhysAddr alloc_frame();
  /// Allocates `n` contiguous frames and returns the base.
  PhysAddr alloc_frames(std::uint32_t n);
  /// Allocates a frame whose LLC color (set-group) equals `color`, for
  /// Sanctum-style page-coloring partitioning.
  PhysAddr alloc_frame_colored(std::uint32_t color, std::uint32_t num_colors);
  /// LLC color of a frame under `num_colors` colors.
  std::uint32_t frame_color(PhysAddr frame, std::uint32_t num_colors) const;

  /// Creates an address space with a freshly allocated root table.
  AddressSpace create_address_space();

  /// Hands out the next free ASID. Per-machine (not global) so that a
  /// trial owning its own Machine sees ASIDs that depend only on its own
  /// construction order — never on what other threads are doing.
  /// Hardcoded ASIDs in the attack library start at 40; a machine hosts
  /// far fewer processes than that.
  Asid allocate_asid() { return next_asid_++; }

  // -- native instrumentation ports --------------------------------------
  /// Issues a data access to the cache hierarchy on behalf of
  /// host-instrumented victim code (e.g. the AES T-table lookups of the
  /// crypto library "running on" this machine). Returns timing exactly as
  /// the CPU data path would.
  MemoryAccessOutcome touch(CoreId core, DomainId domain, PhysAddr addr,
                            AccessType type = AccessType::kRead);
  /// Batched timed reload (the Flush+Reload probe step) of `count` lines at
  /// `base`, `base + stride`, ...: per line, exactly the side effects of
  /// touch(core, domain, addr) followed by observe_latency(), then
  /// `visit(observed_latency)`; a false return stops the sweep and leaves
  /// the remaining lines untouched (CacheHierarchy::read_lines).
  template <typename Visit>
  void probe_lines(CoreId core, DomainId domain, PhysAddr base, std::uint32_t stride,
                   std::uint32_t count, Visit&& visit) {
    caches_.read_lines(core, domain, base, stride, count, [&](const MemoryAccessOutcome& o) {
      return visit(observe_latency(o.latency));
    });
  }
  /// CLFLUSH from instrumented code.
  void flush_line(PhysAddr addr) { caches_.flush_line(addr); }
  /// Batch CLFLUSH of `count` lines at `base`, `base + stride`, ... from
  /// instrumented code (probe-array eviction). One hierarchy sweep instead
  /// of count independent flush_line calls.
  void flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count) {
    caches_.flush_lines(base, stride, count);
  }

  /// Installs a shared decoded-program cache on every core (nullptr:
  /// detach). The cache must outlive the machine; the machine pool owns
  /// one per pool and installs it before taking the pristine snapshot.
  void set_uop_cache(const std::shared_ptr<UopCache>& cache);

  /// What an attacker's timer reports for a true duration of `latency`
  /// cycles, under the platform's TimeWarp-style timer policy. A perfect
  /// timer (the default) returns the input unchanged.
  Cycle observe_latency(Cycle latency) {
    const TimerConfig& t = profile_.timer;
    if (t.jitter > 0) {
      latency += rng_.below(t.jitter + 1);
    }
    if (t.granularity > 1) {
      latency = (latency / t.granularity) * t.granularity;
    }
    return latency;
  }

  /// Arms (nullptr: disarms) a per-trial watchdog on every core. While
  /// armed, guest execution that exceeds the watchdog's cycle budget — or
  /// that the wall-clock monitor cancels — raises SimError(kTimedOut).
  void arm_watchdog(const TrialWatchdog* watchdog);

  // -- whole-machine measurements (Figure 1 rows) -------------------------
  /// Total energy consumed so far across all cores, in nanojoules, at the
  /// current DVFS voltage.
  double energy_nj() const;
  /// Wall-clock time corresponding to the busiest core, in nanoseconds.
  double elapsed_ns() const;
  /// Committed instructions across all cores.
  std::uint64_t total_retired() const;

  void reset_stats();

  // -- snapshot / reset (trial pooling) ---------------------------------
  /// Captures the complete machine state. Taking a snapshot enables
  /// dirty-page tracking in DRAM, so a later reset_to() copies back only
  /// the pages the trial touched. The canonical use is one snapshot of the
  /// pristine post-construction state, restored between campaign trials
  /// (see core/machine_pool.h).
  MachineSnapshot snapshot();

  /// Restores a snapshot previously taken from *this machine*; snapshots
  /// are not transferable (their component copies carry callbacks bound to
  /// the owning machine) and a foreign snapshot throws kConfigError.
  /// reset_to(snapshot()) followed by reseed(s) is bit-identical to a
  /// fresh Machine(profile, s) — the determinism suites enforce this.
  void reset_to(const MachineSnapshot& snap);

  /// Re-derives the seed-dependent state (machine RNG and glitch-fault
  /// injector) exactly as the constructor would for `seed`. Everything
  /// else the constructor builds is seed-independent, which is what makes
  /// reset_to + reseed equivalent to fresh construction.
  void reseed(std::uint64_t seed);

 private:
  static PhysAddr alloc_frame_trampoline(void* ctx);

  MachineProfile profile_;
  PhysicalMemory memory_;
  CacheHierarchy caches_;
  Bus bus_;
  Mpu mpu_;
  DvfsController dvfs_;
  FaultInjector injector_;
  Rng rng_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::shared_ptr<UopCache> uop_cache_;  ///< keeps the shared cache alive.
  PhysAddr next_frame_;
  Asid next_asid_ = 1;
};

}  // namespace hwsec::sim
