// Snapshot/reset machine pool: amortizes per-trial Machine construction.
//
// Constructing a sim::Machine once dominated a Spectre campaign trial's
// cost. It now writes little beyond per-core state: the DRAM page table's
// pages all start out as the one shared zero page (no DRAM is zeroed), and
// each cache writes only its way masks, its line array staying untouched
// memory until fills reach it (sim/cache.h). That took a cold 4-core
// server build from ~0.5 ms to ~0.12 ms on a 4-vCPU host. The pool
// builds each machine once, captures a pristine post-construction
// MachineSnapshot (its caches are empty, so it copies masks and no line
// bytes), and between leases restores that snapshot (dirty-page restore in
// sim::PhysicalMemory and the occupancy walk in sim::Cache make this
// proportional to the trial's footprint) and reseeds the machine for the
// next trial.
//
// The equivalence contract — the reason pooling cannot change results:
// Machine construction consumes its seed only through Rng(seed) and
// FaultInjector(seed ^ ...); everything else the constructor builds is a
// pure function of the profile. Hence
//
//     reset_to(pristine); reseed(s)   ==   Machine(profile, s)
//
// bit for bit, and the campaign determinism suites are the oracle.
//
// Machines are keyed by MachineProfile::name. Experiments that tweak
// profile knobs (the ablation benches do) must rename the tweaked profile
// or use a dedicated pool — the pool cannot tell two same-named profiles
// apart and documents that as a sharp edge rather than paying a deep
// config comparison per acquire.
//
// Thread-safe: concurrent acquires hand out distinct machines, building
// new ones when all of a profile's machines are leased. A campaign with W
// workers therefore builds at most W machines per profile, total.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/machine.h"

namespace hwsec::core {

class MachinePool;

/// Move-only RAII handle to a pooled (or standalone) machine. Returns the
/// machine to its pool on destruction; a lease obtained with no pool owns
/// its machine outright.
class MachineLease {
 public:
  MachineLease() = default;
  MachineLease(MachineLease&& other) noexcept { swap(other); }
  MachineLease& operator=(MachineLease&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  MachineLease(const MachineLease&) = delete;
  MachineLease& operator=(const MachineLease&) = delete;
  ~MachineLease() { release(); }

  sim::Machine& operator*() const { return *machine_; }
  sim::Machine* operator->() const { return machine_; }
  sim::Machine* get() const { return machine_; }
  explicit operator bool() const { return machine_ != nullptr; }

 private:
  friend class MachinePool;
  friend MachineLease acquire_machine(MachinePool* pool, const sim::MachineProfile& profile,
                                      std::uint64_t seed);

  void release();
  void swap(MachineLease& other) noexcept {
    std::swap(pool_, other.pool_);
    std::swap(slot_, other.slot_);
    std::swap(machine_, other.machine_);
    std::swap(owned_, other.owned_);
  }

  MachinePool* pool_ = nullptr;
  std::size_t slot_ = 0;
  sim::Machine* machine_ = nullptr;
  std::unique_ptr<sim::Machine> owned_;  ///< unpooled fallback path.
};

class MachinePool {
 public:
  MachinePool() = default;
  MachinePool(const MachinePool&) = delete;
  MachinePool& operator=(const MachinePool&) = delete;

  /// Hands out a machine bit-identical to a fresh
  /// sim::Machine(profile, seed): a reset-reused pooled machine when one
  /// is free, a newly built one otherwise.
  MachineLease acquire(const sim::MachineProfile& profile, std::uint64_t seed);

  /// Machines constructed so far (upper-bounded by peak concurrent leases
  /// per profile).
  std::size_t machines_built() const;
  /// Total acquires served; leases_served() - machines_built() is the
  /// number of constructions the pool saved.
  std::uint64_t leases_served() const;

 private:
  friend class MachineLease;

  struct Entry {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<sim::MachineSnapshot> pristine;
    std::string profile_name;
    bool in_use = false;
  };

  void release(std::size_t slot);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::uint64_t leases_ = 0;
  /// Decoded-program cache shared by every pooled machine: trials across
  /// the whole pool decode each distinct program once. Installed before
  /// the pristine snapshot so reset-reuse keeps the wiring.
  std::shared_ptr<sim::UopCache> uop_cache_ = std::make_shared<sim::UopCache>();
};

/// Campaign-body helper: acquires from `pool` when the campaign runner
/// supplied one (TrialContext::machines), otherwise constructs a fresh
/// standalone machine. Both paths yield a machine bit-identical to
/// sim::Machine(profile, seed), so trial bodies written against this
/// helper behave the same with pooling on or off.
MachineLease acquire_machine(MachinePool* pool, const sim::MachineProfile& profile,
                             std::uint64_t seed);

}  // namespace hwsec::core
