// Multi-core cache hierarchy: private L1 data/instruction caches per core
// plus an optional shared, inclusive last-level cache (LLC).
//
// This is the component that makes cross-core cache side channels (and the
// defenses of Sanctum / Sanctuary) expressible:
//  * inclusive LLC: evicting a line from the LLC back-invalidates every
//    private copy, which is what lets a Prime+Probe attacker on core A
//    evict a victim on core B;
//  * uncacheable ranges: Sanctuary removes enclave memory from the shared
//    cache levels (exclude_shared) or from all levels (exclude_all);
//  * LLC way partitioning is inherited from Cache::set_way_partition;
//    set-partitioning via page coloring is a page-allocator policy (see
//    arch/sanctum) and needs no hierarchy support beyond set_index().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.h"
#include "sim/types.h"

namespace hwsec::sim {

struct HierarchyConfig {
  std::uint32_t num_cores = 1;
  bool has_l1 = true;
  bool has_llc = true;
  CacheConfig l1d{.name = "L1D", .size_bytes = 32 * 1024, .ways = 8, .line_size = 64,
                  .policy = ReplacementPolicy::kLru, .hit_latency = 4};
  CacheConfig l1i{.name = "L1I", .size_bytes = 32 * 1024, .ways = 8, .line_size = 64,
                  .policy = ReplacementPolicy::kLru, .hit_latency = 4};
  CacheConfig llc{.name = "LLC", .size_bytes = 2 * 1024 * 1024, .ways = 16, .line_size = 64,
                  .policy = ReplacementPolicy::kLru, .hit_latency = 30};
  bool inclusive_llc = true;
  Cycle dram_latency = 120;
  std::uint64_t rng_seed = 7;
};

/// Where an access was served from. Latencies are strictly ordered
/// (L1 < LLC < DRAM), which is the whole basis of timing side channels.
enum class ServiceLevel : std::uint8_t { kL1, kLlc, kDram, kUncached };

struct MemoryAccessOutcome {
  ServiceLevel level = ServiceLevel::kDram;
  Cycle latency = 0;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(HierarchyConfig config);

  const HierarchyConfig& config() const { return config_; }

  /// Data access by `core` on behalf of `domain`. Every entry point that
  /// takes a core rejects one outside [0, num_cores) with kConfigError.
  MemoryAccessOutcome access(CoreId core, DomainId domain, PhysAddr addr, AccessType type);

  /// Batched data reads of `count` lines at `base`, `base + stride`, ...:
  /// for each address in order, the same state change and outcome as
  /// access(core, domain, addr, kRead), handed to `on_line(outcome)`; a
  /// false return stops the sweep before the next address. The core is
  /// checked and its L1D looked up once per sweep; each line then takes the
  /// same level walk as access().
  template <typename OnLine>
  void read_lines(CoreId core, DomainId domain, PhysAddr base, std::uint32_t stride,
                  std::uint32_t count, OnLine&& on_line);

  /// Instruction fetch (separate L1I, shared LLC).
  MemoryAccessOutcome fetch(CoreId core, DomainId domain, PhysAddr addr);

  /// Non-destructive probes, used by tests and by the Foreshadow L1TF
  /// model (which needs "is this physical line in core X's L1D?").
  bool in_l1d(CoreId core, PhysAddr addr) const;
  bool in_llc(PhysAddr addr) const;

  /// CLFLUSH analogue: removes the line from every level on every core.
  void flush_line(PhysAddr addr);

  /// Batch CLFLUSH over `count` addresses `stride` bytes apart, starting at
  /// `base`. Equivalent to calling flush_line() per address (the per-cache
  /// flushes are independent, so reordering cache-outer is unobservable),
  /// but each cache sweeps only its occupied sets (Cache::flush_lines), and
  /// an empty cache — the common case for the other cores' private caches —
  /// costs one test.
  void flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count);

  /// Flushes core-private caches only (enclave context switch in
  /// Sanctuary/Sanctum).
  void flush_core_private(CoreId core);

  /// Flushes everything everywhere.
  void flush_all();

  /// Drops every line owned by `domain` at every level (enclave teardown).
  void flush_domain(DomainId domain);

  /// Marks [start, start+len) as excluded from the shared LLC
  /// (Sanctuary's defense) or from every cache level. Ranges may be
  /// removed with clear_uncacheable().
  enum class Exclusion : std::uint8_t { kSharedOnly, kAllLevels };
  void add_uncacheable(PhysAddr start, std::uint32_t len, Exclusion scope);
  void clear_uncacheable();

  /// Direct handles for configuring partitions and reading stats.
  Cache& llc();
  const Cache& llc() const;
  Cache& l1d(CoreId core);
  const Cache& l1d(CoreId core) const;
  Cache& l1i(CoreId core);
  const Cache& l1i(CoreId core) const;

  void reset_stats();

  struct UncacheableRange {
    PhysAddr start;
    PhysAddr end;  // exclusive
    Exclusion scope;
  };

  // -- snapshot / restore (Machine::snapshot) ---------------------------
  /// Value copies of every cache level plus the uncacheable ranges. A Cache
  /// copy carries its masks, PLRU bits, partition LUT and RNG, plus the
  /// valid lines of occupied sets (no other line is ever read, see
  /// sim/cache.h), so it captures replacement state exactly and a copy of
  /// an empty cache copies no line bytes. Taking a snapshot marks each
  /// cache's restore point (Cache::begin_set_tracking), so restore() puts
  /// back the way masks of occupied sets and only the lines touched since.
  ///
  /// The machine pool's pristine snapshots hold empty caches, so their
  /// restore is journal-free: each cache walks its occupancy bitmaps and
  /// clears the sets the trial filled (see Cache::restore_from).
  struct Snapshot {
    std::vector<Cache> l1d;
    std::vector<Cache> l1i;
    std::vector<Cache> llc;  ///< empty or one element.
    std::vector<UncacheableRange> uncacheable;
  };

  Snapshot snapshot();
  void restore(const Snapshot& snap);

  /// Monotonic counter bumped whenever the uncacheable-range set changes
  /// (add/clear/restore). While unchanged, an address observed cacheable
  /// stays cacheable — part of the CPU fetch memo's validity predicate.
  std::uint64_t exclusion_epoch() const { return exclusion_epoch_; }

 private:
  void check_core(CoreId core) const {
    if (core >= config_.num_cores) [[unlikely]] {
      throw_bad_core(core);
    }
  }
  [[noreturn]] void throw_bad_core(CoreId core) const;
  bool excluded(PhysAddr addr, Exclusion scope_at_least) const;
  MemoryAccessOutcome access_through(Cache* l1, CoreId core, DomainId domain, PhysAddr addr,
                                     AccessType type);
  void back_invalidate(PhysAddr line_base);

  HierarchyConfig config_;
  std::vector<std::unique_ptr<Cache>> l1d_;
  std::vector<std::unique_ptr<Cache>> l1i_;
  std::unique_ptr<Cache> llc_;
  std::vector<UncacheableRange> uncacheable_;
  std::uint64_t exclusion_epoch_ = 0;
};

template <typename OnLine>
void CacheHierarchy::read_lines(CoreId core, DomainId domain, PhysAddr base,
                                std::uint32_t stride, std::uint32_t count, OnLine&& on_line) {
  check_core(core);
  Cache* const l1 = config_.has_l1 ? l1d_[core].get() : nullptr;
  PhysAddr addr = base;
  for (std::uint32_t i = 0; i < count; ++i, addr += stride) {
    if (!on_line(access_through(l1, core, domain, addr, AccessType::kRead))) {
      return;
    }
  }
}

}  // namespace hwsec::sim
