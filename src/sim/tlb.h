// Translation lookaside buffer.
//
// Set-associative, virtually indexed, optionally tagged with an address
// space identifier (ASID). An untagged TLB must be flushed on every
// context switch — and a TLB that is *shared* between security domains
// without tagging is itself a side channel (Gras et al., the paper's
// [15]); the TLB attack in src/attacks exploits exactly that.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.h"

namespace hwsec::sim {

struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t ways = 4;
  bool asid_tagged = true;
  Cycle hit_latency = 1;
  Cycle walk_latency = 20;  ///< cost of a page walk on TLB miss.
};

using Asid = std::uint16_t;

struct TlbEntry {
  bool valid = false;
  std::uint32_t vpn = 0;
  std::uint32_t pfn = 0;
  Word flags = 0;
  Asid asid = 0;
  std::uint64_t lru_stamp = 0;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig config);

  const TlbConfig& config() const { return config_; }

  /// Lookup; refreshes LRU on hit.
  std::optional<TlbEntry> lookup(VirtAddr va, Asid asid);

  /// Non-destructive presence check, used by the TLB side-channel attack
  /// (which in reality infers presence from latency; tests use this to
  /// validate the latency signal).
  bool present(VirtAddr va, Asid asid) const;

  /// Inserts a translation (LRU replacement within the set).
  void insert(VirtAddr va, PhysAddr pa, Word flags, Asid asid);

  /// Invalidates one page's entry across all ASIDs (INVLPG analogue).
  void invalidate_page(VirtAddr va);

  /// Invalidates all entries of one ASID.
  void invalidate_asid(Asid asid);

  /// Full flush.
  void flush();

  /// Restricts `asid` to ways [first_way, first_way + num_ways) — the TLB
  /// partitioning defense against cross-context TLB occupancy channels
  /// (Gras et al.). Entries outside the new partition are invalidated.
  /// num_ways == 0 removes the restriction.
  void set_way_partition(Asid asid, std::uint32_t first_way, std::uint32_t num_ways);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  std::uint32_t set_index(VirtAddr va) const {
    // All stock profiles use a power-of-two set count, masked; fall back to
    // modulo for exotic hand-built configs (set_mask_ == 0 then).
    const std::uint32_t vpn = va >> kPageShift;
    return set_mask_ != 0 || num_sets_ == 1 ? (vpn & set_mask_) : vpn % num_sets_;
  }

  /// Monotonic counter bumped whenever a valid entry is dropped, displaced
  /// or the hit predicate changes (way partitions, flushes). Same contract
  /// as Cache::removal_epoch(): while unchanged, an entry observed valid at
  /// an index is still there, same vpn/pfn/flags/asid.
  std::uint64_t removal_epoch() const { return removal_epoch_; }

  /// find_index()'s "lookup() would miss" result.
  static constexpr std::uint32_t kNoIndex = ~0u;

  /// Locates the entry index that lookup(va, asid) would hit, or kNoIndex
  /// if it would miss. Read-only (no LRU refresh, no counters). A plain
  /// sentinel, as with Cache::find_way: a std::optional result made the
  /// CPU's fetch-memo re-arm spill it through the stack.
  std::uint32_t find_index(VirtAddr va, Asid asid) const;

  /// Entry contents by index (for memo arming). Caller guarantees the index
  /// came from find_index() under an unchanged removal_epoch().
  const TlbEntry& entry_at(std::uint32_t index) const { return entries_[index]; }

  /// Replays the side effects of a hit on the entry at `index`: LRU stamp
  /// refresh and the hit counter — bit-identical to lookup()'s hit path.
  void repeat_hit(std::uint32_t index) {
    entries_[index].lru_stamp = ++clock_;
    ++hits_;
  }

 private:
  struct WayRange {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  WayRange ways_for(Asid asid) const;

  TlbConfig config_;
  std::uint32_t num_sets_ = 1;
  std::uint32_t set_mask_ = 0;  ///< num_sets - 1 when power of two, else 0.
  std::uint64_t removal_epoch_ = 0;
  std::vector<TlbEntry> entries_;
  /// Way partitions as a flat table indexed by Asid; count == 0 (and any
  /// id beyond the table) means "unrestricted". Same flat-LUT idiom as
  /// Cache::partition_lut_ — lookup() runs on the translation hot path.
  std::vector<WayRange> partition_lut_;
  std::uint32_t partitions_installed_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hwsec::sim
