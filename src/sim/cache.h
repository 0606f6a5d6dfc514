// Set-associative cache model with the security controls that the surveyed
// architectures rely on.
//
// A single Cache object models one level (an L1D, L1I, or shared LLC).
// Composition into a hierarchy lives in sim/cache_hierarchy.h.
//
// Security-relevant features:
//  * every line is tagged with the DomainId that filled it (used by stats
//    and by flush_domain);
//  * way partitioning (DAWG / Sanctum-style strict partitioning): a domain
//    may be restricted to a contiguous range of ways, making Prime+Probe
//    across the partition impossible;
//  * line flush (CLFLUSH analogue) and whole-domain flush (used by
//    Sanctuary/Sanctum on enclave context switches);
//  * deterministic replacement (LRU / tree-PLRU) or seeded random
//    replacement, for the eviction-set reliability ablation.
//
// Validity lives only in the per-set way masks (valid_ways_, summarized
// one bit per set in occupied_sets_): a Line carries no valid flag, and
// every reader (lookups, flushes, occupancy, the victim chooser) consults
// the mask first, so an invalid line's stale contents can never be
// observed. That is what keeps snapshot restores cheap: validity-only
// operations (flush_line, flush_domain, flush_all, partition changes,
// rekeys) change nothing but masks, so restore_from() puts back the
// snapshot's masks for every set occupied on either side, and copies line
// contents (and the tree-PLRU word) only for the sets occupied in the
// snapshot. The machine pool's pristine snapshots are taken with empty
// caches, so a pooled reset puts back masks and copies no line.
//
// Line storage contract: no Line byte is written before the fill that sets
// its way's valid bit, and none is read while that bit is clear. The line
// array is allocated without initialization (make_unique_for_overwrite, and
// Line has no member initializers), so building a cache costs its masks,
// not its lines: a 4 MiB LLC's 1 MiB line array stays untouched host
// memory until fills reach it. Copies (snapshots, the machine pool's
// pristine images) and restores carry the masks plus the valid lines of
// occupied sets only, so copying or restoring an empty cache copies no
// line bytes. This is not the lazily mapped DRAM that was
// rejected for PhysicalMemory: there, the differ's full sweep reads every
// page and would fault them all in; no cache code walks all lines, and
// every walk goes through the occupancy bitmaps.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace hwsec::sim {

enum class ReplacementPolicy : std::uint8_t {
  kLru,
  kTreePlru,
  kRandom,
};

std::string to_string(ReplacementPolicy p);

struct CacheConfig {
  std::string name = "cache";
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;
  std::uint32_t line_size = 64;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
  Cycle hit_latency = 4;

  std::uint32_t num_sets() const { return size_bytes / (ways * line_size); }
};

/// Per-domain and aggregate counters. Hits/misses are counted against the
/// domain issuing the access; evictions against the domain that owned the
/// evicted line (the victim of the eviction, which is what a Prime+Probe
/// attacker cares about).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class Cache {
 public:
  explicit Cache(CacheConfig config, std::uint64_t rng_seed = 1);

  /// Copies carry the masks and the valid lines of occupied sets only (see
  /// the file comment); assignment reuses the line array when the geometry
  /// matches.
  Cache(const Cache& other);
  Cache& operator=(const Cache& other);
  Cache(Cache&&) noexcept = default;
  Cache& operator=(Cache&&) noexcept = default;

  const CacheConfig& config() const { return config_; }

  /// Result of a lookup-with-fill. Plain scalars on purpose: with a
  /// std::optional member GCC built the result on the stack with narrow
  /// stores and read it back with wide loads, a store-forwarding stall on
  /// every call (a probe-array fill measured ~3x slower).
  struct AccessResult {
    bool hit = false;
    /// A valid line was displaced to make room for the fill (miss only).
    /// Inclusive hierarchies back-invalidate evicted_line.
    bool evicted = false;
    /// Domain that owned the evicted line.
    DomainId evicted_domain = kDomainNormal;
    /// Physical line base of the evicted line (meaningful when evicted).
    PhysAddr evicted_line = 0;
  };

  /// Looks up `addr` on behalf of `domain`; on miss, fills the line,
  /// evicting per the replacement policy (restricted to the domain's way
  /// partition if one is configured).
  ///
  /// Always inlined: its callers are hot loops (the CPU data path, probe
  /// sweeps), and inlined into one the cache's configuration stays in
  /// registers across calls.
  /// Reads, writes and fetches look up and fill alike: the model has no
  /// write-back, so it keeps no dirty state.
  [[gnu::always_inline]] AccessResult access(PhysAddr addr, DomainId domain);

  /// Lookup without side effects: true if the line is present (any domain).
  bool probe(PhysAddr addr) const;

  /// Invalidates the line containing `addr` if present; returns whether a
  /// line was dropped.
  bool flush_line(PhysAddr addr);

  /// flush_line() for `count` addresses `stride` bytes apart from `base`,
  /// with the same resulting state and counters (flushes of distinct lines
  /// commute). With a line-sized stride and the identity set mapping the
  /// run covers consecutive sets, so only the occupied ones are visited,
  /// one occupied_sets_ word at a time (in chunks of num_sets lines when
  /// the run wraps); scrambled or non-line strides flush line by line.
  void flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count);

  /// Invalidates every line owned by `domain`; returns the count dropped.
  std::uint32_t flush_domain(DomainId domain);

  /// Invalidates everything.
  void flush_all();

  /// Restricts `domain` to ways [first_way, first_way + num_ways). Lines
  /// the domain currently holds outside its partition are invalidated so
  /// a partition change cannot leak stale occupancy. Pass num_ways == 0 to
  /// remove the restriction.
  void set_way_partition(DomainId domain, std::uint32_t first_way, std::uint32_t num_ways);

  /// Number of valid lines currently owned by `domain` in the set that
  /// `addr` maps to. Used by tests and by attack heuristics.
  std::uint32_t occupancy(PhysAddr addr, DomainId domain) const;

  /// Randomized address-to-set mapping (Wang & Lee [40] / CEASER-family):
  /// with a nonzero key, the set index is a keyed permutation of the line
  /// address. rekey() installs a fresh key and flushes (a remap epoch):
  /// any eviction sets an attacker learned become stale.
  void set_index_scramble(std::uint64_t key);
  void rekey(std::uint64_t new_key);
  std::uint64_t scramble_key() const { return scramble_key_; }

  std::uint32_t set_index(PhysAddr addr) const {
    // line_size and num_sets are powers of two (enforced at construction),
    // so the division/modulo reduce to shift/mask — set_index sits on the
    // hottest path in the simulator and the two hardware divides that used
    // to live here were measurable in whole-campaign profiles.
    const std::uint32_t line = addr >> line_shift_;
    if (scramble_key_ == 0) {
      return line & set_mask_;
    }
    // splitmix-style keyed diffusion; sets must only be balanced, not
    // cryptographically strong, for the modeled property.
    std::uint64_t x = line ^ scramble_key_;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 31;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x) & set_mask_;
  }
  PhysAddr line_base(PhysAddr addr) const { return addr & ~(config_.line_size - 1); }

  /// True when no line in the whole cache is valid. Lets the hierarchy's
  /// flush paths skip caches that never held anything (the common case for
  /// the non-active cores' private caches in single-core trials).
  bool empty() const { return valid_lines_ == 0; }

  /// Monotonic counter bumped whenever a *valid* line is dropped or
  /// displaced, or the hit predicate changes shape (way partitions,
  /// scramble rekey, whole-cache flushes, snapshot restores roll it back
  /// together with the line array). While the counter is unchanged, a line
  /// observed valid at (set, way) is still there with the same tag and the
  /// same domain visibility — the foundation of the CPU's fetch memo.
  std::uint64_t removal_epoch() const { return removal_epoch_; }

  /// find_way()'s "access() would miss" result. Never a found way's
  /// encoding: a way is at most 31, so its low byte is never 0xFF.
  static constexpr std::uint32_t kNoWay = ~0u;

  /// Locates the way holding `addr`'s line as a hit by `domain` would find
  /// it (honoring the domain's way partition). Returns (set << 8) | way,
  /// or kNoWay when access() would miss. Read-only. A plain sentinel, not
  /// std::optional, for the reason given at AccessResult: the CPU's fetch
  /// memo re-arms with it on every memo miss.
  std::uint32_t find_way(PhysAddr addr, DomainId domain) const;

  /// Replays the side effects of a *hit* previously located by
  /// find_way(): LRU stamp, PLRU touch, hit counters — bit-identical to
  /// the hit path of access(). Callers must ensure removal_epoch() is
  /// unchanged since the line was located.
  void repeat_hit(std::uint32_t set, std::uint32_t way, DomainId domain) {
    line_at(set, way).lru_stamp = ++clock_;
    if (config_.policy == ReplacementPolicy::kTreePlru) {
      touch_plru(set, way);  // mirrors the hit path of access() exactly.
    }
    ++stats_.hits;
    ++domain_slot(domain).hits;
  }

  const CacheStats& stats() const { return stats_; }
  const CacheStats& domain_stats(DomainId domain) const;
  void reset_stats();

  /// Restores this cache to the state captured in `snap`, a copy of any
  /// cache of the same configuration. Walks both occupied_sets_ bitmaps
  /// (O(sets/64 + occupied sets)): every set occupied on either side gets
  /// the snapshot's way mask back, and every set occupied in the snapshot
  /// also gets its valid lines and, under tree-PLRU, its PLRU word. A set
  /// empty in the snapshot needs nothing more (see the definition for why
  /// its stale lines and PLRU bits are unobservable), so restoring an
  /// empty snapshot copies no line. A snapshot of a different geometry is
  /// copied whole.
  void restore_from(const Cache& snap);

 private:
  /// Field order packs the line into 16 bytes (tag+owner in one 8-byte
  /// word, stamp in the other): the line array is the simulator's
  /// hottest data structure and its footprint is what the host's caches
  /// have to absorb on every probe sweep.
  /// Whether the line is valid is not a field: it is the way's bit in
  /// valid_ways_ (see the file comment). No member initializers on
  /// purpose: the array is allocated uninitialized and every field is
  /// written by the fill that makes the line valid.
  struct Line {
    PhysAddr tag_base;  ///< line-aligned physical address.
    DomainId owner;
    std::uint64_t lru_stamp;
  };

  struct WayRange {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  WayRange ways_for(DomainId domain) const {
    if (domain < partition_lut_.size() && partition_lut_[domain].count != 0) {
      return partition_lut_[domain];
    }
    return {0, config_.ways};
  }
  static std::uint32_t range_mask(WayRange range) {
    return range.count >= 32 ? ~0u : ((1u << range.count) - 1u) << range.first;
  }
  /// Drops the valid line at (set, way): mask, occupancy and count only.
  void invalidate(std::uint32_t set, std::uint32_t way) {
    valid_ways_[set] &= ~(1u << way);
    mark_occupancy(set);
    --valid_lines_;
  }
  /// Invalidates `domain`'s lines in the `ways` mask of every occupied set;
  /// returns the count dropped.
  std::uint32_t drop_owned(DomainId domain, std::uint32_t ways);
  /// flush_line() for a set already known to be occupied.
  bool flush_in_set(std::uint32_t set, PhysAddr addr);
  /// flush_lines() over `n` <= num_sets consecutive lines from `first_line`.
  void flush_line_run(PhysAddr first_line, std::uint32_t n);
  std::uint32_t choose_victim(std::uint32_t set, WayRange range);
  std::size_t line_count() const { return std::size_t{set_mask_ + 1} * config_.ways; }
  /// Same line array and PLRU layout as `other`: restore_from() can then
  /// work set by set.
  bool same_geometry(const Cache& other) const {
    return config_.ways == other.config_.ways && set_mask_ == other.set_mask_ &&
           line_shift_ == other.line_shift_ && config_.policy == other.config_.policy;
  }
  /// Copies `other`'s valid lines into this cache's (same-geometry) array.
  void copy_valid_lines(const Cache& other);
  /// Copies the lines valid in `other`'s set `set` into the same slots here.
  void copy_set_lines(const Cache& other, std::uint32_t set);
  Line& line_at(std::uint32_t set, std::uint32_t way) { return lines_[set * config_.ways + way]; }
  const Line& line_at(std::uint32_t set, std::uint32_t way) const {
    return lines_[set * config_.ways + way];
  }
  void touch_plru(std::uint32_t set, std::uint32_t way);
  std::uint32_t plru_victim(std::uint32_t set, WayRange range);

  /// Per-domain stats slot, growing the flat array on first sight of a
  /// domain. DomainIds are small dense integers, so a vector indexed by id
  /// replaces two unordered_map lookups per access on the hottest path in
  /// the simulator. Growth invalidates previously returned references —
  /// callers read counters immediately (and did under the map, too).
  CacheStats& domain_slot(DomainId domain) const {
    if (domain >= per_domain_.size()) {
      per_domain_.resize(static_cast<std::size_t>(domain) + 1);
    }
    return per_domain_[domain];
  }

  CacheConfig config_;
  std::uint32_t line_shift_ = 6;  ///< log2(line_size), for set_index.
  std::uint32_t set_mask_ = 0;    ///< num_sets - 1, for set_index.
  /// line_count() lines, set-major, allocated uninitialized (see the file
  /// comment): only lines whose way's valid bit is set hold meaningful bytes.
  std::unique_ptr<Line[]> lines_;
  std::uint32_t valid_lines_ = 0;  ///< total valid lines, for empty().
  std::uint64_t removal_epoch_ = 0;
  /// Per-set bitmask of valid ways. Gives flush_line an O(1) miss and the
  /// victim chooser an O(1) invalid-way scan instead of walking the ways.
  std::vector<std::uint32_t> valid_ways_;
  /// One bit per set: set holds at least one valid line (bit set iff
  /// valid_ways_[set] != 0). Probe-array flush sweeps test this 2 KiB
  /// bitmap instead of loading scattered words of the (for an LLC, 64 KiB)
  /// valid_ways_ array — the sweep's working set then fits the host L1.
  std::vector<std::uint64_t> occupied_sets_;
  bool set_occupied(std::uint32_t set) const {
    return (occupied_sets_[set >> 6] >> (set & 63)) & 1u;
  }
  void mark_occupancy(std::uint32_t set) {
    if (valid_ways_[set] != 0) {
      occupied_sets_[set >> 6] |= std::uint64_t{1} << (set & 63);
    } else {
      occupied_sets_[set >> 6] &= ~(std::uint64_t{1} << (set & 63));
    }
  }
  /// One bitfield of tree bits per set; allocated for tree-PLRU caches
  /// only (the bits are dead state under LRU and random).
  std::vector<std::uint32_t> plru_bits_;
  /// Way partitions as a flat table indexed by DomainId (domains are small
  /// dense integers). A slot with count == 0 — including every id beyond
  /// the table — means "unrestricted". Replaces a per-access
  /// unordered_map::find on the hottest path in the simulator.
  std::vector<WayRange> partition_lut_;
  std::uint64_t clock_ = 0;  ///< LRU stamp source.
  std::uint64_t scramble_key_ = 0;
  Rng rng_;
  CacheStats stats_;
  mutable std::vector<CacheStats> per_domain_;  ///< indexed by DomainId.
};

// access() and flush_line() are defined inline: a single probe-array trial
// issues hundreds of each (the 256-line scan misses twice per line, the
// pre-scan flush sweeps every level), so the call overhead and the lost
// cross-call hoisting were measurable in whole-campaign profiles.

inline Cache::AccessResult Cache::access(PhysAddr addr, DomainId domain) {
  const PhysAddr base = line_base(addr);
  const std::uint32_t set = set_index(addr);
  const WayRange range = ways_for(domain);

  // Hit path: a domain restricted by a partition can only *hit* within its
  // partition — that is what makes the partition a side-channel defense and
  // not just a quota. Scanning the valid-way mask instead of the Line array
  // makes a miss in a sparse set (every probe-array scan after a flush) a
  // single word load; countr_zero preserves the ascending way order of the
  // linear scan it replaces.
  const std::uint32_t ways = range_mask(range);
  const std::uint32_t valid = valid_ways_[set];
  for (std::uint32_t mask = valid & ways; mask != 0; mask &= mask - 1) {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(mask));
    Line& line = line_at(set, w);
    if (line.tag_base == base) {
      line.lru_stamp = ++clock_;
      if (config_.policy == ReplacementPolicy::kTreePlru) {
        touch_plru(set, w);  // the tree bits are dead state under LRU/random.
      }
      ++stats_.hits;
      ++domain_slot(domain).hits;
      return {.hit = true};
    }
  }

  // Miss: choose a victim within the domain's ways and fill. The invalid-way
  // case (every fill into a set that is not yet full — all of a probe-array
  // sweep after its flush) stays inline; only a genuinely full set pays the
  // policy walk in choose_victim.
  ++stats_.misses;
  ++domain_slot(domain).misses;
  const std::uint32_t invalid_ways = ~valid & ways;
  const std::uint32_t victim_way =
      invalid_ways != 0 ? static_cast<std::uint32_t>(std::countr_zero(invalid_ways))
                        : choose_victim(set, range);
  Line& victim = line_at(set, victim_way);
  AccessResult result;
  if (invalid_ways == 0) {
    result.evicted = true;
    result.evicted_line = victim.tag_base;
    result.evicted_domain = victim.owner;
    ++stats_.evictions;
    ++domain_slot(victim.owner).evictions;
    ++removal_epoch_;  // a valid line was displaced.
  } else {
    ++valid_lines_;
    valid_ways_[set] = valid | (1u << victim_way);
    occupied_sets_[set >> 6] |= std::uint64_t{1} << (set & 63);
  }
  victim.tag_base = base;
  victim.owner = domain;
  victim.lru_stamp = ++clock_;
  if (config_.policy == ReplacementPolicy::kTreePlru) {
    touch_plru(set, victim_way);
  }
  return result;
}

inline bool Cache::flush_line(PhysAddr addr) {
  const std::uint32_t set = set_index(addr);
  // Probe-array sweeps flush hundreds of mostly-absent lines per trial; the
  // occupancy bitmap answers those misses from ~2 KiB of state instead of
  // scattered loads across the full per-set way-mask array.
  if (!set_occupied(set)) {
    return false;  // no valid line in the set, so certainly not this one.
  }
  return flush_in_set(set, addr);
}

// A flush changes validity only (the way mask): restore_from() puts back
// the masks of every set occupied on either side.
inline bool Cache::flush_in_set(std::uint32_t set, PhysAddr addr) {
  std::uint32_t mask = valid_ways_[set];
  const PhysAddr base = line_base(addr);
  do {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    if (line_at(set, w).tag_base == base) {
      invalidate(set, w);
      ++removal_epoch_;
      ++stats_.flushes;
      return true;
    }
  } while (mask != 0);
  return false;
}

}  // namespace hwsec::sim
