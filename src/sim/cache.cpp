#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hwsec::sim {

std::string to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "LRU";
    case ReplacementPolicy::kTreePlru: return "tree-PLRU";
    case ReplacementPolicy::kRandom: return "random";
  }
  return "?";
}

namespace {

bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_pow2(std::uint32_t v) {
  std::uint32_t shift = 0;
  while ((1u << shift) < v) {
    ++shift;
  }
  return shift;
}

}  // namespace

Cache::Cache(CacheConfig config, std::uint64_t rng_seed)
    : config_(std::move(config)), rng_(rng_seed) {
  if (!is_pow2(config_.line_size)) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (config_.ways == 0 || config_.size_bytes % (config_.ways * config_.line_size) != 0) {
    throw std::invalid_argument("cache size must be a multiple of ways*line_size");
  }
  if (!is_pow2(config_.num_sets())) {
    throw std::invalid_argument("number of cache sets must be a power of two");
  }
  if (config_.ways > 32) {
    throw std::invalid_argument("at most 32 ways supported (valid-way bitmask)");
  }
  line_shift_ = log2_pow2(config_.line_size);
  set_mask_ = config_.num_sets() - 1;
  // Uninitialized on purpose: a line is written by its first fill and
  // read only under its valid bit, so no line byte is touched here.
  lines_ = std::make_unique_for_overwrite<Line[]>(line_count());
  valid_ways_.assign(config_.num_sets(), 0);
  occupied_sets_.assign((config_.num_sets() + 63) / 64, 0);
  if (config_.policy == ReplacementPolicy::kTreePlru) {
    plru_bits_.assign(config_.num_sets(), 0);
  }
}

Cache::Cache(const Cache& other) { *this = other; }

Cache& Cache::operator=(const Cache& other) {
  if (this == &other) {
    return *this;
  }
  if (lines_ == nullptr || config_.ways != other.config_.ways ||
      set_mask_ != other.set_mask_) {
    lines_ = std::make_unique_for_overwrite<Line[]>(other.line_count());
  }
  config_ = other.config_;
  line_shift_ = other.line_shift_;
  set_mask_ = other.set_mask_;
  valid_lines_ = other.valid_lines_;
  removal_epoch_ = other.removal_epoch_;
  valid_ways_ = other.valid_ways_;
  occupied_sets_ = other.occupied_sets_;
  plru_bits_ = other.plru_bits_;
  partition_lut_ = other.partition_lut_;
  clock_ = other.clock_;
  scramble_key_ = other.scramble_key_;
  rng_ = other.rng_;
  stats_ = other.stats_;
  per_domain_ = other.per_domain_;
  copy_valid_lines(other);
  return *this;
}

void Cache::copy_valid_lines(const Cache& other) {
  for (std::uint32_t w = 0; w < other.occupied_sets_.size(); ++w) {
    for (std::uint64_t sets = other.occupied_sets_[w]; sets != 0; sets &= sets - 1) {
      copy_set_lines(other, (w << 6) + static_cast<std::uint32_t>(std::countr_zero(sets)));
    }
  }
}

void Cache::copy_set_lines(const Cache& other, std::uint32_t set) {
  for (std::uint32_t mask = other.valid_ways_[set]; mask != 0; mask &= mask - 1) {
    const auto way = static_cast<std::uint32_t>(std::countr_zero(mask));
    line_at(set, way) = other.line_at(set, way);
  }
}

bool Cache::probe(PhysAddr addr) const {
  const PhysAddr base = line_base(addr);
  const std::uint32_t set = set_index(addr);
  for (std::uint32_t mask = valid_ways_[set]; mask != 0; mask &= mask - 1) {
    if (line_at(set, static_cast<std::uint32_t>(std::countr_zero(mask))).tag_base == base) {
      return true;
    }
  }
  return false;
}

void Cache::flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count) {
  if (empty()) {
    return;
  }
  if (stride != config_.line_size || scramble_key_ != 0) {
    PhysAddr a = base;
    for (std::uint32_t i = 0; i < count; ++i, a += stride) {
      flush_line(a);
    }
    return;
  }
  // Line i of the run is line_base(base) + i * line_size, in set
  // (set_index(base) + i) mod num_sets: a chunk of at most num_sets lines
  // maps to distinct sets.
  const std::uint32_t num_sets = set_mask_ + 1;
  PhysAddr first = line_base(base);
  while (count != 0) {
    const std::uint32_t n = std::min(count, num_sets);
    flush_line_run(first, n);
    first += n * config_.line_size;
    count -= n;
  }
}

void Cache::flush_line_run(PhysAddr first_line, std::uint32_t n) {
  const std::uint32_t s0 = set_index(first_line);
  // The run's sets [s0, s0 + n) wrap at most once: two contiguous segments.
  const auto segment = [&](std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t w = lo >> 6; lo < hi; ++w) {
      const std::uint32_t word_base = w << 6;
      const std::uint32_t end = std::min(hi, word_base + 64);
      std::uint64_t bits = occupied_sets_[w] >> (lo - word_base);
      if (end - lo < 64) {
        bits &= (std::uint64_t{1} << (end - lo)) - 1;
      }
      while (bits != 0) {
        const std::uint32_t set = lo + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        flush_in_set(set, first_line + ((set - s0) & set_mask_) * config_.line_size);
      }
      lo = end;
    }
  };
  const std::uint32_t num_sets = set_mask_ + 1;
  if (s0 + n <= num_sets) {
    segment(s0, s0 + n);
  } else {
    segment(s0, num_sets);
    segment(0, s0 + n - num_sets);
  }
}

std::uint32_t Cache::drop_owned(DomainId domain, std::uint32_t ways) {
  std::uint32_t dropped = 0;
  for (std::uint32_t w = 0; w < occupied_sets_.size(); ++w) {
    for (std::uint64_t sets = occupied_sets_[w]; sets != 0; sets &= sets - 1) {
      const std::uint32_t set = (w << 6) + static_cast<std::uint32_t>(std::countr_zero(sets));
      for (std::uint32_t mask = valid_ways_[set] & ways; mask != 0; mask &= mask - 1) {
        const auto way = static_cast<std::uint32_t>(std::countr_zero(mask));
        if (line_at(set, way).owner == domain) {
          invalidate(set, way);
          ++dropped;
        }
      }
    }
  }
  return dropped;
}

std::uint32_t Cache::flush_domain(DomainId domain) {
  ++removal_epoch_;
  const std::uint32_t dropped = drop_owned(domain, ~0u);
  stats_.flushes += dropped;
  return dropped;
}

void Cache::flush_all() {
  ++removal_epoch_;
  for (std::uint32_t w = 0; w < occupied_sets_.size(); ++w) {
    for (std::uint64_t sets = occupied_sets_[w]; sets != 0; sets &= sets - 1) {
      valid_ways_[(w << 6) + static_cast<std::uint32_t>(std::countr_zero(sets))] = 0;
    }
    occupied_sets_[w] = 0;
  }
  valid_lines_ = 0;
  ++stats_.flushes;
}

void Cache::set_way_partition(DomainId domain, std::uint32_t first_way, std::uint32_t num_ways) {
  ++removal_epoch_;  // the hit predicate (ways_for) changes shape.
  if (num_ways == 0) {
    if (domain < partition_lut_.size()) {
      partition_lut_[domain] = {};
    }
    return;
  }
  if (first_way + num_ways > config_.ways) {
    throw std::invalid_argument("way partition out of range");
  }
  if (domain >= partition_lut_.size()) {
    partition_lut_.resize(static_cast<std::size_t>(domain) + 1);
  }
  partition_lut_[domain] = {first_way, num_ways};
  // Drop lines the domain holds outside its new partition: stale occupancy
  // in foreign ways would leak the domain's pre-partition footprint.
  drop_owned(domain, ~range_mask({first_way, num_ways}));
}

std::uint32_t Cache::find_way(PhysAddr addr, DomainId domain) const {
  const PhysAddr base = line_base(addr);
  const std::uint32_t set = set_index(addr);
  for (std::uint32_t mask = valid_ways_[set] & range_mask(ways_for(domain)); mask != 0;
       mask &= mask - 1) {
    const auto way = static_cast<std::uint32_t>(std::countr_zero(mask));
    if (line_at(set, way).tag_base == base) {
      return (set << 8) | way;
    }
  }
  return kNoWay;
}

void Cache::set_index_scramble(std::uint64_t key) {
  scramble_key_ = key;
  flush_all();  // old placements are meaningless under the new mapping.
}

void Cache::rekey(std::uint64_t new_key) { set_index_scramble(new_key); }

std::uint32_t Cache::occupancy(PhysAddr addr, DomainId domain) const {
  const std::uint32_t set = set_index(addr);
  std::uint32_t count = 0;
  for (std::uint32_t mask = valid_ways_[set]; mask != 0; mask &= mask - 1) {
    if (line_at(set, static_cast<std::uint32_t>(std::countr_zero(mask))).owner == domain) {
      ++count;
    }
  }
  return count;
}

const CacheStats& Cache::domain_stats(DomainId domain) const {
  return domain_slot(domain);  // zero-filled slot for unseen domains.
}

void Cache::reset_stats() {
  stats_ = {};
  per_domain_.clear();
}

void Cache::restore_from(const Cache& snap) {
  // removal_epoch_ stays monotonic across restores (never rolled back to
  // the snapshot's value): any fetch memo armed against pre-restore state
  // must observe a change, whichever path runs.
  const std::uint64_t epoch_after = removal_epoch_ + 1;
  if (!same_geometry(snap)) {
    *this = snap;
    removal_epoch_ = epoch_after;
    return;
  }
  // Validity: a set unoccupied on both sides has an all-zero mask on both.
  for (std::size_t w = 0; w < occupied_sets_.size(); ++w) {
    for (std::uint64_t sets = occupied_sets_[w] | snap.occupied_sets_[w]; sets != 0;
         sets &= sets - 1) {
      const std::size_t set = (w << 6) + static_cast<std::size_t>(std::countr_zero(sets));
      valid_ways_[set] = snap.valid_ways_[set];
    }
    occupied_sets_[w] = snap.occupied_sets_[w];
  }
  // Contents, for the sets occupied in the snapshot only (a separate walk
  // keeps the validity loop free of it: pooled snapshots are empty). A set
  // occupied only here needs none: its lines are invalid once the mask is
  // back, and a fill rewrites a line before making it valid again. Its
  // PLRU word may stay stale: a victim is chosen only among valid (so
  // since-restore filled) ways, and every tree node on a filled way's
  // path was rewritten by that fill. A node no filled way lies under spans
  // a way interval disjoint from the contiguous candidate range, and
  // plru_victim clamps any leaf there to the same end of the range,
  // whatever the stale bits say.
  if (!snap.empty()) {
    const bool plru = config_.policy == ReplacementPolicy::kTreePlru;
    for (std::uint32_t w = 0; w < snap.occupied_sets_.size(); ++w) {
      for (std::uint64_t sets = snap.occupied_sets_[w]; sets != 0; sets &= sets - 1) {
        const std::uint32_t set = (w << 6) + static_cast<std::uint32_t>(std::countr_zero(sets));
        copy_set_lines(snap, set);
        if (plru) {
          plru_bits_[set] = snap.plru_bits_[set];
        }
      }
    }
  }
  valid_lines_ = snap.valid_lines_;
  removal_epoch_ = epoch_after;
  // Scalar and small per-domain state is cheap enough to restore always.
  partition_lut_ = snap.partition_lut_;
  clock_ = snap.clock_;
  scramble_key_ = snap.scramble_key_;
  rng_ = snap.rng_;
  stats_ = snap.stats_;
  per_domain_ = snap.per_domain_;
}

std::uint32_t Cache::choose_victim(std::uint32_t set, WayRange range) {
  // access() fills an invalid way itself; only full ranges get here.
  assert(range.count > 0 && (~valid_ways_[set] & range_mask(range)) == 0);
  switch (config_.policy) {
    case ReplacementPolicy::kLru: {
      std::uint32_t victim = range.first;
      std::uint64_t oldest = line_at(set, range.first).lru_stamp;
      for (std::uint32_t w = range.first + 1; w < range.first + range.count; ++w) {
        if (line_at(set, w).lru_stamp < oldest) {
          oldest = line_at(set, w).lru_stamp;
          victim = w;
        }
      }
      return victim;
    }
    case ReplacementPolicy::kTreePlru:
      return plru_victim(set, range);
    case ReplacementPolicy::kRandom:
      return range.first + static_cast<std::uint32_t>(rng_.below(range.count));
  }
  return range.first;
}

// Tree-PLRU over the full way array; when a partition restricts the
// candidate range we walk the tree but clamp the final leaf into range
// (real partitioned PLRU designs maintain sub-trees; clamping preserves
// the "approximately least recent" behaviour that matters for eviction-set
// experiments without modeling vendor-specific sub-tree layouts).
void Cache::touch_plru(std::uint32_t set, std::uint32_t way) {
  std::uint32_t& bits = plru_bits_[set];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = config_.ways;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      bits |= (1u << node);  // point away from the touched half.
      node = 2 * node + 1;
      hi = mid;
    } else {
      bits &= ~(1u << node);
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

std::uint32_t Cache::plru_victim(std::uint32_t set, WayRange range) {
  const std::uint32_t bits = plru_bits_[set];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = config_.ways;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (bits & (1u << node)) {
      node = 2 * node + 1;
      hi = mid;
    } else {
      node = 2 * node + 2;
      lo = mid;
    }
  }
  if (lo < range.first) {
    return range.first;
  }
  if (lo >= range.first + range.count) {
    return range.first + range.count - 1;
  }
  return lo;
}

}  // namespace hwsec::sim
