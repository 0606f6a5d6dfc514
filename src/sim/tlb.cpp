#include "sim/tlb.h"

#include <stdexcept>

namespace hwsec::sim {

Tlb::Tlb(TlbConfig config) : config_(config) {
  if (config_.ways == 0 || config_.entries % config_.ways != 0) {
    throw std::invalid_argument("TLB entries must be a multiple of ways");
  }
  num_sets_ = config_.entries / config_.ways;
  if ((num_sets_ & (num_sets_ - 1)) == 0) {
    set_mask_ = num_sets_ - 1;
  }
  entries_.assign(config_.entries, TlbEntry{});
}

Tlb::WayRange Tlb::ways_for(Asid asid) const {
  if (asid < partition_lut_.size() && partition_lut_[asid].count != 0) {
    return partition_lut_[asid];
  }
  return {0, config_.ways};
}

void Tlb::set_way_partition(Asid asid, std::uint32_t first_way, std::uint32_t num_ways) {
  ++removal_epoch_;  // the hit predicate (ways_for) changes shape.
  if (num_ways == 0) {
    if (asid < partition_lut_.size() && partition_lut_[asid].count != 0) {
      partition_lut_[asid] = {};
      --partitions_installed_;
    }
    return;
  }
  if (first_way + num_ways > config_.ways) {
    throw std::invalid_argument("TLB way partition out of range");
  }
  if (asid >= partition_lut_.size()) {
    partition_lut_.resize(static_cast<std::size_t>(asid) + 1);
  }
  if (partition_lut_[asid].count == 0) {
    ++partitions_installed_;
  }
  partition_lut_[asid] = {first_way, num_ways};
  // Scrub entries the ASID holds outside its new partition.
  const std::uint32_t sets = config_.entries / config_.ways;
  for (std::uint32_t set = 0; set < sets; ++set) {
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (w >= first_way && w < first_way + num_ways) {
        continue;
      }
      TlbEntry& e = entries_[set * config_.ways + w];
      if (e.valid && e.asid == asid) {
        e.valid = false;
      }
    }
  }
}

std::optional<TlbEntry> Tlb::lookup(VirtAddr va, Asid asid) {
  const std::uint32_t vpn = page_number(va);
  const std::uint32_t set = set_index(va);
  const WayRange range = ways_for(asid);
  for (std::uint32_t w = range.first; w < range.first + range.count; ++w) {
    TlbEntry& e = entries_[set * config_.ways + w];
    if (e.valid && e.vpn == vpn && (!config_.asid_tagged || e.asid == asid)) {
      e.lru_stamp = ++clock_;
      ++hits_;
      return e;
    }
  }
  ++misses_;
  return std::nullopt;
}

std::uint32_t Tlb::find_index(VirtAddr va, Asid asid) const {
  const std::uint32_t vpn = page_number(va);
  const std::uint32_t set = set_index(va);
  const WayRange range = ways_for(asid);
  for (std::uint32_t w = range.first; w < range.first + range.count; ++w) {
    const std::uint32_t index = set * config_.ways + w;
    const TlbEntry& e = entries_[index];
    if (e.valid && e.vpn == vpn && (!config_.asid_tagged || e.asid == asid)) {
      return index;
    }
  }
  return kNoIndex;
}

bool Tlb::present(VirtAddr va, Asid asid) const {
  const std::uint32_t vpn = page_number(va);
  const std::uint32_t set = set_index(va);
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    const TlbEntry& e = entries_[set * config_.ways + w];
    if (e.valid && e.vpn == vpn && (!config_.asid_tagged || e.asid == asid)) {
      return true;
    }
  }
  return false;
}

void Tlb::insert(VirtAddr va, PhysAddr pa, Word flags, Asid asid) {
  const std::uint32_t set = set_index(va);
  const WayRange range = ways_for(asid);
  std::uint32_t victim = range.first;
  std::uint64_t oldest = UINT64_MAX;
  for (std::uint32_t w = range.first; w < range.first + range.count; ++w) {
    TlbEntry& e = entries_[set * config_.ways + w];
    if (!e.valid) {
      victim = w;
      break;
    }
    if (e.lru_stamp < oldest) {
      oldest = e.lru_stamp;
      victim = w;
    }
  }
  TlbEntry& e = entries_[set * config_.ways + victim];
  if (e.valid) {
    ++removal_epoch_;  // a valid translation is being displaced.
  }
  e.valid = true;
  e.vpn = page_number(va);
  e.pfn = page_number(pa);
  e.flags = flags;
  e.asid = asid;
  e.lru_stamp = ++clock_;
}

void Tlb::invalidate_page(VirtAddr va) {
  const std::uint32_t vpn = page_number(va);
  const std::uint32_t set = set_index(va);
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    TlbEntry& e = entries_[set * config_.ways + w];
    if (e.valid && e.vpn == vpn) {
      e.valid = false;
      ++removal_epoch_;
    }
  }
}

void Tlb::invalidate_asid(Asid asid) {
  for (TlbEntry& e : entries_) {
    if (e.valid && e.asid == asid) {
      e.valid = false;
      ++removal_epoch_;
    }
  }
}

void Tlb::flush() {
  ++removal_epoch_;
  for (TlbEntry& e : entries_) {
    e.valid = false;
  }
}

}  // namespace hwsec::sim
