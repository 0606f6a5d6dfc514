#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace hwsec::sim {

PhysicalMemory::PhysicalMemory(std::uint32_t bytes) {
  const std::uint32_t rounded = (bytes + kPageSize - 1) & ~kPageOffsetMask;
  data_.assign(rounded, 0);
}

std::uint8_t PhysicalMemory::read8(PhysAddr addr) const {
  assert(contains(addr));
  return data_[addr];
}

void PhysicalMemory::write8(PhysAddr addr, std::uint8_t value) {
  assert(contains(addr));
  mark_dirty(addr, 1);
  data_[addr] = value;
}

Word PhysicalMemory::read32(PhysAddr addr) const {
  assert(contains(addr, 4));
  return static_cast<Word>(data_[addr]) | static_cast<Word>(data_[addr + 1]) << 8 |
         static_cast<Word>(data_[addr + 2]) << 16 | static_cast<Word>(data_[addr + 3]) << 24;
}

void PhysicalMemory::write32(PhysAddr addr, Word value) {
  assert(contains(addr, 4));
  mark_dirty(addr, 4);
  store32(addr, value);
}

void PhysicalMemory::inject_write32_without_dirty_bit(PhysAddr addr, Word value) {
  assert(contains(addr, 4));
  store32(addr, value);
}

void PhysicalMemory::store32(PhysAddr addr, Word value) {
  data_[addr] = static_cast<std::uint8_t>(value);
  data_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
  data_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
  data_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

void PhysicalMemory::read_block(PhysAddr addr, std::span<std::uint8_t> out) const {
  assert(contains(addr, static_cast<std::uint32_t>(out.size())));
  std::copy_n(data_.begin() + addr, out.size(), out.begin());
}

void PhysicalMemory::write_block(PhysAddr addr, std::span<const std::uint8_t> in) {
  assert(contains(addr, static_cast<std::uint32_t>(in.size())));
  if (!in.empty()) {
    mark_dirty(addr, static_cast<std::uint32_t>(in.size()));
  }
  std::copy(in.begin(), in.end(), data_.begin() + addr);
}

void PhysicalMemory::fill(PhysAddr addr, std::uint32_t len, std::uint8_t value) {
  assert(contains(addr, len));
  if (len == 0) {
    return;
  }
  if (value == 0 && tracking_ && !raw_dirty_ && !zero_snap_.empty()) {
    // Zeroing a page that was zero at snapshot time and is still clean is a
    // no-op: the bytes are already zero. Skipping the write also keeps the
    // page out of the dirty set, so the next restore() skips it too. This
    // makes the allocator's zero-fill of freshly mapped frames (the bulk of
    // per-trial setup writes) nearly free on pooled machines.
    const std::uint32_t first = addr >> kPageShift;
    const std::uint32_t last = (addr + len - 1) >> kPageShift;
    for (std::uint32_t p = first; p <= last; ++p) {
      const bool skippable = (dirty_[p >> 6] & (1ull << (p & 63))) == 0 &&
                             (zero_snap_[p >> 6] & (1ull << (p & 63))) != 0;
      if (skippable) {
        continue;
      }
      const PhysAddr page_base = p << kPageShift;
      const PhysAddr lo = std::max(addr, page_base);
      const PhysAddr hi = std::min<std::uint64_t>(static_cast<std::uint64_t>(addr) + len,
                                                  page_base + kPageSize);
      mark_dirty(lo, static_cast<std::uint32_t>(hi - lo));
      std::fill_n(data_.begin() + lo, hi - lo, value);
    }
    return;
  }
  mark_dirty(addr, len);
  std::fill_n(data_.begin() + addr, len, value);
}

PhysicalMemory::Snapshot PhysicalMemory::snapshot() {
  Snapshot snap;
  tracking_ = true;
  raw_dirty_ = false;
  const std::uint32_t pages = static_cast<std::uint32_t>(data_.size() / kPageSize);
  const std::size_t words = (pages + 63) / 64;
  dirty_.assign(words, 0);
  // Record which pages are all-zero in the snapshot image (see fill());
  // only the others are copied into it.
  zero_snap_.assign(words, 0);
  snap.slot.assign(pages, Snapshot::kZeroPage);
  std::uint32_t stored = 0;
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::uint8_t* page = data_.data() + static_cast<std::size_t>(p) * kPageSize;
    if (std::memcmp(page, kZeroPageBytes.data(), kPageSize) == 0) {
      zero_snap_[p >> 6] |= 1ull << (p & 63);
    } else {
      snap.slot[p] = stored++;
      snap.pages.insert(snap.pages.end(), page, page + kPageSize);
    }
  }
  return snap;
}

void PhysicalMemory::restore_page(const Snapshot& snap, std::uint32_t page) {
  std::uint8_t* dst = data_.data() + static_cast<std::size_t>(page) * kPageSize;
  if (snap.zero(page)) {
    std::memset(dst, 0, kPageSize);
  } else {
    std::memcpy(dst, snap.page(page).data(), kPageSize);
  }
}

void PhysicalMemory::restore(const Snapshot& snap) {
  const std::uint32_t pages = static_cast<std::uint32_t>(data_.size() / kPageSize);
  assert(snap.slot.size() == pages);
  if (!tracking_ || raw_dirty_) {
    // No tracking (snapshot taken elsewhere) or the fast path was poisoned
    // by a mutable raw() span: fall back to restoring every page.
    for (std::uint32_t page = 0; page < pages; ++page) {
      restore_page(snap, page);
    }
  } else {
    for (std::uint32_t word = 0; word < dirty_.size(); ++word) {
      std::uint64_t bits = dirty_[word];
      while (bits != 0) {
        const std::uint32_t bit = static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t page = word * 64 + bit;
        if (page >= pages) {
          break;
        }
        restore_page(snap, page);
      }
    }
  }
  tracking_ = true;
  raw_dirty_ = false;
  dirty_.assign((data_.size() / kPageSize + 63) / 64, 0);
}

std::uint32_t PhysicalMemory::dirty_page_count() const {
  std::uint32_t count = 0;
  for (const std::uint64_t word : dirty_) {
    count += static_cast<std::uint32_t>(std::popcount(word));
  }
  return count;
}

}  // namespace hwsec::sim
