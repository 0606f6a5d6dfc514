#include "sim/memory.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

namespace hwsec::sim {

namespace {

/// Calls visit(page, offset, length, done) for each page-sized piece of
/// [addr, addr + len), in address order; `done` counts the bytes before it.
template <typename Visit>
void for_each_piece(PhysAddr addr, std::uint32_t len, Visit&& visit) {
  for (std::uint32_t done = 0; done < len;) {
    const PhysAddr at = addr + done;
    const std::uint32_t off = at & kPageOffsetMask;
    const std::uint32_t n = std::min(len - done, kPageSize - off);
    visit(at >> kPageShift, off, n, done);
    done += n;
  }
}

std::array<std::uint8_t, 4> le_bytes(Word value) {
  return {static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
          static_cast<std::uint8_t>(value >> 16), static_cast<std::uint8_t>(value >> 24)};
}

}  // namespace

PhysicalMemory::PhysicalMemory(std::uint32_t bytes) {
  const std::uint32_t pages = (bytes + kPageSize - 1) >> kPageShift;
  page_.assign(pages, kZeroPageBytes.data());
  owned_.resize(pages);
}

void PhysicalMemory::materialize(std::uint32_t p) {
  std::unique_ptr<PageBuffer> buf;
  if (free_.empty()) {
    buf = std::make_unique<PageBuffer>();  // value-initialized: zero.
  } else {
    buf = std::move(free_.back());
    free_.pop_back();
    buf->bytes.fill(0);
  }
  page_[p] = buf->bytes.data();
  owned_[p] = std::move(buf);
}

void PhysicalMemory::release(std::uint32_t p) {
  page_[p] = kZeroPageBytes.data();
  free_.push_back(std::move(owned_[p]));
}

std::uint32_t PhysicalMemory::materialized_page_count() const {
  return static_cast<std::uint32_t>(
      std::count_if(owned_.begin(), owned_.end(), [](const auto& buf) { return buf != nullptr; }));
}

std::uint8_t PhysicalMemory::read8(PhysAddr addr) const {
  assert(contains(addr));
  return page_[addr >> kPageShift][addr & kPageOffsetMask];
}

void PhysicalMemory::write8(PhysAddr addr, std::uint8_t value) {
  assert(contains(addr));
  const std::uint32_t p = addr >> kPageShift;
  writable(p)[addr & kPageOffsetMask] = value;
  mark_dirty(p);
}

Word PhysicalMemory::read32(PhysAddr addr) const {
  assert(contains(addr, 4));
  const std::uint32_t off = addr & kPageOffsetMask;
  if (off > kPageSize - 4) [[unlikely]] {
    return static_cast<Word>(read8(addr)) | static_cast<Word>(read8(addr + 1)) << 8 |
           static_cast<Word>(read8(addr + 2)) << 16 | static_cast<Word>(read8(addr + 3)) << 24;
  }
  const std::uint8_t* b = page_[addr >> kPageShift] + off;
  return static_cast<Word>(b[0]) | static_cast<Word>(b[1]) << 8 |
         static_cast<Word>(b[2]) << 16 | static_cast<Word>(b[3]) << 24;
}

void PhysicalMemory::write32(PhysAddr addr, Word value) {
  assert(contains(addr, 4));
  const std::uint32_t off = addr & kPageOffsetMask;
  if (off > kPageSize - 4) [[unlikely]] {
    store(addr, le_bytes(value), /*mark=*/true);
    return;
  }
  const std::uint32_t p = addr >> kPageShift;
  std::memcpy(writable(p) + off, le_bytes(value).data(), 4);
  mark_dirty(p);
}

void PhysicalMemory::inject_write32_without_dirty_bit(PhysAddr addr, Word value) {
  assert(contains(addr, 4));
  store(addr, le_bytes(value), /*mark=*/false);
}

void PhysicalMemory::store(PhysAddr addr, std::span<const std::uint8_t> in, bool mark) {
  for_each_piece(addr, static_cast<std::uint32_t>(in.size()),
                 [&](std::uint32_t p, std::uint32_t off, std::uint32_t n, std::uint32_t done) {
                   std::memcpy(writable(p) + off, in.data() + done, n);
                   if (mark) {
                     mark_dirty(p);
                   }
                 });
}

void PhysicalMemory::read_block(PhysAddr addr, std::span<std::uint8_t> out) const {
  assert(contains(addr, static_cast<std::uint32_t>(out.size())));
  for_each_piece(addr, static_cast<std::uint32_t>(out.size()),
                 [&](std::uint32_t p, std::uint32_t off, std::uint32_t n, std::uint32_t done) {
                   std::memcpy(out.data() + done, page_[p] + off, n);
                 });
}

void PhysicalMemory::write_block(PhysAddr addr, std::span<const std::uint8_t> in) {
  assert(contains(addr, static_cast<std::uint32_t>(in.size())));
  store(addr, in, /*mark=*/true);
}

void PhysicalMemory::fill(PhysAddr addr, std::uint32_t len, std::uint8_t value) {
  assert(contains(addr, len));
  for_each_piece(addr, len,
                 [&](std::uint32_t p, std::uint32_t off, std::uint32_t n, std::uint32_t) {
                   if (value == 0 && aliased(p)) {
                     return;  // already zero: stays aliased and clean.
                   }
                   std::memset(writable(p) + off, value, n);
                   mark_dirty(p);
                 });
}

PhysicalMemory::Snapshot PhysicalMemory::snapshot() {
  Snapshot snap;
  tracking_ = true;
  const std::uint32_t pages = page_count();
  dirty_.assign((pages + 63) / 64, 0);
  snap.slot.assign(pages, Snapshot::kZeroPage);
  std::uint32_t stored = 0;
  for (std::uint32_t p = 0; p < pages; ++p) {
    if (!owned_[p]) {
      continue;  // the shared zero page.
    }
    if (std::memcmp(page_[p], kZeroPageBytes.data(), kPageSize) == 0) {
      release(p);
    } else {
      snap.slot[p] = stored++;
      snap.pages.insert(snap.pages.end(), page_[p], page_[p] + kPageSize);
    }
  }
  return snap;
}

void PhysicalMemory::restore_page(const Snapshot& snap, std::uint32_t p) {
  if (!snap.zero(p)) {
    std::memcpy(writable(p), snap.page(p).data(), kPageSize);
  } else if (owned_[p]) {
    release(p);
  }
}

void PhysicalMemory::restore(const Snapshot& snap) {
  const std::uint32_t pages = page_count();
  assert(snap.slot.size() == pages);
  if (!tracking_) {
    // Tracking was never enabled here (the snapshot was taken elsewhere):
    // no bitmap says what changed, so restore every page.
    for (std::uint32_t p = 0; p < pages; ++p) {
      restore_page(snap, p);
    }
  } else {
    for (std::uint32_t word = 0; word < dirty_.size(); ++word) {
      for (std::uint64_t bits = dirty_[word]; bits != 0; bits &= bits - 1) {
        restore_page(snap, word * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
      }
    }
  }
  tracking_ = true;
  dirty_.assign((pages + 63) / 64, 0);
}

std::uint32_t PhysicalMemory::dirty_page_count() const {
  std::uint32_t count = 0;
  for (const std::uint64_t word : dirty_) {
    count += static_cast<std::uint32_t>(std::popcount(word));
  }
  return count;
}

}  // namespace hwsec::sim
