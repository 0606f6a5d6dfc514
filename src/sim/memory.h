// Physical DRAM model.
//
// A table of 4 KiB page pointers with byte, word and block accessors. DRAM
// has no security semantics of its own; access control lives in the
// MMU/MPU (per-architecture) and in the bus (DMA filtering). Memory
// contents persist across enclave creation/teardown, which is exactly why
// SGX-class designs add a memory encryption engine (modeled in
// src/arch/sgx.*).
//
// Sparse pages: a page nobody has written points at the one shared,
// read-only kZeroPageBytes page, so building a machine allocates and zeroes
// no DRAM. Every write path goes through one gate, writable(p), which
// gives the page its own buffer (from this memory's free list) on the
// first write to it, whether or not the write sets the dirty bit. Reads
// never materialize a page. This is a simulator-level page table: the
// host sees ordinary heap buffers and takes no page faults for it.
//
// Snapshot/restore: snapshot() captures the image (storing only its
// non-zero pages; only materialized pages can be non-zero, so only they
// are compared) and turns on dirty-page tracking (one bit per page, set by
// every write path except the fault-injection hook). restore() puts back
// only the pages dirtied since the snapshot: a page whose image is zero
// goes back to the shared zero page and its buffer to the free list, any
// other page is copied back. The cost of resetting a machine between
// campaign trials therefore scales with the trial's write footprint, not
// with DRAM size. The snapshot/reset layer in sim/machine.h builds on
// this. The conformance differ is the bitmap's other reader: on a
// pool-reset machine it compares only the dirty pages (plus the oracle's
// written pages) instead of all of DRAM.
//
// The Snapshot image is also the conformance layer's per-arch DRAM
// baseline (conformance/differ.h): the reference interpreter reads through
// it, and its zero pages are kZeroPageBytes too, so the differ skips a page
// whose machine and oracle views are that same object.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.h"

namespace hwsec::sim {

/// One all-zero page, shared by every reader that needs "the bytes of a
/// zero page": every PhysicalMemory page nobody has written, and
/// Snapshot::page() of a page the image does not store. constexpr, so it
/// lives in read-only memory and a stray write through it faults.
alignas(64) inline constexpr std::array<std::uint8_t, kPageSize> kZeroPageBytes{};

class PhysicalMemory {
 public:
  /// Creates DRAM of `bytes` size (rounded up to a whole page), zeroed:
  /// every page starts out as the shared zero page.
  explicit PhysicalMemory(std::uint32_t bytes);

  std::uint32_t size() const { return page_count() * kPageSize; }
  std::uint32_t page_count() const { return static_cast<std::uint32_t>(page_.size()); }

  bool contains(PhysAddr addr, std::uint32_t len = 1) const {
    return addr < size() && static_cast<std::uint64_t>(addr) + len <= size();
  }

  /// Byte accessors. Out-of-range accesses are a programming error and
  /// abort via assert in debug builds; callers must bounds-check with
  /// contains() first (the bus does).
  std::uint8_t read8(PhysAddr addr) const;
  void write8(PhysAddr addr, std::uint8_t value);

  /// Little-endian 32-bit word accessors. No alignment requirement at the
  /// DRAM level (a word may straddle two pages); alignment faults are
  /// raised by the CPU.
  Word read32(PhysAddr addr) const;
  void write32(PhysAddr addr, Word value);

  /// Bulk copy helpers, used by loaders, DMA and the SGX paging model.
  void read_block(PhysAddr addr, std::span<std::uint8_t> out) const;
  void write_block(PhysAddr addr, std::span<const std::uint8_t> in);

  /// Fills [addr, addr+len) with `value`. Zeroing a page that is still the
  /// shared zero page is a no-op: no write, no buffer, no dirty bit. That
  /// makes the allocator's zero-fill of freshly mapped frames (the bulk of
  /// per-trial setup writes) nearly free.
  void fill(PhysAddr addr, std::uint32_t len, std::uint8_t value);

  /// Page `p`'s bytes: kZeroPageBytes itself while nobody has written the
  /// page since construction (or since a restore() to a zero image).
  std::span<const std::uint8_t, kPageSize> page(std::uint32_t p) const {
    return std::span<const std::uint8_t, kPageSize>(page_[p], kPageSize);
  }
  /// True while page `p` is the shared zero page.
  bool aliased(std::uint32_t p) const { return page_[p] == kZeroPageBytes.data(); }
  /// Pages that own a buffer, for tests and for reasoning about footprint.
  std::uint32_t materialized_page_count() const;

  // -- snapshot / dirty-page restore ------------------------------------
  /// A DRAM image that stores only its non-zero pages: most of a
  /// machine's DRAM is still zero when the pool takes its pristine
  /// snapshot, and a full copy per pooled machine is what dominated the
  /// fuzzer's peak RSS.
  struct Snapshot {
    static constexpr std::uint32_t kZeroPage = ~0u;
    /// Per page: its index in `pages`, or kZeroPage for an all-zero page.
    std::vector<std::uint32_t> slot;
    std::vector<std::uint8_t> pages;  ///< the non-zero pages, in page order.

    /// Bytes of the imaged DRAM (whole pages).
    std::uint32_t size() const { return static_cast<std::uint32_t>(slot.size()) * kPageSize; }
    /// True when page `p` was all-zero when imaged.
    bool zero(std::uint32_t p) const { return slot[p] == kZeroPage; }
    /// Page `p`'s bytes: the stored copy, or kZeroPageBytes.
    std::span<const std::uint8_t, kPageSize> page(std::uint32_t p) const {
      if (zero(p)) {
        return kZeroPageBytes;
      }
      return std::span<const std::uint8_t, kPageSize>(
          pages.data() + static_cast<std::size_t>(slot[p]) * kPageSize, kPageSize);
    }
  };

  /// Captures the current contents and enables dirty-page tracking from
  /// this point on. Subsequent snapshots restart tracking. A materialized
  /// page that is all zero goes back to the shared zero page.
  Snapshot snapshot();

  /// Restores the snapshot image, putting back only pages dirtied since
  /// snapshot() (every page if tracking was never enabled on this memory).
  /// Tracking stays enabled with a clean slate, so a machine can be
  /// restored repeatedly from the same snapshot. The snapshot must come
  /// from this memory, unless tracking was never enabled here; its page
  /// count is asserted.
  void restore(const Snapshot& snap);

  /// Dirty pages since the last snapshot()/restore(), for tests and for
  /// reasoning about restore cost.
  std::uint32_t dirty_page_count() const;

  /// True once a snapshot() or restore() enabled tracking. Only then is
  /// every page outside dirty_bitmap() byte-identical to the last snapshot
  /// image (barring inject_write32_without_dirty_bit).
  bool dirty_tracked() const { return tracking_; }

  /// Pages written since the last snapshot()/restore(), one bit per page
  /// (bit p % 64 of word p / 64). Meaningful only when dirty_tracked().
  std::span<const std::uint64_t> dirty_bitmap() const { return dirty_; }

  /// Fault-injection hook, not a store for simulated accesses: writes a
  /// word WITHOUT setting its page's dirty bit, reproducing a write path
  /// that forgot mark_dirty(). The page is still materialized, so the word
  /// survives restore() exactly as stale pool state would. Conformance
  /// self-tests use it to prove the differ's full sweeps catch a missed
  /// dirty bit.
  void inject_write32_without_dirty_bit(PhysAddr addr, Word value);

 private:
  struct alignas(64) PageBuffer {
    std::array<std::uint8_t, kPageSize> bytes;
  };

  /// The one write gate: page `p`'s own buffer, taken from the free list
  /// (zeroed) on the first write since the page was last aliased.
  std::uint8_t* writable(std::uint32_t p) {
    if (!owned_[p]) [[unlikely]] {
      materialize(p);
    }
    return owned_[p]->bytes.data();
  }
  void materialize(std::uint32_t p);
  /// Points page `p` back at kZeroPageBytes and frees its buffer.
  void release(std::uint32_t p);
  /// Stores `in` at `addr`, across pages; sets dirty bits when `mark`.
  void store(PhysAddr addr, std::span<const std::uint8_t> in, bool mark);
  void restore_page(const Snapshot& snap, std::uint32_t p);
  void mark_dirty(std::uint32_t p) {
    if (tracking_) {
      dirty_[p >> 6] |= 1ull << (p & 63);
    }
  }

  std::vector<const std::uint8_t*> page_;  ///< per page: its bytes.
  std::vector<std::unique_ptr<PageBuffer>> owned_;  ///< per page; null while aliased.
  std::vector<std::unique_ptr<PageBuffer>> free_;   ///< released buffers, reused first.
  std::vector<std::uint64_t> dirty_;  ///< bitmap, one bit per page.
  bool tracking_ = false;
};

}  // namespace hwsec::sim
