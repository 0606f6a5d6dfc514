// Physical DRAM model.
//
// A flat byte array with word accessors. DRAM has no security semantics of
// its own; access control lives in the MMU/MPU (per-architecture) and in
// the bus (DMA filtering). Memory contents persist across enclave
// creation/teardown, which is exactly why SGX-class designs add a memory
// encryption engine (modeled in src/arch/sgx.*).
//
// Snapshot/restore: snapshot() captures the image (storing only its
// non-zero pages) and turns on dirty-page tracking (one bit per 4 KiB
// page, set by every write path). restore() copies back only the pages
// dirtied since the snapshot, so the cost of resetting a machine between
// campaign trials scales with the trial's write footprint, not with DRAM
// size. The snapshot/reset layer in sim/machine.h builds on this. The
// conformance differ is the bitmap's other reader: on a pool-reset machine
// it compares only the dirty pages (plus the oracle's written pages)
// instead of all of DRAM.
//
// The Snapshot image is also the conformance layer's per-arch DRAM
// baseline (conformance/differ.h): the reference interpreter reads through
// it, and a full sweep compares its zero pages against the one shared,
// cache-resident kZeroPageBytes page.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.h"

namespace hwsec::sim {

/// One all-zero page, shared by every reader that needs "the bytes of a
/// zero page": Snapshot::page() of a page the image does not store, and
/// the zero scan in PhysicalMemory::snapshot().
alignas(64) inline constexpr std::array<std::uint8_t, kPageSize> kZeroPageBytes{};

class PhysicalMemory {
 public:
  /// Creates DRAM of `bytes` size (rounded up to a whole page), zeroed.
  explicit PhysicalMemory(std::uint32_t bytes);

  std::uint32_t size() const { return static_cast<std::uint32_t>(data_.size()); }

  bool contains(PhysAddr addr, std::uint32_t len = 1) const {
    return addr < size() && static_cast<std::uint64_t>(addr) + len <= size();
  }

  /// Byte accessors. Out-of-range accesses are a programming error and
  /// abort via assert in debug builds; callers must bounds-check with
  /// contains() first (the bus does).
  std::uint8_t read8(PhysAddr addr) const;
  void write8(PhysAddr addr, std::uint8_t value);

  /// Little-endian 32-bit word accessors. No alignment requirement at the
  /// DRAM level; alignment faults are raised by the CPU.
  Word read32(PhysAddr addr) const;
  void write32(PhysAddr addr, Word value);

  /// Bulk copy helpers, used by loaders, DMA and the SGX paging model.
  void read_block(PhysAddr addr, std::span<std::uint8_t> out) const;
  void write_block(PhysAddr addr, std::span<const std::uint8_t> in);

  /// Fills [addr, addr+len) with `value`.
  void fill(PhysAddr addr, std::uint32_t len, std::uint8_t value);

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
  /// this point on. Subsequent snapshots restart tracking.
  Snapshot snapshot();

  /// Restores the snapshot image, copying back only pages dirtied since
  /// snapshot() (every page if tracking was bypassed via mutable raw()).
  /// Tracking stays enabled with a clean slate, so a machine can be
  /// restored repeatedly from the same snapshot. The snapshot must come
  /// from this memory (asserted via its page count).
  void restore(const Snapshot& snap);

  /// Dirty pages since the last snapshot()/restore(), for tests and for
  /// reasoning about restore cost.
  std::uint32_t dirty_page_count() const;

  /// True while the dirty bitmap is complete: a snapshot() or restore()
  /// enabled tracking and no mutable raw() span has been handed out since.
  /// Only then is every page outside dirty_bitmap() byte-identical to the
  /// last snapshot image.
  bool dirty_tracked() const { return tracking_ && !raw_dirty_; }

  /// Pages written since the last snapshot()/restore(), one bit per page
  /// (bit p % 64 of word p / 64). Meaningful only when dirty_tracked().
  std::span<const std::uint64_t> dirty_bitmap() const { return dirty_; }

  /// Fault-injection hook, not a store for simulated accesses: writes a
  /// word WITHOUT setting its page's dirty bit, reproducing a write path
  /// that forgot mark_dirty(). Conformance self-tests use it to prove the
  /// differ's full sweeps catch a missed dirty bit.
  void inject_write32_without_dirty_bit(PhysAddr addr, Word value);

  /// Direct access to the backing store, for checkpointing in tests. The
  /// mutable overload bypasses dirty tracking, so using it while a
  /// snapshot is live poisons the fast path: the next restore() falls
  /// back to a full-image copy (correct, just slower).
  std::span<const std::uint8_t> raw() const { return data_; }
  std::span<std::uint8_t> raw() {
    raw_dirty_ = true;
    return data_;
  }

 private:
  void store32(PhysAddr addr, Word value);
  void restore_page(const Snapshot& snap, std::uint32_t page);
  void mark_dirty(PhysAddr addr, std::uint32_t len) {
    if (!tracking_) {
      return;
    }
    const std::uint32_t first = addr >> kPageShift;
    const std::uint32_t last = (addr + len - 1) >> kPageShift;
    for (std::uint32_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= 1ull << (p & 63);
    }
  }

  std::vector<std::uint8_t> data_;
  std::vector<std::uint64_t> dirty_;  ///< bitmap, one bit per page.
  /// Pages that were all-zero in the snapshot image; lets fill(..., 0) of a
  /// still-clean zero page skip both the write and the dirty bit.
  std::vector<std::uint64_t> zero_snap_;
  bool tracking_ = false;
  bool raw_dirty_ = false;  ///< mutable raw() handed out since snapshot.
};

}  // namespace hwsec::sim
