// Physical DRAM model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/memory.h"

namespace sim = hwsec::sim;

namespace {

TEST(Memory, SizeRoundsUpToPage) {
  sim::PhysicalMemory mem(sim::kPageSize + 1);
  EXPECT_EQ(mem.size(), 2 * sim::kPageSize);
}

TEST(Memory, ZeroInitialized) {
  sim::PhysicalMemory mem(sim::kPageSize);
  for (sim::PhysAddr a = 0; a < sim::kPageSize; a += 512) {
    EXPECT_EQ(mem.read8(a), 0u);
  }
}

TEST(Memory, ByteAndWordRoundTrip) {
  sim::PhysicalMemory mem(sim::kPageSize);
  mem.write32(0x100, 0x11223344);
  EXPECT_EQ(mem.read32(0x100), 0x11223344u);
  // Little-endian byte order.
  EXPECT_EQ(mem.read8(0x100), 0x44u);
  EXPECT_EQ(mem.read8(0x103), 0x11u);
  mem.write8(0x101, 0xAB);
  EXPECT_EQ(mem.read32(0x100), 0x1122AB44u);
}

TEST(Memory, BlockCopyAndFill) {
  sim::PhysicalMemory mem(sim::kPageSize);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  mem.write_block(0x10, data);
  std::vector<std::uint8_t> out(5);
  mem.read_block(0x10, out);
  EXPECT_EQ(out, data);
  mem.fill(0x10, 5, 0xEE);
  mem.read_block(0x10, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(5, 0xEE));
}

TEST(Memory, ContainsBoundsChecks) {
  sim::PhysicalMemory mem(sim::kPageSize);
  EXPECT_TRUE(mem.contains(0));
  EXPECT_TRUE(mem.contains(sim::kPageSize - 4, 4));
  EXPECT_FALSE(mem.contains(sim::kPageSize - 3, 4));
  EXPECT_FALSE(mem.contains(sim::kPageSize));
}

TEST(Memory, DirtyBitmapHasExactlyTheWrittenPages) {
  sim::PhysicalMemory mem(130 * sim::kPageSize);
  EXPECT_FALSE(mem.dirty_tracked()) << "no snapshot yet: nothing is tracked";
  mem.write32(5 * sim::kPageSize, 1);  // before the snapshot: not tracked.
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  EXPECT_TRUE(mem.dirty_tracked());

  mem.write8(3, 0xAA);                                 // page 0
  mem.write32(64 * sim::kPageSize + 8, 0x1234);        // page 64
  mem.write32(100 * sim::kPageSize - 2, 0xFFFFFFFFu);  // pages 99 and 100
  const std::vector<std::uint8_t> block(16, 7);
  mem.write_block(129 * sim::kPageSize, block);  // page 129
  mem.fill(7 * sim::kPageSize, 4, 0);  // zero into a clean zero page: skipped.

  const std::span<const std::uint64_t> bits = mem.dirty_bitmap();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 1ull);
  EXPECT_EQ(bits[1], 1ull | (1ull << (99 - 64)) | (1ull << (100 - 64)));
  EXPECT_EQ(bits[2], 1ull << (129 - 128));
  EXPECT_EQ(mem.dirty_page_count(), 5u);

  mem.restore(snap);
  EXPECT_TRUE(mem.dirty_tracked());
  EXPECT_EQ(mem.dirty_page_count(), 0u);

  // Memory that never took a snapshot has no bitmap: restoring onto it
  // takes the full-restore path and arms tracking from then on.
  sim::PhysicalMemory untracked(130 * sim::kPageSize);
  untracked.write8(3, 0xAA);
  EXPECT_FALSE(untracked.dirty_tracked());
  untracked.restore(snap);
  EXPECT_TRUE(untracked.dirty_tracked()) << "restore arms tracking";
  EXPECT_EQ(untracked.dirty_page_count(), 0u);
  EXPECT_EQ(untracked.read8(3), 0u);
  EXPECT_EQ(untracked.read32(5 * sim::kPageSize), 1u);
}

TEST(Memory, SnapshotRestoresZeroAndNonZeroPages) {
  sim::PhysicalMemory mem(4 * sim::kPageSize);
  mem.write32(sim::kPageSize + 4, 0xCAFEF00Du);
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  mem.write32(sim::kPageSize + 4, 1);      // a non-zero snapshot page
  mem.write32(3 * sim::kPageSize + 8, 2);  // a zero snapshot page
  mem.restore(snap);
  EXPECT_EQ(mem.read32(sim::kPageSize + 4), 0xCAFEF00Du);
  EXPECT_EQ(mem.read32(3 * sim::kPageSize + 8), 0u);

  // The full-restore path: memory whose tracking was never enabled.
  sim::PhysicalMemory untracked(4 * sim::kPageSize);
  untracked.write8(sim::kPageSize + 4, 0x77);
  untracked.write8(2 * sim::kPageSize, 0x77);
  untracked.restore(snap);
  EXPECT_EQ(untracked.read32(sim::kPageSize + 4), 0xCAFEF00Du);
  EXPECT_EQ(untracked.read8(2 * sim::kPageSize), 0u);
  EXPECT_TRUE(untracked.aliased(2)) << "a zero-image page goes back to the zero page";
  EXPECT_EQ(untracked.materialized_page_count(), 1u);
}

TEST(Memory, SnapshotStoresPagesWithOnlyAnEdgeByteSet) {
  sim::PhysicalMemory mem(4 * sim::kPageSize);
  mem.write8(sim::kPageSize, 0x01);              // page 1: only its first byte.
  mem.write8(3 * sim::kPageSize - 1, 0x80);      // page 2: only its last byte.
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  EXPECT_EQ(snap.size(), 4 * sim::kPageSize);
  EXPECT_TRUE(snap.zero(0));
  EXPECT_FALSE(snap.zero(1));
  EXPECT_FALSE(snap.zero(2));
  EXPECT_TRUE(snap.zero(3));
  EXPECT_EQ(snap.pages.size(), 2 * sim::kPageSize) << "only the non-zero pages are stored";

  for (const std::uint32_t p : {1u, 2u}) {
    std::vector<std::uint8_t> want(sim::kPageSize);
    mem.read_block(p * sim::kPageSize, want);
    EXPECT_TRUE(std::equal(snap.page(p).begin(), snap.page(p).end(), want.begin()))
        << "page " << p;
  }
  EXPECT_EQ(snap.page(1)[0], 0x01u);
  EXPECT_EQ(snap.page(2)[sim::kPageSize - 1], 0x80u);
  for (const std::uint32_t p : {0u, 3u}) {
    EXPECT_EQ(snap.page(p).data(), sim::kZeroPageBytes.data()) << "zero pages share one page";
    EXPECT_TRUE(std::all_of(snap.page(p).begin(), snap.page(p).end(),
                            [](std::uint8_t b) { return b == 0; }));
  }
}

TEST(Memory, FaultInjectionStoreSkipsTheDirtyBit) {
  sim::PhysicalMemory mem(2 * sim::kPageSize);
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  mem.inject_write32_without_dirty_bit(sim::kPageSize, 0xD1D7B175u);
  EXPECT_EQ(mem.read32(sim::kPageSize), 0xD1D7B175u);
  EXPECT_EQ(mem.dirty_page_count(), 0u);
  mem.restore(snap);
  EXPECT_EQ(mem.read32(sim::kPageSize), 0xD1D7B175u) << "a missed dirty bit survives restore";
}

// ---- sparse pages: the shared zero page and the write gate --------------

TEST(Memory, FreshMemoryAliasesTheZeroPageEverywhere) {
  sim::PhysicalMemory mem(64 * sim::kPageSize);
  for (std::uint32_t p = 0; p < mem.page_count(); ++p) {
    EXPECT_TRUE(mem.aliased(p)) << "page " << p;
    EXPECT_EQ(mem.page(p).data(), sim::kZeroPageBytes.data()) << "page " << p;
  }
  EXPECT_EQ(mem.materialized_page_count(), 0u);
  std::vector<std::uint8_t> out(3 * sim::kPageSize, 0xFF);
  mem.read_block(sim::kPageSize - 5, out);  // reads never materialize.
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(mem.read32(7 * sim::kPageSize), 0u);
  EXPECT_EQ(mem.materialized_page_count(), 0u);
}

TEST(Memory, OneWordWriteMaterializesExactlyOnePage) {
  sim::PhysicalMemory mem(16 * sim::kPageSize);
  mem.write32(5 * sim::kPageSize + 12, 0xA1B2C3D4u);
  EXPECT_EQ(mem.materialized_page_count(), 1u);
  EXPECT_FALSE(mem.aliased(5));
  EXPECT_NE(mem.page(5).data(), sim::kZeroPageBytes.data());
  EXPECT_EQ(mem.page(5)[12], 0xD4u);
  for (std::uint32_t p = 0; p < mem.page_count(); ++p) {
    if (p != 5) {
      EXPECT_TRUE(mem.aliased(p)) << "page " << p;
    }
  }
  EXPECT_TRUE(std::all_of(sim::kZeroPageBytes.begin(), sim::kZeroPageBytes.end(),
                          [](std::uint8_t b) { return b == 0; }))
      << "the shared zero page must never be written";
}

TEST(Memory, ZeroFillOfAliasedPageLeavesItAliasedAndClean) {
  sim::PhysicalMemory mem(8 * sim::kPageSize);
  (void)mem.snapshot();
  mem.fill(2 * sim::kPageSize, 3 * sim::kPageSize, 0);
  EXPECT_EQ(mem.materialized_page_count(), 0u);
  EXPECT_EQ(mem.dirty_page_count(), 0u);

  // A materialized page is zeroed for real, and dirtied.
  mem.write8(6 * sim::kPageSize + 9, 0x5A);
  mem.fill(6 * sim::kPageSize, sim::kPageSize, 0);
  EXPECT_FALSE(mem.aliased(6));
  EXPECT_EQ(mem.read8(6 * sim::kPageSize + 9), 0u);
  EXPECT_EQ(mem.dirty_page_count(), 1u);

  // A non-zero fill materializes every page it covers.
  mem.fill(sim::kPageSize - 2, 4, 0xEE);
  EXPECT_FALSE(mem.aliased(0));
  EXPECT_FALSE(mem.aliased(1));
  EXPECT_EQ(mem.read32(sim::kPageSize - 2), 0xEEEEEEEEu);
  EXPECT_EQ(mem.dirty_page_count(), 3u);
}

TEST(Memory, RestoreReAliasesADirtiedZeroImagePage) {
  sim::PhysicalMemory mem(4 * sim::kPageSize);
  mem.write32(0, 0x1234u);
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  mem.write32(2 * sim::kPageSize + 8, 0xBEEFu);  // zero in the image.
  mem.write32(4, 0xBEEFu);                       // non-zero in the image.
  EXPECT_EQ(mem.materialized_page_count(), 2u);
  mem.restore(snap);
  EXPECT_TRUE(mem.aliased(2));
  EXPECT_EQ(mem.page(2).data(), sim::kZeroPageBytes.data());
  EXPECT_FALSE(mem.aliased(0));
  EXPECT_EQ(mem.read32(0), 0x1234u);
  EXPECT_EQ(mem.read32(4), 0u);
  EXPECT_EQ(mem.materialized_page_count(), 1u);

  // The released buffer is reused, and comes back zeroed.
  mem.write8(3 * sim::kPageSize, 0x01);
  EXPECT_EQ(mem.read32(3 * sim::kPageSize), 1u);
  EXPECT_EQ(mem.read32(3 * sim::kPageSize + 8), 0u);
}

TEST(Memory, SnapshotReAliasesAWrittenButZeroPage) {
  sim::PhysicalMemory mem(4 * sim::kPageSize);
  mem.write32(sim::kPageSize, 7);
  mem.write32(sim::kPageSize, 0);
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  EXPECT_TRUE(snap.zero(1));
  EXPECT_TRUE(mem.aliased(1));
  EXPECT_EQ(mem.materialized_page_count(), 0u);
}

TEST(Memory, CrossPageAccessesEqualByteWiseReference) {
  // DRAM has no alignment rule: words and blocks may straddle pages. Every
  // access near a page boundary must equal a flat byte-array model.
  constexpr std::uint32_t kPages = 4;
  sim::PhysicalMemory mem(kPages * sim::kPageSize);
  std::vector<std::uint8_t> ref(kPages * sim::kPageSize, 0);
  (void)mem.snapshot();
  const auto ref_read32 = [&](sim::PhysAddr a) {
    return static_cast<sim::Word>(ref[a]) | static_cast<sim::Word>(ref[a + 1]) << 8 |
           static_cast<sim::Word>(ref[a + 2]) << 16 | static_cast<sim::Word>(ref[a + 3]) << 24;
  };
  sim::Word value = 0x01020304u;
  for (const sim::PhysAddr boundary : {sim::kPageSize, 2 * sim::kPageSize, 3 * sim::kPageSize}) {
    for (sim::PhysAddr a = boundary - 5; a <= boundary + 1; ++a) {
      value = value * 0x9E3779B1u + 1;
      mem.write32(a, value);
      for (int i = 0; i < 4; ++i) {
        ref[a + i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      for (sim::PhysAddr r = boundary - 6; r <= boundary + 2; ++r) {
        ASSERT_EQ(mem.read32(r), ref_read32(r)) << "write at " << a << ", read at " << r;
      }
    }
    std::vector<std::uint8_t> block(sim::kPageSize + 40);
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<std::uint8_t>(i * 7 + boundary);
    }
    const sim::PhysAddr at = boundary - 20;
    const std::size_t len = std::min<std::size_t>(block.size(), ref.size() - at);
    mem.write_block(at, std::span<const std::uint8_t>(block.data(), len));
    std::copy_n(block.begin(), len, ref.begin() + at);
    mem.fill(boundary - 3, 6, 0x00);
    std::fill_n(ref.begin() + (boundary - 3), 6, 0x00);
  }
  std::vector<std::uint8_t> got(ref.size());
  mem.read_block(0, got);
  EXPECT_EQ(got, ref);
  std::vector<std::uint8_t> straddle(10);
  mem.read_block(2 * sim::kPageSize - 5, straddle);
  EXPECT_TRUE(std::equal(straddle.begin(), straddle.end(), ref.begin() + 2 * sim::kPageSize - 5));
  EXPECT_EQ(mem.dirty_page_count(), kPages);
}

TEST(Memory, DroppedDirtyBitStoreMaterializesAndSurvivesRestore) {
  // The write gate materializes a page whatever the dirty bit says, so a
  // store that skips the bit still leaves a private page behind: restore()
  // does not visit it, and a full sweep finds its bytes.
  sim::PhysicalMemory mem(4 * sim::kPageSize);
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  mem.inject_write32_without_dirty_bit(3 * sim::kPageSize, 0xD1D7B175u);
  EXPECT_FALSE(mem.aliased(3));
  EXPECT_EQ(mem.dirty_page_count(), 0u);
  mem.write32(sim::kPageSize, 1);
  mem.restore(snap);
  EXPECT_TRUE(mem.aliased(1));
  EXPECT_FALSE(mem.aliased(3)) << "the stale page must stay visible to a sweep";
  EXPECT_NE(mem.page(3).data(), sim::kZeroPageBytes.data());
  EXPECT_EQ(mem.read32(3 * sim::kPageSize), 0xD1D7B175u);
}

}  // namespace
