// Physical DRAM model.
#include <gtest/gtest.h>

#include <algorithm>
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

  (void)mem.raw();  // the mutable span bypasses tracking.
  EXPECT_FALSE(mem.dirty_tracked());
  mem.restore(snap);
  EXPECT_TRUE(mem.dirty_tracked()) << "restore re-arms tracking";
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

  auto raw = mem.raw();  // the full-restore path.
  raw[sim::kPageSize + 4] = 0x77;
  raw[2 * sim::kPageSize] = 0x77;
  mem.restore(snap);
  EXPECT_EQ(mem.read32(sim::kPageSize + 4), 0xCAFEF00Du);
  EXPECT_EQ(mem.read8(2 * sim::kPageSize), 0u);
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

}  // namespace
