// Single-level cache model: hit/miss/eviction mechanics, replacement
// policies, domain tagging, flushes, way partitioning and snapshot restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/cache.h"
#include "sim/rng.h"

namespace sim = hwsec::sim;

namespace {

sim::CacheConfig small_cache(sim::ReplacementPolicy policy = sim::ReplacementPolicy::kLru) {
  return {.name = "t", .size_bytes = 4096, .ways = 4, .line_size = 64, .policy = policy,
          .hit_latency = 4};  // 16 sets.
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(sim::Cache({.size_bytes = 100, .ways = 3, .line_size = 64}), std::invalid_argument);
  EXPECT_THROW(sim::Cache({.size_bytes = 4096, .ways = 4, .line_size = 48}),
               std::invalid_argument);
}

TEST(Cache, MissThenHit) {
  sim::Cache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000, 0, sim::AccessType::kRead).hit);
  EXPECT_TRUE(cache.access(0x1000, 0, sim::AccessType::kRead).hit);
  EXPECT_TRUE(cache.access(0x103C, 0, sim::AccessType::kRead).hit) << "same line";
  EXPECT_FALSE(cache.access(0x1040, 0, sim::AccessType::kRead).hit) << "next line";
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  sim::Cache cache(small_cache());
  // Set 0 lines: addresses with (addr/64)%16 == 0, i.e. stride 1024.
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 4; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  cache.access(0, 0, sim::AccessType::kRead);  // refresh line 0.
  const auto r = cache.access(4 * stride, 0, sim::AccessType::kRead);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, stride) << "line 1 was least recently used";
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(stride));
}

TEST(Cache, EvictionReportsVictimDomain) {
  sim::Cache cache(small_cache());
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 4; ++i) {
    cache.access(i * stride, /*domain=*/7, sim::AccessType::kRead);
  }
  const auto r = cache.access(4 * stride, /*domain=*/0, sim::AccessType::kRead);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_domain, 7u);
  EXPECT_EQ(cache.domain_stats(7).evictions, 1u);
}

TEST(Cache, FlushLineAndDomainAndAll) {
  sim::Cache cache(small_cache());
  cache.access(0x1000, 3, sim::AccessType::kRead);
  cache.access(0x2000, 4, sim::AccessType::kRead);
  EXPECT_TRUE(cache.flush_line(0x1000));
  EXPECT_FALSE(cache.probe(0x1000));
  EXPECT_TRUE(cache.probe(0x2000));
  cache.access(0x3000, 4, sim::AccessType::kRead);
  EXPECT_EQ(cache.flush_domain(4), 2u);
  EXPECT_FALSE(cache.probe(0x2000));
  cache.access(0x2000, 4, sim::AccessType::kRead);
  cache.flush_all();
  EXPECT_FALSE(cache.probe(0x2000));
}

TEST(Cache, WayPartitionIsolatesOccupancy) {
  sim::Cache cache(small_cache());
  cache.set_way_partition(/*domain=*/1, 0, 2);  // enclave: ways 0-1.
  cache.set_way_partition(/*domain=*/0, 2, 2);  // OS: ways 2-3.
  const sim::PhysAddr stride = 64 * 16;

  // Enclave fills its two ways in set 0.
  cache.access(0 * stride, 1, sim::AccessType::kRead);
  cache.access(1 * stride, 1, sim::AccessType::kRead);
  // OS hammers the same set with many lines.
  for (sim::PhysAddr i = 2; i < 10; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  // Enclave lines must have survived: the OS cannot evict across the
  // partition — the Prime+Probe defense property.
  EXPECT_TRUE(cache.probe_owned(0, 1));
  EXPECT_TRUE(cache.probe_owned(stride, 1));
  EXPECT_EQ(cache.occupancy(0, 1), 2u);
}

TEST(Cache, PartitionedDomainCannotHitForeignWays) {
  sim::Cache cache(small_cache());
  cache.set_way_partition(0, 2, 2);  // OS: ways 2-3.
  cache.set_way_partition(1, 0, 2);  // enclave: ways 0-1.
  cache.access(0x1000, 0, sim::AccessType::kRead);  // lands in ways 2-3.
  EXPECT_EQ(cache.occupancy(0x1000, 0), 1u);
  // The enclave looks up the same physical line: it sits outside the
  // enclave's ways, so the lookup must miss (no cross-partition hits).
  const auto before = cache.domain_stats(1).misses;
  cache.access(0x1000, 1, sim::AccessType::kRead);
  EXPECT_EQ(cache.domain_stats(1).misses, before + 1);
}

TEST(Cache, PartitionChangeDropsOutOfPartitionLines) {
  sim::Cache cache(small_cache());
  for (sim::PhysAddr i = 0; i < 4; ++i) {
    cache.access(i * 64 * 16, 5, sim::AccessType::kRead);  // fills ways 0-3.
  }
  cache.set_way_partition(5, 0, 1);
  EXPECT_LE(cache.occupancy(0, 5), 1u) << "stale occupancy outside the partition must be scrubbed";
}

TEST(Cache, RandomReplacementIsSeedDeterministic) {
  sim::Cache a(small_cache(sim::ReplacementPolicy::kRandom), 42);
  sim::Cache b(small_cache(sim::ReplacementPolicy::kRandom), 42);
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 32; ++i) {
    const auto ra = a.access(i * stride, 0, sim::AccessType::kRead);
    const auto rb = b.access(i * stride, 0, sim::AccessType::kRead);
    EXPECT_EQ(ra.evicted, rb.evicted);
    if (ra.evicted && rb.evicted) {
      EXPECT_EQ(ra.evicted_line, rb.evicted_line);
    }
  }
}

class ReplacementPolicyTest : public ::testing::TestWithParam<sim::ReplacementPolicy> {};

TEST_P(ReplacementPolicyTest, WorkingSetWithinAssociativityAlwaysHits) {
  sim::Cache cache(small_cache(GetParam()));
  const sim::PhysAddr stride = 64 * 16;
  for (int round = 0; round < 3; ++round) {
    for (sim::PhysAddr i = 0; i < 4; ++i) {
      cache.access(i * stride, 0, sim::AccessType::kRead);
    }
  }
  // After the first round everything fits: rounds 2-3 are 8 hits.
  EXPECT_EQ(cache.stats().hits, 8u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_P(ReplacementPolicyTest, OverfilledSetEvicts) {
  sim::Cache cache(small_cache(GetParam()));
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 8; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  EXPECT_EQ(cache.stats().evictions, 4u);
  std::uint32_t present = 0;
  for (sim::PhysAddr i = 0; i < 8; ++i) {
    present += cache.probe(i * stride) ? 1 : 0;
  }
  EXPECT_EQ(present, 4u);
}

// ---- snapshot restore --------------------------------------------------
//
// restore_from() puts back way masks for every occupied set and replays
// the touched-line journal only when the snapshot held valid lines (or
// tree-PLRU bits). Either way the restored cache must be indistinguishable
// from the snapshot: same hit/miss/eviction sequence and counters on a
// seeded access stream, even after trials that used every whole-cache
// operation (flush_domain, flush_all, way partitions, rekeys, batch
// flushes).

/// Seeded reads/writes from three domains over lines that overflow a few
/// sets, recording every result, then the counters.
std::vector<std::uint64_t> access_stream(sim::Cache& cache, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 400; ++i) {
    const sim::PhysAddr addr = static_cast<sim::PhysAddr>(rng.below(48)) * 64 * 16 +
                               static_cast<sim::PhysAddr>(rng.below(6)) * 64;
    const auto domain = static_cast<sim::DomainId>(rng.below(3));
    const auto type = rng.below(4) == 0 ? sim::AccessType::kWrite : sim::AccessType::kRead;
    const auto r = cache.access(addr, domain, type);
    out.push_back(std::uint64_t{r.hit} | std::uint64_t{r.evicted} << 1 |
                  std::uint64_t{r.evicted_domain} << 8 | std::uint64_t{r.evicted_line} << 32);
  }
  for (sim::DomainId d = 0; d < 3; ++d) {
    const sim::CacheStats& s = cache.domain_stats(d);
    out.insert(out.end(), {s.hits, s.misses, s.evictions});
  }
  const sim::CacheStats& s = cache.stats();
  out.insert(out.end(), {s.hits, s.misses, s.evictions, s.flushes});
  return out;
}

/// One trial's worth of cache activity; `round` varies which whole-cache
/// operations it uses.
void run_trial(sim::Cache& cache, int round) {
  access_stream(cache, 100 + static_cast<std::uint64_t>(round));
  switch (round % 4) {
    case 0:
      cache.flush_domain(1);
      cache.flush_lines(0, 64, 40);
      break;
    case 1:
      cache.set_way_partition(2, 0, 2);
      access_stream(cache, 200);
      break;
    case 2:
      cache.rekey(0xABCDEF + static_cast<std::uint64_t>(round));
      access_stream(cache, 300);
      cache.flush_line(64 * 16);
      break;
    default:
      cache.flush_all();
      access_stream(cache, 400);
      break;
  }
}

TEST_P(ReplacementPolicyTest, RestoreToEmptySnapshotMatchesFreshCache) {
  sim::Cache pooled(small_cache(GetParam()), 3);
  pooled.begin_set_tracking();
  const sim::Cache pristine = pooled;
  for (int round = 0; round < 8; ++round) {
    run_trial(pooled, round);
    pooled.restore_from(pristine);
    sim::Cache fresh(small_cache(GetParam()), 3);
    if (round % 2 == 1) {
      // A partitioned domain picks victims in part of a set: the untouched
      // part's stale PLRU bits must not matter.
      pooled.set_way_partition(2, 1, 2);
      fresh.set_way_partition(2, 1, 2);
    }
    ASSERT_EQ(access_stream(pooled, 7), access_stream(fresh, 7)) << "after round " << round;
  }
}

TEST_P(ReplacementPolicyTest, RestoreToWarmSnapshotMatchesSnapshot) {
  sim::Cache pooled(small_cache(GetParam()), 3);
  access_stream(pooled, 1);  // the snapshot holds valid, dirty, partitioned state.
  pooled.set_way_partition(2, 1, 2);
  access_stream(pooled, 2);
  pooled.begin_set_tracking();
  const sim::Cache snap = pooled;
  for (int round = 0; round < 8; ++round) {
    run_trial(pooled, round);
    pooled.restore_from(snap);
    sim::Cache expected = snap;
    ASSERT_EQ(access_stream(pooled, 7), access_stream(expected, 7)) << "after round " << round;
  }
}

TEST_P(ReplacementPolicyTest, RestoreWarmSnapshotWithoutJournalCopiesIt) {
  // `snap` was never taken at `target`'s restore point, so `target` has no
  // journal saying which of its lines differ from it.
  sim::Cache source(small_cache(GetParam()), 3);
  access_stream(source, 1);
  const sim::Cache snap = source;
  for (const bool tracked_empty : {false, true}) {
    sim::Cache target(small_cache(GetParam()), 5);
    if (tracked_empty) {
      target.begin_set_tracking();  // empty: the journal stays unarmed.
    }
    run_trial(target, 0);
    target.restore_from(snap);
    sim::Cache expected = snap;
    ASSERT_EQ(access_stream(target, 7), access_stream(expected, 7))
        << "tracked_empty " << tracked_empty;
  }
}

// ---- line storage contract ----------------------------------------------
//
// The line array is allocated uninitialized and copies carry only the
// valid lines of occupied sets, so a line's bytes may be stale or absent
// whenever its way's valid bit is clear. A cache emptied after heavy use
// still holds the stream's own tags in every such line; neither it nor a
// copy of it may ever show them.

/// Fills every way of every set exactly once, ways 0..3 of sets 0..5 with
/// tags access_stream() asks for, as dirty lines from rotating domains.
/// Nothing is evicted, so a random-policy cache draws nothing from its RNG.
void fill_every_way(sim::Cache& cache) {
  for (sim::PhysAddr set = 0; set < 16; ++set) {
    for (sim::PhysAddr tag = 0; tag < 4; ++tag) {
      cache.access(tag * 64 * 16 + set * 64, static_cast<sim::DomainId>((set + tag) % 3),
                   sim::AccessType::kWrite);
    }
  }
}

/// Expects `emptied`, a copy of it, and a warm same-geometry cache assigned
/// from it to replay a seeded stream exactly like `fresh`. `partitioned`
/// restricts domain 2 to ways 1..2 in all four first.
void expect_matches_fresh(sim::Cache& emptied, sim::Cache fresh, bool partitioned) {
  sim::Cache copy = emptied;
  sim::Cache assigned(emptied.config(), 9);
  fill_every_way(assigned);
  access_stream(assigned, 5);
  assigned = emptied;
  for (sim::Cache* c : {&fresh, &emptied, &copy, &assigned}) {
    if (partitioned) {
      c->set_way_partition(2, 1, 2);
    }
  }
  const std::vector<std::uint64_t> expected = access_stream(fresh, 7);
  EXPECT_EQ(access_stream(emptied, 7), expected) << "emptied cache";
  EXPECT_EQ(access_stream(copy, 7), expected) << "copy";
  EXPECT_EQ(access_stream(assigned, 7), expected) << "assigned over a warm cache";
}

TEST_P(ReplacementPolicyTest, EmptiedCacheAndItsCopiesMatchFreshCache) {
  const sim::CacheConfig config = small_cache(GetParam());
  for (const bool partitioned : {false, true}) {
    SCOPED_TRACE(partitioned ? "partitioned" : "unpartitioned");
    {
      SCOPED_TRACE("flush_all");
      sim::Cache flushed(config, 3);
      fill_every_way(flushed);
      if (GetParam() != sim::ReplacementPolicy::kRandom) {
        // Evictions draw from a random cache's RNG, which flush_all keeps.
        access_stream(flushed, 11);
        access_stream(flushed, 12);
      }
      flushed.flush_all();
      flushed.reset_stats();
      ASSERT_TRUE(flushed.empty());
      expect_matches_fresh(flushed, sim::Cache(config, 3), partitioned);
    }
    {
      SCOPED_TRACE("restore_from");
      sim::Cache restored(config, 3);
      restored.begin_set_tracking();
      const sim::Cache pristine = restored;
      fill_every_way(restored);
      access_stream(restored, 11);
      restored.set_way_partition(2, 0, 2);
      access_stream(restored, 12);
      restored.restore_from(pristine);
      ASSERT_TRUE(restored.empty());
      expect_matches_fresh(restored, sim::Cache(config, 3), partitioned);
    }
  }
}

TEST_P(ReplacementPolicyTest, CopyOfWarmCacheMatchesOriginal) {
  sim::Cache warm(small_cache(GetParam()), 3);
  fill_every_way(warm);
  access_stream(warm, 1);
  warm.set_way_partition(2, 1, 2);
  access_stream(warm, 2);
  warm.flush_domain(1);  // leaves invalid ways inside occupied sets.
  sim::Cache copy = warm;
  sim::Cache assigned(small_cache(GetParam()), 9);
  fill_every_way(assigned);
  assigned = warm;
  sim::CacheConfig other_geometry = small_cache(GetParam());
  other_geometry.size_bytes *= 2;
  sim::Cache reshaped(other_geometry, 9);
  reshaped = warm;
  const std::vector<std::uint64_t> expected = access_stream(warm, 7);
  EXPECT_EQ(access_stream(copy, 7), expected) << "copy";
  EXPECT_EQ(access_stream(assigned, 7), expected) << "assigned over a warm cache";
  EXPECT_EQ(access_stream(reshaped, 7), expected) << "assigned over another geometry";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementPolicyTest,
                         ::testing::Values(sim::ReplacementPolicy::kLru,
                                           sim::ReplacementPolicy::kTreePlru,
                                           sim::ReplacementPolicy::kRandom));

}  // namespace
