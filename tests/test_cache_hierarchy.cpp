// Multi-core hierarchy: latency ordering, inclusivity (back-invalidation),
// cross-core visibility, flushes and Sanctuary-style exclusions; the
// batched probe paths (Machine::probe_lines, flush_lines) against their
// per-line definitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/cache_hierarchy.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/sim_error.h"

namespace sim = hwsec::sim;

namespace {

sim::HierarchyConfig two_core_config() {
  sim::HierarchyConfig h;
  h.num_cores = 2;
  h.l1d = {.name = "L1D", .size_bytes = 1024, .ways = 2, .line_size = 64,
           .policy = sim::ReplacementPolicy::kLru, .hit_latency = 4};
  h.l1i = h.l1d;
  h.llc = {.name = "LLC", .size_bytes = 16 * 1024, .ways = 4, .line_size = 64,
           .policy = sim::ReplacementPolicy::kLru, .hit_latency = 30};
  h.dram_latency = 150;
  return h;
}

TEST(Hierarchy, LatencyOrderingL1LlcDram) {
  sim::CacheHierarchy h(two_core_config());
  const auto miss = h.access(0, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(miss.level, sim::ServiceLevel::kDram);
  const auto hit = h.access(0, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(hit.level, sim::ServiceLevel::kL1);
  EXPECT_LT(hit.latency, miss.latency);

  // Other core: misses its L1, hits the shared LLC.
  const auto cross = h.access(1, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(cross.level, sim::ServiceLevel::kLlc);
  EXPECT_GT(cross.latency, hit.latency);
  EXPECT_LT(cross.latency, miss.latency);
}

TEST(Hierarchy, FlushLineRemovesFromAllLevelsAllCores) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 0, 0x2000, sim::AccessType::kRead);
  h.access(1, 0, 0x2000, sim::AccessType::kRead);
  h.flush_line(0x2000);
  EXPECT_FALSE(h.in_l1d(0, 0x2000));
  EXPECT_FALSE(h.in_l1d(1, 0x2000));
  EXPECT_FALSE(h.in_llc(0x2000));
}

TEST(Hierarchy, InclusiveLlcBackInvalidatesL1) {
  sim::CacheHierarchy h(two_core_config());
  // LLC: 64 sets, 4 ways. Fill one LLC set beyond capacity and verify a
  // back-invalidated line also left the owner's L1.
  const sim::PhysAddr llc_stride = 64 * 64;
  h.access(0, 0, 0, sim::AccessType::kRead);
  ASSERT_TRUE(h.in_l1d(0, 0));
  for (sim::PhysAddr i = 1; i <= 4; ++i) {
    h.access(1, 0, i * llc_stride, sim::AccessType::kRead);  // evicts line 0 from LLC.
  }
  EXPECT_FALSE(h.in_llc(0));
  EXPECT_FALSE(h.in_l1d(0, 0))
      << "inclusive LLC eviction must invalidate the private copy "
         "(the cross-core Prime+Probe mechanism)";
}

TEST(Hierarchy, FlushCorePrivateLeavesLlc) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 0, 0x3000, sim::AccessType::kRead);
  h.flush_core_private(0);
  EXPECT_FALSE(h.in_l1d(0, 0x3000));
  EXPECT_TRUE(h.in_llc(0x3000));
}

TEST(Hierarchy, SharedOnlyExclusionBypassesLlcButNotL1) {
  sim::CacheHierarchy h(two_core_config());
  h.add_uncacheable(0x4000, sim::kPageSize, sim::CacheHierarchy::Exclusion::kSharedOnly);
  const auto first = h.access(0, 0, 0x4000, sim::AccessType::kRead);
  EXPECT_EQ(first.level, sim::ServiceLevel::kDram);
  EXPECT_TRUE(h.in_l1d(0, 0x4000));
  EXPECT_FALSE(h.in_llc(0x4000)) << "Sanctuary exclusion: never in shared cache";
  const auto second = h.access(0, 0, 0x4000, sim::AccessType::kRead);
  EXPECT_EQ(second.level, sim::ServiceLevel::kL1);
}

TEST(Hierarchy, AllLevelExclusionIsFullyUncached) {
  sim::CacheHierarchy h(two_core_config());
  h.add_uncacheable(0x5000, sim::kPageSize, sim::CacheHierarchy::Exclusion::kAllLevels);
  for (int i = 0; i < 3; ++i) {
    const auto r = h.access(0, 0, 0x5000, sim::AccessType::kRead);
    EXPECT_EQ(r.level, sim::ServiceLevel::kUncached);
  }
  EXPECT_FALSE(h.in_l1d(0, 0x5000));
}

TEST(Hierarchy, AddingExclusionDropsStaleCopies) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 0, 0x6000, sim::AccessType::kRead);
  ASSERT_TRUE(h.in_llc(0x6000));
  h.add_uncacheable(0x6000, sim::kPageSize, sim::CacheHierarchy::Exclusion::kSharedOnly);
  EXPECT_FALSE(h.in_llc(0x6000));
}

TEST(Hierarchy, NoCacheProfileServesEverythingUncached) {
  sim::HierarchyConfig h = two_core_config();
  h.num_cores = 1;
  h.has_l1 = false;
  h.has_llc = false;
  h.dram_latency = 2;
  sim::CacheHierarchy hierarchy(h);
  const auto r = hierarchy.access(0, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(r.level, sim::ServiceLevel::kUncached);
  EXPECT_EQ(r.latency, 2u);
}

TEST(Hierarchy, FlushDomainScrubsEverywhere) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 9, 0x7000, sim::AccessType::kRead);
  h.access(1, 9, 0x7040, sim::AccessType::kRead);
  h.flush_domain(9);
  EXPECT_FALSE(h.in_l1d(0, 0x7000));
  EXPECT_FALSE(h.in_l1d(1, 0x7040));
  EXPECT_FALSE(h.in_llc(0x7000));
  EXPECT_FALSE(h.in_llc(0x7040));
}

TEST(Hierarchy, OutOfRangeCoreIsAConfigError) {
  sim::CacheHierarchy h(two_core_config());
  const auto expect_config_error = [](const std::function<void()>& call) {
    try {
      call();
      ADD_FAILURE() << "an out-of-range core must be rejected";
    } catch (const hwsec::SimError& e) {
      EXPECT_EQ(e.kind(), hwsec::ErrorKind::kConfigError);
    }
  };
  expect_config_error([&] { h.access(2, 0, 0x1000, sim::AccessType::kRead); });
  expect_config_error([&] { h.fetch(2, 0, 0x1000); });
  expect_config_error([&] { (void)h.in_l1d(2, 0x1000); });
  expect_config_error([&] { h.flush_core_private(2); });
  expect_config_error([&] {
    h.read_lines(2, 0, 0x1000, 64, 4, [](const sim::MemoryAccessOutcome&) { return true; });
  });

  sim::Machine m(sim::MachineProfile::mobile(), 1);  // cores 0..3.
  expect_config_error([&] { m.touch(4, 0, 0x1000); });
  expect_config_error([&] { m.probe_lines(4, 0, 0x1000, 64, 4, [](sim::Cycle) { return true; }); });
  EXPECT_EQ(m.touch(3, 0, 0x1000).level, sim::ServiceLevel::kDram) << "the last core is valid";
}

// ---- batched probe paths vs their per-line definitions ---------------------
//
// Machine::probe_lines must leave exactly the state, statistics and RNG
// position of a touch() + observe_latency() loop, and flush_lines exactly
// those of a flush_line() loop. Each case runs both on two identically
// built and identically warmed machines, then compares the observed
// latencies, every cache's aggregate and per-domain counters, and the
// outcomes of a seeded follow-up access stream (which exposes replacement
// state: LRU stamps, PLRU bits, the random-policy RNG).

constexpr sim::PhysAddr kSweepBase = 0x0040'0000;
constexpr sim::DomainId kOtherDomain = 9;

/// A seeded mix of data reads/writes, instruction fetches and flushes on
/// every core from two domains, over lines that alias the sweep's sets at
/// several LLC-sized offsets (so sets overflow: evictions and inclusive
/// back-invalidations happen).
void run_stream(sim::Machine& m, std::uint64_t seed, std::uint32_t ops, sim::DomainId domain,
                std::vector<std::uint64_t>* outcomes) {
  sim::Rng rng(seed);
  const sim::HierarchyConfig& h = m.profile().hierarchy;
  const std::uint32_t span = h.has_llc ? h.llc.size_bytes / h.llc.ways : 64 * 1024;
  for (std::uint32_t i = 0; i < ops; ++i) {
    const auto core = static_cast<sim::CoreId>(rng.below(m.num_cores()));
    const sim::DomainId d = rng.below(3) == 0 ? kOtherDomain : domain;
    const sim::PhysAddr addr = kSweepBase + static_cast<sim::PhysAddr>(rng.below(320)) * 64 +
                               static_cast<sim::PhysAddr>(rng.below(40)) * span +
                               static_cast<sim::PhysAddr>(rng.below(64));
    sim::MemoryAccessOutcome o;
    switch (rng.below(8)) {
      case 0: o = m.caches().fetch(core, d, addr); break;
      case 1: m.flush_line(addr); continue;
      case 2: o = m.touch(core, d, addr, sim::AccessType::kWrite); break;
      default: o = m.touch(core, d, addr); break;
    }
    if (outcomes != nullptr) {
      outcomes->push_back(static_cast<std::uint64_t>(o.level) << 32 | o.latency);
    }
  }
}

std::vector<std::uint64_t> cache_counters(sim::Machine& m, sim::DomainId domain) {
  std::vector<std::uint64_t> out;
  const auto add = [&](const sim::Cache& c) {
    for (const sim::CacheStats* s :
         {&c.stats(), &c.domain_stats(domain), &c.domain_stats(kOtherDomain)}) {
      out.insert(out.end(), {s->hits, s->misses, s->evictions, s->flushes});
    }
  };
  const sim::HierarchyConfig& h = m.profile().hierarchy;
  for (sim::CoreId c = 0; h.has_l1 && c < m.num_cores(); ++c) {
    add(m.caches().l1d(c));
    add(m.caches().l1i(c));
  }
  if (h.has_llc) {
    add(m.caches().llc());
  }
  return out;
}

/// Everything observable after the operation under test, in order.
std::vector<std::uint64_t> observe_after(sim::Machine& m, sim::DomainId domain) {
  std::vector<std::uint64_t> out = cache_counters(m, domain);
  run_stream(m, 77, 600, domain, &out);
  const std::vector<std::uint64_t> after = cache_counters(m, domain);
  out.insert(out.end(), after.begin(), after.end());
  out.push_back(m.rng().next_u64());  // timer jitter draws from the machine RNG.
  return out;
}

struct SweepCase {
  std::string name;
  sim::MachineProfile profile;
  std::function<void(sim::Machine&)> configure = [](sim::Machine&) {};
  sim::CoreId core = 0;
  sim::DomainId domain = sim::kDomainNormal;
  std::uint32_t stride = 64;
  std::uint32_t count = 256;
  std::uint32_t stop_at_hot = 0;  ///< stop the sweep at this hot line; 0: never.
};

void expect_probe_lines_matches_touch_loop(const SweepCase& c) {
  SCOPED_TRACE(c.name);
  sim::Machine batched(c.profile, 5);
  sim::Machine per_line(c.profile, 5);
  for (sim::Machine* m : {&batched, &per_line}) {
    c.configure(*m);
    run_stream(*m, 11, 3000, c.domain, nullptr);
  }
  constexpr sim::Cycle kHitThreshold = 100;
  std::vector<sim::Cycle> batched_latencies;
  std::uint32_t hot = 0;
  batched.probe_lines(c.core, c.domain, kSweepBase, c.stride, c.count, [&](sim::Cycle latency) {
    batched_latencies.push_back(latency);
    return !(latency < kHitThreshold && ++hot == c.stop_at_hot);
  });
  std::vector<sim::Cycle> per_line_latencies;
  hot = 0;
  for (std::uint32_t i = 0; i < c.count; ++i) {
    const auto outcome = per_line.touch(c.core, c.domain, kSweepBase + i * c.stride);
    const sim::Cycle latency = per_line.observe_latency(outcome.latency);
    per_line_latencies.push_back(latency);
    if (latency < kHitThreshold && ++hot == c.stop_at_hot) {
      break;
    }
  }
  ASSERT_EQ(batched_latencies, per_line_latencies);
  if (c.stop_at_hot != 0) {
    EXPECT_LT(batched_latencies.size(), c.count) << "the case must actually stop early";
  }
  EXPECT_EQ(observe_after(batched, c.domain), observe_after(per_line, c.domain));
}

sim::MachineProfile with_policy(sim::MachineProfile p, sim::ReplacementPolicy policy) {
  p.hierarchy.l1d.policy = policy;
  p.hierarchy.l1i.policy = policy;
  p.hierarchy.llc.policy = policy;
  return p;
}

TEST(HierarchyBatched, ProbeLinesMatchesTouchLoop) {
  sim::MachineProfile jittery = sim::MachineProfile::mobile();
  jittery.timer = {.granularity = 8, .jitter = 20};
  const std::vector<SweepCase> cases = {
      {.name = "server LRU", .profile = sim::MachineProfile::server()},
      {.name = "mobile LRU core 2", .profile = sim::MachineProfile::mobile(), .core = 2},
      {.name = "embedded (no caches)", .profile = sim::MachineProfile::embedded()},
      {.name = "mobile tree-PLRU",
       .profile = with_policy(sim::MachineProfile::mobile(), sim::ReplacementPolicy::kTreePlru)},
      {.name = "server random",
       .profile = with_policy(sim::MachineProfile::server(), sim::ReplacementPolicy::kRandom)},
      {.name = "mobile LLC way partition",
       .profile = sim::MachineProfile::mobile(),
       .configure = [](sim::Machine& m) { m.caches().llc().set_way_partition(3, 0, 4); },
       .domain = 3},
      {.name = "mobile uncacheable ranges over part of the sweep",
       .profile = sim::MachineProfile::mobile(),
       .configure =
           [](sim::Machine& m) {
             m.caches().add_uncacheable(kSweepBase + 40 * 64, 30 * 64,
                                        sim::CacheHierarchy::Exclusion::kSharedOnly);
             m.caches().add_uncacheable(kSweepBase + 150 * 64, 20 * 64,
                                        sim::CacheHierarchy::Exclusion::kAllLevels);
           }},
      {.name = "server scrambled LLC",
       .profile = sim::MachineProfile::server(),
       .configure = [](sim::Machine& m) { m.caches().llc().set_index_scramble(0x5EC0DE); }},
      {.name = "mobile jittered coarse timer", .profile = jittery},
      {.name = "mobile stops at the second hot line",
       .profile = sim::MachineProfile::mobile(),
       .stop_at_hot = 2},
      {.name = "jittered timer stops early", .profile = jittery, .stop_at_hot = 3},
      {.name = "mobile page stride", .profile = sim::MachineProfile::mobile(), .stride = 4096,
       .count = 64},
      {.name = "server odd stride", .profile = sim::MachineProfile::server(), .stride = 100,
       .count = 300},
  };
  for (const SweepCase& c : cases) {
    expect_probe_lines_matches_touch_loop(c);
  }
}

struct FlushCase {
  std::string name;
  sim::MachineProfile profile;
  sim::PhysAddr base = kSweepBase;
  std::uint32_t stride = 64;
  std::uint32_t count = 256;
  bool scramble = false;
};

TEST(HierarchyBatched, FlushLinesMatchesFlushLineLoop) {
  const std::vector<FlushCase> cases = {
      {.name = "mobile probe array", .profile = sim::MachineProfile::mobile()},
      {.name = "count > num_sets of every level", .profile = sim::MachineProfile::mobile(),
       .count = 2 * 1024 + 37},
      {.name = "unaligned base", .profile = sim::MachineProfile::mobile(),
       .base = kSweepBase + 13, .count = 300},
      {.name = "run wraps the set index", .profile = sim::MachineProfile::server(),
       .base = kSweepBase - 64 * 64, .count = 200},
      {.name = "non-line stride", .profile = sim::MachineProfile::server(), .stride = 96,
       .count = 500},
      {.name = "page stride", .profile = sim::MachineProfile::mobile(), .stride = 4096,
       .count = 64},
      {.name = "tree-PLRU", .profile = with_policy(sim::MachineProfile::mobile(),
                                                   sim::ReplacementPolicy::kTreePlru)},
      {.name = "scrambled LLC", .profile = sim::MachineProfile::server(), .count = 600,
       .scramble = true},
      {.name = "embedded (no caches)", .profile = sim::MachineProfile::embedded()},
  };
  for (const FlushCase& c : cases) {
    SCOPED_TRACE(c.name);
    sim::Machine batched(c.profile, 6);
    sim::Machine per_line(c.profile, 6);
    for (sim::Machine* m : {&batched, &per_line}) {
      if (c.scramble) {
        m->caches().llc().set_index_scramble(0xC0FFEE);
      }
      run_stream(*m, 12, 4000, sim::kDomainNormal, nullptr);
    }
    batched.flush_lines(c.base, c.stride, c.count);
    sim::PhysAddr addr = c.base;
    for (std::uint32_t i = 0; i < c.count; ++i, addr += c.stride) {
      per_line.flush_line(addr);
    }
    EXPECT_EQ(observe_after(batched, sim::kDomainNormal),
              observe_after(per_line, sim::kDomainNormal));
  }
}

}  // namespace
