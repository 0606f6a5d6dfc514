#include "attacks/cache/cache_attacks.h"

namespace hwsec::attacks {

namespace sim = hwsec::sim;
namespace crypto = hwsec::crypto;

namespace {

/// Vote accumulator: votes[key_byte][high_nibble_candidate].
class NibbleVotes {
 public:
  void add(std::size_t key_byte, std::uint8_t nibble) { ++votes_[key_byte][nibble & 0xF]; }

  void finish(CacheAttackResult& result) const {
    for (std::size_t i = 0; i < 16; ++i) {
      std::uint32_t best = 0, second = 0;
      std::uint8_t arg = 0;
      for (std::uint8_t v = 0; v < 16; ++v) {
        const std::uint32_t count = votes_[i][v];
        if (count > best) {
          second = best;
          best = count;
          arg = v;
        } else if (count > second) {
          second = count;
        }
      }
      result.high_nibbles[i] = arg;
      result.best_votes[i] = best;
      result.second_votes[i] = second;
    }
  }

 private:
  std::array<std::array<std::uint32_t, 16>, 16> votes_{};
};

/// Key bytes whose first-round lookup indexes table `t` (derivation in
/// attacks/cache/cache_attacks.h: T_t is indexed by bytes i with i%4==t).
std::array<std::size_t, 4> bytes_of_table(std::uint32_t t) {
  return {t, t + 4, t + 8, t + 12};
}

crypto::AesBlock random_block(sim::Rng& rng) {
  crypto::AesBlock b;
  for (auto& byte : b) {
    byte = static_cast<std::uint8_t>(rng.next_u32());
  }
  return b;
}

constexpr std::uint32_t kLinesPerTable = TableLayout::table_bytes() / 64;  // 16.

}  // namespace

double CacheAttackResult::mean_margin() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    sum += second_votes[i] > 0
               ? static_cast<double>(best_votes[i]) / static_cast<double>(second_votes[i])
               : (best_votes[i] > 0 ? 16.0 : 1.0);
  }
  return sum / 16.0;
}

CacheAttackResult flush_reload_attack(sim::Machine& machine, const TableLayout& layout,
                                      const VictimFn& victim, const CacheAttackConfig& config) {
  sim::Rng rng(config.rng_seed);
  NibbleVotes votes;
  CacheAttackResult result;
  result.trials = config.trials;

  for (std::uint64_t trial = 0; trial < config.trials; ++trial) {
    const crypto::AesBlock pt = random_block(rng);
    // Flush every line of the four round tables.
    for (std::uint32_t t = 0; t < 4; ++t) {
      machine.flush_lines(layout.base[t], 64, kLinesPerTable);
    }
    victim(pt);
    // Reload: a fast access means the victim touched that line.
    for (std::uint32_t t = 0; t < 4; ++t) {
      std::uint32_t l = 0;
      machine.probe_lines(config.attacker_core, config.attacker_domain, layout.base[t], 64,
                          kLinesPerTable, [&](sim::Cycle latency) {
                            if (latency < config.hit_threshold) {
                              for (std::size_t i : bytes_of_table(t)) {
                                votes.add(i, static_cast<std::uint8_t>(l ^ (pt[i] >> 4)));
                              }
                            }
                            ++l;
                            return true;
                          });
    }
  }
  votes.finish(result);
  return result;
}

CacheAttackResult prime_probe_attack(sim::Machine& machine, const TableLayout& layout,
                                     const VictimFn& victim, const CacheAttackConfig& config,
                                     EvictionSetBuilder::FrameAllocator allocator) {
  sim::Rng rng(config.rng_seed);
  const std::uint32_t ways = machine.caches().llc().config().ways;
  EvictionSetBuilder builder(machine, std::move(allocator));

  // Eviction set per (table, line) target.
  std::array<std::array<std::vector<sim::PhysAddr>, kLinesPerTable>, 4> sets;
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint32_t l = 0; l < kLinesPerTable; ++l) {
      sets[t][l] = builder.build(layout.base[t] + 64 * l, ways);
    }
  }

  NibbleVotes votes;
  CacheAttackResult result;
  result.trials = config.trials;

  for (std::uint64_t trial = 0; trial < config.trials; ++trial) {
    const crypto::AesBlock pt = random_block(rng);
    // Prime: own every target set completely (repeatedly, so approximate
    // replacement policies converge to full attacker occupancy).
    for (std::uint32_t round = 0; round < std::max(1u, config.prime_rounds); ++round) {
      for (std::uint32_t t = 0; t < 4; ++t) {
        for (std::uint32_t l = 0; l < kLinesPerTable; ++l) {
          for (sim::PhysAddr a : sets[t][l]) {
            machine.touch(config.attacker_core, config.attacker_domain, a);
          }
        }
      }
    }
    victim(pt);
    // Probe: any DRAM-latency access means the victim displaced us.
    for (std::uint32_t t = 0; t < 4; ++t) {
      for (std::uint32_t l = 0; l < kLinesPerTable; ++l) {
        bool evicted = false;
        for (sim::PhysAddr a : sets[t][l]) {
          const auto outcome = machine.touch(config.attacker_core, config.attacker_domain, a);
          if (machine.observe_latency(outcome.latency) > config.hit_threshold) {
            evicted = true;
          }
        }
        if (evicted && !sets[t][l].empty()) {
          for (std::size_t i : bytes_of_table(t)) {
            votes.add(i, static_cast<std::uint8_t>(l ^ (pt[i] >> 4)));
          }
        }
      }
    }
  }
  votes.finish(result);
  return result;
}

CacheAttackResult evict_time_attack(sim::Machine& machine, const TableLayout& layout,
                                    const VictimFn& victim, const CacheAttackConfig& config,
                                    EvictionSetBuilder::FrameAllocator allocator) {
  sim::Rng rng(config.rng_seed);
  const std::uint32_t ways = machine.caches().llc().config().ways;
  EvictionSetBuilder builder(machine, std::move(allocator));

  std::array<std::array<std::vector<sim::PhysAddr>, kLinesPerTable>, 4> sets;
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint32_t l = 0; l < kLinesPerTable; ++l) {
      sets[t][l] = builder.build(layout.base[t] + 64 * l, ways);
    }
  }

  // Evict+Time scores by ELIMINATION (Osvik et al.'s insight, adapted):
  // a T-table line is touched by ~90% of encryptions anyway (36 accesses
  // per table per block), so "slow" carries almost no information — but
  // "NOT slow" proves the first-round index of every byte using this
  // table had a different high nibble. The true key nibble is never
  // eliminated; every wrong candidate eventually is.
  std::array<std::array<std::uint32_t, 16>, 16> penalties{};
  CacheAttackResult result;
  result.trials = config.trials;
  const sim::Cycle dram = machine.caches().config().dram_latency;

  for (std::uint64_t trial = 0; trial < config.trials; ++trial) {
    const crypto::AesBlock pt = random_block(rng);
    const std::uint32_t t = static_cast<std::uint32_t>(trial % 4);
    const std::uint32_t l = static_cast<std::uint32_t>((trial / 4) % kLinesPerTable);
    if (sets[t][l].empty()) {
      continue;
    }

    // Warm the victim's working set, then evict exactly one table line.
    victim(pt);
    const sim::Cycle baseline = machine.observe_latency(victim(pt).latency);
    for (sim::PhysAddr a : sets[t][l]) {
      machine.touch(config.attacker_core, config.attacker_domain, a);
    }
    const sim::Cycle timed = machine.observe_latency(victim(pt).latency);

    const bool line_touched = timed > baseline + dram / 2;
    if (!line_touched) {
      for (std::size_t i : bytes_of_table(t)) {
        ++penalties[i][l ^ (pt[i] >> 4)];
      }
    }
  }

  for (std::size_t i = 0; i < 16; ++i) {
    std::uint32_t best_penalty = UINT32_MAX, second_penalty = UINT32_MAX;
    std::uint8_t arg = 0;
    for (std::uint8_t v = 0; v < 16; ++v) {
      if (penalties[i][v] < best_penalty) {
        second_penalty = best_penalty;
        best_penalty = penalties[i][v];
        arg = v;
      } else if (penalties[i][v] < second_penalty) {
        second_penalty = penalties[i][v];
      }
    }
    result.high_nibbles[i] = arg;
    // Report penalties as "votes" with the margin sense preserved
    // (higher best_votes/second_votes = more confident).
    result.best_votes[i] = second_penalty;
    result.second_votes[i] = best_penalty + 1;
  }
  return result;
}

}  // namespace hwsec::attacks
