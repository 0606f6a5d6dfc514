#include "attacks/cache/full_key_recovery.h"

#include <cstring>
#include <optional>
#include <stdexcept>

namespace hwsec::attacks {

namespace sim = hwsec::sim;
namespace crypto = hwsec::crypto;

void collect_line_observations_into(sim::Machine& machine, const TableLayout& layout,
                                    const VictimFn& victim, std::uint64_t trials,
                                    const CacheAttackConfig& config,
                                    const std::function<void(const LineObservation&)>& sink) {
  sim::Rng rng(config.rng_seed ^ 0x2ECD);
  for (std::uint64_t t = 0; t < trials; ++t) {
    LineObservation obs;
    for (auto& b : obs.plaintext) {
      b = static_cast<std::uint8_t>(rng.next_u32());
    }
    for (std::uint32_t table = 0; table < 4; ++table) {
      machine.flush_lines(layout.base[table], 64, 16);
    }
    obs.ciphertext = victim(obs.plaintext).ciphertext;
    for (std::uint32_t table = 0; table < 4; ++table) {
      std::uint32_t l = 0;
      machine.probe_lines(config.attacker_core, config.attacker_domain, layout.base[table], 64, 16,
                          [&](sim::Cycle latency) {
                            if (latency < config.hit_threshold) {
                              obs.lines[table] |= static_cast<std::uint16_t>(1u << l);
                            }
                            ++l;
                            return true;
                          });
    }
    sink(obs);
  }
}

std::vector<LineObservation> collect_line_observations(sim::Machine& machine,
                                                       const TableLayout& layout,
                                                       const VictimFn& victim,
                                                       std::uint64_t trials,
                                                       const CacheAttackConfig& config) {
  std::vector<LineObservation> observations;
  observations.reserve(trials);
  collect_line_observations_into(machine, layout, victim, trials, config,
                                 [&](const LineObservation& obs) { observations.push_back(obs); });
  return observations;
}

namespace {

// On-disk record: pt[16] + ct[16] + 4 × u16 line sets = 40 bytes.
constexpr std::size_t kObservationRecordBytes = 40;
constexpr std::uint64_t kObservationLogTag = 0x4F42534Cu;  // "OBSL"

void pack_observation(const LineObservation& obs, std::uint8_t* out) {
  std::memcpy(out, obs.plaintext.data(), 16);
  std::memcpy(out + 16, obs.ciphertext.data(), 16);
  std::memcpy(out + 32, obs.lines.data(), 8);
}

LineObservation unpack_observation(const std::uint8_t* in) {
  LineObservation obs;
  std::memcpy(obs.plaintext.data(), in, 16);
  std::memcpy(obs.ciphertext.data(), in + 16, 16);
  std::memcpy(obs.lines.data(), in + 32, 8);
  return obs;
}

}  // namespace

LineObservationLogWriter::LineObservationLogWriter(const std::string& dir)
    : writer_(std::make_unique<hwsec::sca::ChunkedRecordWriter>(
          dir, kObservationRecordBytes, /*records_per_chunk=*/4096, kObservationLogTag)) {}

void LineObservationLogWriter::append(const LineObservation& obs) {
  std::uint8_t record[kObservationRecordBytes];
  pack_observation(obs, record);
  writer_->append(record);
}

std::size_t LineObservationLogWriter::size() const { return writer_->size(); }

void LineObservationLogWriter::finalize() { writer_->finalize(); }

LineObservationLogReader::LineObservationLogReader(const std::string& dir)
    : reader_(std::make_unique<hwsec::sca::ChunkedRecordReader>(dir)) {
  if (reader_->record_bytes() != kObservationRecordBytes ||
      reader_->user_tag() != kObservationLogTag) {
    throw std::runtime_error("observation log: " + dir + ": not an observation log");
  }
}

std::size_t LineObservationLogReader::size() const { return reader_->size(); }

void LineObservationLogReader::replay(
    const std::function<void(const LineObservation&)>& visit) const {
  reader_->replay([&](std::size_t, const std::uint8_t* record) {
    visit(unpack_observation(record));
  });
}

namespace {

constexpr std::uint8_t xtime8(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

/// One §3.4 second-round equation: the round-2 T0 index for word j is
///   02•S(pt[p0]⊕k[p0]) ⊕ 03•S(pt[p1]⊕k[p1]) ⊕ S(pt[p2]⊕k[p2])
///   ⊕ S(pt[p3]⊕k[p3]) ⊕ topbyte(K1[j]),
/// with (p0..p3) the ShiftRows selection {4j, 4j+5, 4j+10, 4j+15} mod 16
/// and topbyte(K1[j]) = k[0] ⊕ k[4] ⊕ … ⊕ k[4j] ⊕ S(k[13]) ⊕ 0x01.
struct Equation {
  std::array<int, 4> p;
  std::vector<int> k1_xor;
  std::vector<int> unknowns;  ///< positions this equation newly solves.
};

std::array<Equation, 4> make_equations() {
  return {{
      {{0, 5, 10, 15}, {0}, {0, 5, 10, 15, 13}},
      {{4, 9, 14, 3}, {4, 0}, {4, 9, 14, 3}},
      {{8, 13, 2, 7}, {8, 4, 0}, {8, 2, 7}},
      {{12, 1, 6, 11}, {12, 8, 4, 0}, {12, 1, 6, 11}},
  }};
}

using PartialKey = std::array<std::optional<std::uint8_t>, 16>;

std::uint8_t predict_index(const Equation& eq, const PartialKey& key,
                           const crypto::AesBlock& pt) {
  const auto& sbox = crypto::aes_sbox();
  auto sub = [&](int pos) {
    const auto i = static_cast<std::size_t>(pos);
    return sbox[static_cast<std::uint8_t>(pt[i] ^ *key[i])];
  };
  const std::uint8_t sa = sub(eq.p[0]);
  const std::uint8_t sb = sub(eq.p[1]);
  const std::uint8_t sc = sub(eq.p[2]);
  const std::uint8_t sd = sub(eq.p[3]);
  std::uint8_t k1_top = static_cast<std::uint8_t>(sbox[*key[13]] ^ 0x01);
  for (const int pos : eq.k1_xor) {
    k1_top = static_cast<std::uint8_t>(k1_top ^ *key[static_cast<std::size_t>(pos)]);
  }
  return static_cast<std::uint8_t>(xtime8(sa) ^ (xtime8(sb) ^ sb) ^ sc ^ sd ^ k1_top);
}

/// Enumerates the low nibbles of `eq.unknowns` (high nibbles fixed by the
/// first-round stage) and eliminates candidates whose predicted round-2
/// T0 line is missing from an observation's T0 set. The true assignment
/// always survives; wrong ones die at ~(15/16)^|T0 accesses| per trial.
std::vector<PartialKey> solve_equation(const Equation& eq, const PartialKey& base,
                                       const std::array<std::uint8_t, 16>& high_nibbles,
                                       const std::vector<LineObservation>& observations,
                                       std::size_t max_survivors) {
  const std::size_t n = eq.unknowns.size();
  std::vector<std::uint32_t> candidates;
  candidates.reserve(std::size_t{1} << (4 * n));
  for (std::uint32_t c = 0; c < (1u << (4 * n)); ++c) {
    candidates.push_back(c);
  }

  PartialKey scratch = base;
  auto apply = [&](std::uint32_t packed) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto pos = static_cast<std::size_t>(eq.unknowns[i]);
      scratch[pos] = static_cast<std::uint8_t>((high_nibbles[pos] << 4) |
                                               ((packed >> (4 * i)) & 0xF));
    }
  };

  for (const LineObservation& obs : observations) {
    std::vector<std::uint32_t> next;
    next.reserve(candidates.size() / 2 + 1);
    for (const std::uint32_t c : candidates) {
      apply(c);
      const std::uint8_t idx = predict_index(eq, scratch, obs.plaintext);
      if (obs.lines[0] & (1u << (idx >> 4))) {
        next.push_back(c);
      }
    }
    candidates = std::move(next);
    if (candidates.size() <= 1) {
      break;
    }
  }

  std::vector<PartialKey> survivors;
  for (std::size_t i = 0; i < candidates.size() && i < max_survivors; ++i) {
    apply(candidates[i]);
    survivors.push_back(scratch);
  }
  return survivors;
}

}  // namespace

FullKeyResult recover_full_key(const std::vector<LineObservation>& observations) {
  FullKeyResult result;
  if (observations.size() < 32) {
    return result;
  }

  // ---- stage 1: first-round vote -> high nibble of every key byte ------
  // T_t is indexed in round 1 by bytes i with i % 4 == t; a hot line l
  // votes for k[i]>>4 == l ^ (pt[i]>>4).
  std::array<std::array<std::uint32_t, 16>, 16> votes{};
  for (const LineObservation& obs : observations) {
    for (std::uint32_t table = 0; table < 4; ++table) {
      for (std::uint32_t l = 0; l < 16; ++l) {
        if (obs.lines[table] & (1u << l)) {
          for (std::uint32_t i = table; i < 16; i += 4) {
            ++votes[i][l ^ (obs.plaintext[i] >> 4)];
          }
        }
      }
    }
  }
  std::array<std::uint8_t, 16> high{};
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint32_t best = 0;
    for (std::uint8_t v = 0; v < 16; ++v) {
      if (votes[i][v] > best) {
        best = votes[i][v];
        high[i] = v;
      }
    }
  }

  // ---- stage 2: second-round elimination, one equation at a time -------
  // Later equations consume bytes solved by earlier ones (K1 cascades),
  // so carry a frontier of surviving partial keys across equations.
  std::vector<PartialKey> frontier = {PartialKey{}};
  const auto equations = make_equations();
  for (std::size_t e = 0; e < equations.size(); ++e) {
    std::vector<PartialKey> next_frontier;
    for (const PartialKey& base : frontier) {
      const auto survivors = solve_equation(equations[e], base, high, observations, 8);
      next_frontier.insert(next_frontier.end(), survivors.begin(), survivors.end());
      if (next_frontier.size() > 64) {
        break;  // runaway ambiguity: fall through to verification.
      }
    }
    result.equation_survivors[e] = next_frontier.size();
    if (next_frontier.empty()) {
      return result;  // contradiction: nibble error or noisy observations.
    }
    frontier = std::move(next_frontier);
  }

  // ---- stage 3: verify surviving keys against a known pt/ct pair -------
  for (const PartialKey& candidate : frontier) {
    ++result.keys_verified;
    crypto::AesKey key{};
    bool complete = true;
    for (std::size_t i = 0; i < 16; ++i) {
      if (!candidate[i].has_value()) {
        complete = false;
        break;
      }
      key[i] = *candidate[i];
    }
    if (!complete) {
      continue;
    }
    crypto::AesTTable aes(key);
    if (aes.encrypt(observations.front().plaintext) == observations.front().ciphertext) {
      result.recovered = true;
      result.key = key;
      return result;
    }
  }
  return result;
}

FullKeyResult recover_full_key_streaming(const ObservationReplayFn& replay) {
  FullKeyResult result;

  // ---- pass 1: count + first-round votes + verification pair ----------
  // Vote totals are order-independent sums, so one sequential pass gives
  // exactly the vote table the materialized stage builds.
  std::array<std::array<std::uint32_t, 16>, 16> votes{};
  std::size_t count = 0;
  LineObservation first;
  replay([&](const LineObservation& obs) {
    if (count == 0) {
      first = obs;
    }
    ++count;
    for (std::uint32_t table = 0; table < 4; ++table) {
      for (std::uint32_t l = 0; l < 16; ++l) {
        if (obs.lines[table] & (1u << l)) {
          for (std::uint32_t i = table; i < 16; i += 4) {
            ++votes[i][l ^ (obs.plaintext[i] >> 4)];
          }
        }
      }
    }
  });
  if (count < 32) {
    return result;
  }
  std::array<std::uint8_t, 16> high{};
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint32_t best = 0;
    for (std::uint8_t v = 0; v < 16; ++v) {
      if (votes[i][v] > best) {
        best = votes[i][v];
        high[i] = v;
      }
    }
  }

  // ---- passes 2–5: one shared elimination pass per equation -----------
  // The materialized path filters base-by-base (each base re-reading the
  // observation vector); here every frontier base's candidate list is
  // filtered in the SAME sequential pass, so each equation costs exactly
  // one replay of the source. Filtering a list stops once it reaches one
  // survivor — the point at which the materialized solver breaks — so the
  // surviving candidate sets are identical.
  std::vector<PartialKey> frontier = {PartialKey{}};
  const auto equations = make_equations();
  for (std::size_t e = 0; e < equations.size(); ++e) {
    const Equation& eq = equations[e];
    const std::size_t n = eq.unknowns.size();
    std::vector<std::vector<std::uint32_t>> candidates(frontier.size());
    for (auto& list : candidates) {
      list.reserve(std::size_t{1} << (4 * n));
      for (std::uint32_t c = 0; c < (1u << (4 * n)); ++c) {
        list.push_back(c);
      }
    }

    PartialKey scratch;
    auto apply = [&](const PartialKey& base, std::uint32_t packed) {
      scratch = base;
      for (std::size_t i = 0; i < n; ++i) {
        const auto pos = static_cast<std::size_t>(eq.unknowns[i]);
        scratch[pos] = static_cast<std::uint8_t>((high[pos] << 4) |
                                                 ((packed >> (4 * i)) & 0xF));
      }
    };

    replay([&](const LineObservation& obs) {
      for (std::size_t b = 0; b < frontier.size(); ++b) {
        auto& list = candidates[b];
        if (list.size() <= 1) {
          continue;
        }
        std::vector<std::uint32_t> next;
        next.reserve(list.size() / 2 + 1);
        for (const std::uint32_t c : list) {
          apply(frontier[b], c);
          const std::uint8_t idx = predict_index(eq, scratch, obs.plaintext);
          if (obs.lines[0] & (1u << (idx >> 4))) {
            next.push_back(c);
          }
        }
        list = std::move(next);
      }
    });

    std::vector<PartialKey> next_frontier;
    for (std::size_t b = 0; b < frontier.size(); ++b) {
      for (std::size_t i = 0; i < candidates[b].size() && i < 8; ++i) {
        apply(frontier[b], candidates[b][i]);
        next_frontier.push_back(scratch);
      }
      if (next_frontier.size() > 64) {
        break;  // runaway ambiguity: fall through to verification.
      }
    }
    result.equation_survivors[e] = next_frontier.size();
    if (next_frontier.empty()) {
      return result;
    }
    frontier = std::move(next_frontier);
  }

  // ---- verification against the captured known pt/ct pair -------------
  for (const PartialKey& candidate : frontier) {
    ++result.keys_verified;
    crypto::AesKey key{};
    bool complete = true;
    for (std::size_t i = 0; i < 16; ++i) {
      if (!candidate[i].has_value()) {
        complete = false;
        break;
      }
      key[i] = *candidate[i];
    }
    if (!complete) {
      continue;
    }
    crypto::AesTTable aes(key);
    if (aes.encrypt(first.plaintext) == first.ciphertext) {
      result.recovered = true;
      result.key = key;
      return result;
    }
  }
  return result;
}

FullKeyResult full_key_attack(sim::Machine& machine, const TableLayout& layout,
                              const VictimFn& victim, std::uint64_t trials,
                              const CacheAttackConfig& config) {
  const auto observations =
      collect_line_observations(machine, layout, victim, trials, config);
  return recover_full_key(observations);
}

FullKeyResult full_key_attack_streaming(sim::Machine& machine, const TableLayout& layout,
                                        const VictimFn& victim, std::uint64_t trials,
                                        const std::string& log_dir,
                                        const CacheAttackConfig& config) {
  {
    LineObservationLogWriter log(log_dir);
    collect_line_observations_into(machine, layout, victim, trials, config,
                                   [&](const LineObservation& obs) { log.append(obs); });
    log.finalize();
  }
  const LineObservationLogReader log(log_dir);
  return recover_full_key_streaming(
      [&](const std::function<void(const LineObservation&)>& visit) { log.replay(visit); });
}

}  // namespace hwsec::attacks
