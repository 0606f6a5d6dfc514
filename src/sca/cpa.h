// Correlation power analysis (CPA) and classic difference-of-means DPA
// engines against first-round AES S-box leakage.
//
// Both implement the paper's §5 "passive SCA" attacks (Kocher/Jaffe/Jun
// [25] for DPA; Brier-style CPA as the modern standard): the attacker
// records traces with *known plaintexts*, guesses one key byte (256
// hypotheses), predicts the leakage of S[pt ⊕ k] under the Hamming-weight
// model, and picks the hypothesis that best matches the measurements.
//
// Countermeasure validation built in: against a masked implementation the
// best and second-best hypotheses become statistically indistinguishable,
// which the `margin()` of the result exposes.
//
// These functions take a trace set already in memory and feed it through
// one sca::StreamingCpa (sca/streaming.h), the only implementation of the
// CPA and DPA distinguishers. Every trace must have the same number of
// samples; a ragged set throws std::invalid_argument.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/aes.h"
#include "sca/trace.h"

namespace hwsec::sca {

struct ByteAttackResult {
  std::uint8_t best_guess = 0;
  double best_score = 0.0;
  double second_score = 0.0;
  std::size_t best_point = 0;  ///< sample index where the best score occurred.
  std::array<double, 256> score_per_guess{};

  /// Best/second ratio; > ~1.1 means a confident recovery.
  double margin() const {
    return second_score > 1e-12 ? best_score / second_score : best_score > 1e-12 ? 1e9 : 1.0;
  }
};

/// CPA on key byte `byte_index` (0..15): Pearson correlation between
/// HW(S[pt ⊕ k]) and every trace point. The accumulation pass covers all
/// 16 bytes, so one byte costs about as much as cpa_attack_key; call that
/// (or finalize one StreamingCpa) when several bytes are wanted.
ByteAttackResult cpa_attack_byte(const TraceSet& set, std::size_t byte_index);

/// Single-bit DPA on key byte `byte_index`, selection bit `bit` of the
/// S-box output: partitions traces by the predicted bit and scores each
/// hypothesis by the maximum difference of means. Costs about as much as
/// dpa_attack_key (see cpa_attack_byte).
ByteAttackResult dpa_attack_byte(const TraceSet& set, std::size_t byte_index,
                                 std::uint32_t bit = 0);

struct KeyAttackResult {
  hwsec::crypto::AesKey recovered{};
  std::array<ByteAttackResult, 16> bytes{};

  std::uint32_t correct_bytes(const hwsec::crypto::AesKey& actual) const {
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      n += recovered[i] == actual[i] ? 1u : 0u;
    }
    return n;
  }
};

/// CPA on all 16 bytes. One pass accumulates the set; the 16 byte
/// finalizations fan out across the shared thread pool and are
/// bit-identical to the sequential loop at any worker count.
KeyAttackResult cpa_attack_key(const TraceSet& set);

/// DPA on all 16 bytes (one pass, parallel finalization — see
/// cpa_attack_key).
KeyAttackResult dpa_attack_key(const TraceSet& set, std::uint32_t bit = 0);

}  // namespace hwsec::sca
