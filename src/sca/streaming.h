// Single-pass streaming accumulators: the one engine behind every
// side-channel statistic (CPA, DPA, second-order CPA, Welch-t, DoM, SNR).
//
// Each accumulator ingests traces one batch at a time — O(points) state,
// independent of trace count — so campaign size is not capped by memory.
// The in-memory API (sca/cpa.h, the max_* functions of sca/stats.h,
// sca/second_order.h) is a thin adapter that feeds a whole trace matrix
// through these same accumulators. Correctness is pinned against
// independent references — per-point Pearson, column means and
// closed-form fixtures — to 1e-9 relative, at a zero and a 1e9 baseline
// (see the StreamingEquivalence tests).
//
// Numerics (PR 4's DC-shift rewrite, made incremental): every per-point
// running sum is accumulated relative to a *shift* taken from the first
// trace the accumulator sees at that point, so a large DC baseline (supply
// power + noise floor, the adversarial 1e9-offset fixtures) cancels before
// it can swamp the mantissa; whole-campaign per-point sums are additionally
// Kahan-compensated. Per-class sums skip Kahan: each class receives ~n/256
// additions of already-shifted O(signal) values, so the plain-sum error is
// orders below the 1e-9 bound (measured in the equivalence suite).
//
// merge(): partial accumulators from different workers combine by exact
// shift-rebasing algebra (binomial expansion of the shifted moments onto
// the receiver's shift basis). Determinism contract: merging the same
// partials in the same order is bit-deterministic; the campaign drivers
// always merge in batch-index order, so a W-worker reduction is a pure
// function of the batch partition, never of scheduling. Associativity
// holds exactly in real arithmetic and to rounding in doubles (asserted
// at 1e-9 with 1/2/8-way splits in the tests).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sca/cpa.h"
#include "sca/stats.h"
#include "sca/trace.h"

namespace hwsec::sca {

/// Per-point first/second moments of one trace population, online.
/// Backs the streaming Welch-t, SNR and DoM computations.
class PopulationAccumulator {
 public:
  PopulationAccumulator() = default;
  explicit PopulationAccumulator(std::size_t points);

  void add(std::span<const double> samples);
  /// Folds `other` in (shift-rebased onto this accumulator's basis).
  void merge(const PopulationAccumulator& other);

  std::size_t traces() const { return n_; }
  std::size_t points() const { return shift_.size(); }
  double mean(std::size_t p) const;
  /// Unbiased (n-1) variance; 0 for n < 2.
  double variance(std::size_t p) const;

 private:
  std::size_t n_ = 0;
  std::vector<double> shift_;           ///< first trace's samples (DC anchor).
  std::vector<detail::KahanAcc> s1_;    ///< Σ (x - shift).
  std::vector<detail::KahanAcc> s2_;    ///< Σ (x - shift)².
};

/// Welch's t over two streamed populations; also yields the
/// difference-of-means statistic (classic single-bit DPA distinguisher).
class StreamingWelchT {
 public:
  StreamingWelchT() = default;
  explicit StreamingWelchT(std::size_t points)
      : populations_{PopulationAccumulator(points), PopulationAccumulator(points)} {}

  void add(std::size_t population, std::span<const double> samples) {
    populations_.at(population).add(samples);
  }
  void merge(const StreamingWelchT& other) {
    populations_[0].merge(other.populations_[0]);
    populations_[1].merge(other.populations_[1]);
  }

  const PopulationAccumulator& population(std::size_t i) const { return populations_.at(i); }

  /// max over points of |t|; the TVLA detection statistic.
  double max_t() const;
  /// max over points of |mean_a - mean_b| (DoM).
  double max_dom() const;

 private:
  std::array<PopulationAccumulator, 2> populations_{};
};

/// Streaming SNR across K leakage classes: Var_classes(mean) /
/// mean_classes(Var), maximized over points.
class StreamingSnr {
 public:
  StreamingSnr() = default;
  StreamingSnr(std::size_t classes, std::size_t points);

  void add(std::size_t cls, std::span<const double> samples) {
    classes_.at(cls).add(samples);
  }
  void merge(const StreamingSnr& other);

  double max_snr() const;

 private:
  std::vector<PopulationAccumulator> classes_;
};

/// Streaming first-order CPA over all 16 key bytes (plus the single-bit
/// DPA distinguisher, which needs the same class sums).
///
/// State is a class-sum reduction: the Hamming-weight hypothesis depends
/// on a trace only through one plaintext byte, so per byte index it
/// suffices to hold per-point trace sums for each of the 256
/// plaintext-byte classes, plus whole-campaign per-point Σx and Σx². One
/// O(n·points) pass builds them, after which every key guess costs
/// O(256·points) regardless of n. ~ (16·256 + 2) · points doubles —
/// 5.4 MiB for AES traces, independent of trace count.
class StreamingCpa {
 public:
  StreamingCpa() = default;
  explicit StreamingCpa(std::size_t points);

  void add(std::span<const double> samples, const std::array<std::uint8_t, 16>& plaintext);
  void add_batch(const TraceSet& batch);
  void merge(const StreamingCpa& other);

  std::size_t traces() const { return n_; }
  std::size_t points() const { return points_; }

  /// CPA distinguisher for one key byte: per guess, |Pearson| between
  /// HW(S[pt ⊕ k]) and every point, maximized over points.
  ByteAttackResult finalize_byte(std::size_t byte_index) const;
  /// All 16 bytes (parallel over the shared pool, deterministic).
  KeyAttackResult finalize_key() const;

  /// Single-bit DPA: per guess, |difference of means| between the traces
  /// whose S-box output bit `bit` is predicted 1 and those predicted 0,
  /// maximized over points.
  ByteAttackResult finalize_dpa_byte(std::size_t byte_index, std::uint32_t bit = 0) const;
  KeyAttackResult finalize_dpa_key(std::uint32_t bit = 0) const;

 private:
  friend class StreamingSecondOrderCpa;

  std::size_t points_ = 0;
  std::size_t n_ = 0;
  std::vector<double> shift_;                       ///< per-point DC anchor.
  std::vector<detail::KahanAcc> sum_x_;             ///< Σ X, X = x - shift.
  std::vector<detail::KahanAcc> sum_xx_;            ///< Σ X².
  std::vector<double> class_sums_;                  ///< [byte][value][point] Σ X.
  std::array<std::array<std::uint32_t, 256>, 16> class_counts_{};

  double* class_row(std::size_t byte, std::size_t value) {
    return &class_sums_[(byte * 256 + value) * points_];
  }
  const double* class_row(std::size_t byte, std::size_t value) const {
    return &class_sums_[(byte * 256 + value) * points_];
  }
};

/// Streaming centered-product second-order CPA against first-order
/// masking: one pass accumulates the joint moments of the mask-load sample
/// Y with every point X (up to Σ Y²X², shifted + compensated), from which
/// finalize() reconstructs exactly the statistics of first-order CPA on
/// the centered-product combined traces (sca/second_order.h) without ever
/// building them. State ~ (2·16·256 + 6) · points doubles (~11 MiB for AES
/// traces).
class StreamingSecondOrderCpa {
 public:
  StreamingSecondOrderCpa() = default;
  StreamingSecondOrderCpa(std::size_t points, std::size_t mask_sample);

  void add(std::span<const double> samples, const std::array<std::uint8_t, 16>& plaintext);
  void add_batch(const TraceSet& batch);
  void merge(const StreamingSecondOrderCpa& other);

  std::size_t traces() const { return n_; }
  std::size_t mask_sample() const { return mask_sample_; }

  ByteAttackResult finalize_byte(std::size_t byte_index) const;
  KeyAttackResult finalize_key() const;

 private:
  std::size_t points_ = 0;
  std::size_t mask_sample_ = 0;
  std::size_t n_ = 0;
  double shift_y_ = 0.0;                 ///< mask-sample DC anchor.
  std::vector<double> shift_;            ///< per-point DC anchor.
  // Whole-campaign per-point moments (X = x_p - shift_p, Y = x_mask - shift_y).
  std::vector<detail::KahanAcc> a1_;     ///< Σ X
  std::vector<detail::KahanAcc> a2_;     ///< Σ X²
  std::vector<detail::KahanAcc> b11_;    ///< Σ YX
  std::vector<detail::KahanAcc> b21_;    ///< Σ Y²X
  std::vector<detail::KahanAcc> b12_;    ///< Σ YX²
  std::vector<detail::KahanAcc> b22_;    ///< Σ Y²X²
  detail::KahanAcc c1_;                  ///< Σ Y
  detail::KahanAcc c2_;                  ///< Σ Y²
  // Per-byte per-class sums (plain; see file comment for the error budget).
  std::vector<double> class_yx_;         ///< [byte][value][point] Σ YX.
  std::vector<double> class_x_;          ///< [byte][value][point] Σ X.
  std::vector<double> class_y_;          ///< [byte][value] Σ Y.
  std::array<std::array<std::uint32_t, 256>, 16> class_counts_{};

  std::size_t class_base(std::size_t byte, std::size_t value) const {
    return (byte * 256 + value) * points_;
  }
};

}  // namespace hwsec::sca
