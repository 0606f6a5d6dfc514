#include "sca/streaming.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sca/stats.h"
#include "sim/thread_pool.h"

namespace hwsec::sca {

namespace {

void check_span(std::span<const double> samples, std::size_t points) {
  if (samples.size() != points) {
    throw std::invalid_argument("streaming accumulator: trace has " +
                                std::to_string(samples.size()) + " points, expected " +
                                std::to_string(points));
  }
}

void check_batch(const TraceSet& batch) {
  if (batch.traces.size() != batch.plaintexts.size()) {
    throw std::invalid_argument("streaming accumulator: batch needs one plaintext per trace");
  }
}

void check_points_match(std::size_t a, std::size_t b) {
  if (a != b) {
    throw std::invalid_argument("streaming merge: point counts differ (" + std::to_string(a) +
                                " vs " + std::to_string(b) + ")");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PopulationAccumulator

PopulationAccumulator::PopulationAccumulator(std::size_t points)
    : shift_(points, 0.0), s1_(points), s2_(points) {}

void PopulationAccumulator::add(std::span<const double> samples) {
  check_span(samples, points());
  if (n_ == 0) {
    // First trace anchors the DC shift; its own shifted contribution is
    // exactly zero, so only the count changes.
    std::copy(samples.begin(), samples.end(), shift_.begin());
    n_ = 1;
    return;
  }
  for (std::size_t p = 0; p < shift_.size(); ++p) {
    const double x = samples[p] - shift_[p];
    s1_[p].add(x);
    s2_[p].add(x * x);
  }
  ++n_;
}

void PopulationAccumulator::merge(const PopulationAccumulator& other) {
  check_points_match(points(), other.points());
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;  // adopt the other basis wholesale — exact.
    return;
  }
  const double dn = static_cast<double>(other.n_);
  for (std::size_t p = 0; p < shift_.size(); ++p) {
    // Rebase Σ(x−σ') and Σ(x−σ')² onto this shift σ: with d = σ'−σ,
    //   Σ(x−σ)  = S1' + n'·d
    //   Σ(x−σ)² = S2' + 2d·S1' + n'·d²
    const double d = other.shift_[p] - shift_[p];
    s1_[p].add(other.s1_[p]);
    s1_[p].add(dn * d);
    s2_[p].add(other.s2_[p]);
    s2_[p].add(2.0 * d * other.s1_[p].sum);
    s2_[p].add(dn * d * d);
  }
  n_ += other.n_;
}

double PopulationAccumulator::mean(std::size_t p) const {
  if (n_ == 0) {
    return 0.0;
  }
  return shift_.at(p) + s1_.at(p).sum / static_cast<double>(n_);
}

double PopulationAccumulator::variance(std::size_t p) const {
  if (n_ < 2) {
    return 0.0;
  }
  const double dn = static_cast<double>(n_);
  // Unbiased: (Σx² − (Σx)²/n) / (n−1) over the shifted values.
  const double ss = s2_.at(p).sum - s1_.at(p).sum * s1_.at(p).sum / dn;
  return std::max(0.0, ss) / (dn - 1.0);
}

// ---------------------------------------------------------------------------
// StreamingWelchT / StreamingSnr

double StreamingWelchT::max_t() const {
  const auto& a = populations_[0];
  const auto& b = populations_[1];
  if (a.traces() < 2 || b.traces() < 2) {
    throw std::invalid_argument("Welch t-test needs >= 2 traces per population");
  }
  const std::size_t points = std::min(a.points(), b.points());
  const double na = static_cast<double>(a.traces());
  const double nb = static_cast<double>(b.traces());
  double best = 0.0;
  for (std::size_t p = 0; p < points; ++p) {
    const double denom = std::sqrt(a.variance(p) / na + b.variance(p) / nb);
    if (denom <= 1e-12) {
      continue;
    }
    best = std::max(best, std::abs((a.mean(p) - b.mean(p)) / denom));
  }
  return best;
}

double StreamingWelchT::max_dom() const {
  const auto& a = populations_[0];
  const auto& b = populations_[1];
  if (a.traces() == 0 || b.traces() == 0) {
    return 0.0;
  }
  const std::size_t points = std::min(a.points(), b.points());
  double best = 0.0;
  for (std::size_t p = 0; p < points; ++p) {
    best = std::max(best, std::abs(a.mean(p) - b.mean(p)));
  }
  return best;
}

StreamingSnr::StreamingSnr(std::size_t classes, std::size_t points)
    : classes_(classes, PopulationAccumulator(points)) {}

void StreamingSnr::merge(const StreamingSnr& other) {
  if (classes_.size() != other.classes_.size()) {
    throw std::invalid_argument("streaming merge: SNR class counts differ");
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    classes_[c].merge(other.classes_[c]);
  }
}

double StreamingSnr::max_snr() const {
  // Classes with no traces are skipped, signal is the unbiased variance
  // of per-class means, noise the mean of per-class variances.
  std::vector<const PopulationAccumulator*> live;
  std::size_t points = 0;
  for (const auto& cls : classes_) {
    if (cls.traces() == 0) {
      continue;
    }
    points = points == 0 ? cls.points() : std::min(points, cls.points());
    live.push_back(&cls);
  }
  if (live.size() < 2 || points == 0) {
    return 0.0;
  }
  double best = 0.0;
  std::vector<double> point_means(live.size());
  for (std::size_t p = 0; p < points; ++p) {
    double noise = 0.0;
    for (std::size_t c = 0; c < live.size(); ++c) {
      point_means[c] = live[c]->mean(p);
      noise += live[c]->variance(p);
    }
    noise /= static_cast<double>(live.size());
    const MeanVar signal = mean_variance(point_means);
    if (noise > 1e-12) {
      best = std::max(best, signal.variance / noise);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// StreamingCpa

StreamingCpa::StreamingCpa(std::size_t points)
    : points_(points),
      shift_(points, 0.0),
      sum_x_(points),
      sum_xx_(points),
      class_sums_(16 * 256 * points, 0.0) {}

void StreamingCpa::add(std::span<const double> samples,
                       const std::array<std::uint8_t, 16>& plaintext) {
  check_span(samples, points_);
  if (n_ == 0) {
    std::copy(samples.begin(), samples.end(), shift_.begin());
  }
  // One pass over the samples fills the global moments; the per-byte class
  // rows then each receive the same shifted values.
  thread_local std::vector<double> shifted;
  shifted.resize(points_);
  for (std::size_t p = 0; p < points_; ++p) {
    const double x = samples[p] - shift_[p];
    shifted[p] = x;
    sum_x_[p].add(x);
    sum_xx_[p].add(x * x);
  }
  for (std::size_t byte = 0; byte < 16; ++byte) {
    const std::uint8_t v = plaintext[byte];
    ++class_counts_[byte][v];
    double* row = class_row(byte, v);
    for (std::size_t p = 0; p < points_; ++p) {
      row[p] += shifted[p];
    }
  }
  ++n_;
}

void StreamingCpa::add_batch(const TraceSet& batch) {
  check_batch(batch);
  for (std::size_t t = 0; t < batch.traces.size(); ++t) {
    add(batch.traces[t], batch.plaintexts[t]);
  }
}

void StreamingCpa::merge(const StreamingCpa& other) {
  check_points_match(points_, other.points_);
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double dn = static_cast<double>(other.n_);
  for (std::size_t p = 0; p < points_; ++p) {
    const double d = other.shift_[p] - shift_[p];
    sum_x_[p].add(other.sum_x_[p]);
    sum_x_[p].add(dn * d);
    sum_xx_[p].add(other.sum_xx_[p]);
    sum_xx_[p].add(2.0 * d * other.sum_x_[p].sum);
    sum_xx_[p].add(dn * d * d);
  }
  for (std::size_t byte = 0; byte < 16; ++byte) {
    for (std::size_t v = 0; v < 256; ++v) {
      const std::uint32_t cnt = other.class_counts_[byte][v];
      class_counts_[byte][v] += cnt;
      if (cnt == 0) {
        continue;
      }
      double* row = class_row(byte, v);
      const double* orow = other.class_row(byte, v);
      const double dc = static_cast<double>(cnt);
      for (std::size_t p = 0; p < points_; ++p) {
        row[p] += orow[p] + dc * (other.shift_[p] - shift_[p]);
      }
    }
  }
  n_ += other.n_;
}

ByteAttackResult StreamingCpa::finalize_byte(std::size_t byte_index) const {
  if (n_ < 4) {
    throw std::invalid_argument("streaming CPA needs >= 4 traces before finalize");
  }
  const auto& sbox = hwsec::crypto::aes_sbox();
  const auto& counts = class_counts_.at(byte_index);

  // Pearson is invariant under the per-point shift, so the shifted sums
  // drop straight in; without the shift sxx below would lose the signal
  // entirely at a 1e9 baseline.
  ByteAttackResult result;
  const double dn = static_cast<double>(n_);
  for (std::uint32_t guess = 0; guess < 256; ++guess) {
    std::array<double, 256> h{};
    double sum_h = 0.0, sum_hh = 0.0;
    for (std::uint32_t v = 0; v < 256; ++v) {
      h[v] = static_cast<double>(
          hamming_weight(sbox[static_cast<std::uint8_t>(v ^ guess)]));
      const double c = static_cast<double>(counts[v]);
      sum_h += c * h[v];
      sum_hh += c * h[v] * h[v];
    }
    const double shh = sum_hh - sum_h * sum_h / dn;
    double best_abs = 0.0;
    std::size_t best_point = 0;
    if (shh > 1e-12) {
      for (std::size_t p = 0; p < points_; ++p) {
        double sum_hx = 0.0;
        for (std::uint32_t v = 0; v < 256; ++v) {
          sum_hx += h[v] * class_row(byte_index, v)[p];
        }
        const double sxy = sum_hx - sum_h * sum_x_[p].sum / dn;
        const double sxx = sum_xx_[p].sum - sum_x_[p].sum * sum_x_[p].sum / dn;
        if (sxx <= 1e-12) {
          continue;
        }
        const double rho = std::abs(sxy / std::sqrt(sxx * shh));
        if (rho > best_abs) {
          best_abs = rho;
          best_point = p;
        }
      }
    }
    result.score_per_guess[guess] = best_abs;
    if (best_abs > result.best_score) {
      result.second_score = result.best_score;
      result.best_score = best_abs;
      result.best_guess = static_cast<std::uint8_t>(guess);
      result.best_point = best_point;
    } else if (best_abs > result.second_score) {
      result.second_score = best_abs;
    }
  }
  return result;
}

KeyAttackResult StreamingCpa::finalize_key() const {
  KeyAttackResult result;
  hwsec::sim::ThreadPool::shared().parallel_for(16, [&](std::size_t i) {
    result.bytes[i] = finalize_byte(i);
    result.recovered[i] = result.bytes[i].best_guess;
  });
  return result;
}

ByteAttackResult StreamingCpa::finalize_dpa_byte(std::size_t byte_index,
                                                 std::uint32_t bit) const {
  if (n_ < 4) {
    throw std::invalid_argument("streaming DPA needs >= 4 traces before finalize");
  }
  const auto& sbox = hwsec::crypto::aes_sbox();
  const auto& counts = class_counts_.at(byte_index);

  ByteAttackResult result;
  std::vector<double> ones_sum(points_);
  std::vector<double> zeros_sum(points_);
  for (std::uint32_t guess = 0; guess < 256; ++guess) {
    std::fill(ones_sum.begin(), ones_sum.end(), 0.0);
    std::fill(zeros_sum.begin(), zeros_sum.end(), 0.0);
    double n_ones = 0.0;
    double n_zeros = 0.0;
    for (std::uint32_t v = 0; v < 256; ++v) {
      const std::uint8_t s = sbox[static_cast<std::uint8_t>(v ^ guess)];
      const double* row = class_row(byte_index, v);
      double* acc = ((s >> bit) & 1) ? ones_sum.data() : zeros_sum.data();
      (((s >> bit) & 1) ? n_ones : n_zeros) += static_cast<double>(counts[v]);
      for (std::size_t p = 0; p < points_; ++p) {
        acc[p] += row[p];
      }
    }
    double score = 0.0;
    if (n_ones > 0.5 && n_zeros > 0.5) {
      // The shift cancels in the difference of class means.
      for (std::size_t p = 0; p < points_; ++p) {
        score = std::max(score, std::abs(ones_sum[p] / n_ones - zeros_sum[p] / n_zeros));
      }
    }
    result.score_per_guess[guess] = score;
    if (score > result.best_score) {
      result.second_score = result.best_score;
      result.best_score = score;
      result.best_guess = static_cast<std::uint8_t>(guess);
    } else if (score > result.second_score) {
      result.second_score = score;
    }
  }
  return result;
}

KeyAttackResult StreamingCpa::finalize_dpa_key(std::uint32_t bit) const {
  KeyAttackResult result;
  hwsec::sim::ThreadPool::shared().parallel_for(16, [&](std::size_t i) {
    result.bytes[i] = finalize_dpa_byte(i, bit);
    result.recovered[i] = result.bytes[i].best_guess;
  });
  return result;
}

// ---------------------------------------------------------------------------
// StreamingSecondOrderCpa

StreamingSecondOrderCpa::StreamingSecondOrderCpa(std::size_t points, std::size_t mask_sample)
    : points_(points),
      mask_sample_(mask_sample),
      shift_(points, 0.0),
      a1_(points),
      a2_(points),
      b11_(points),
      b21_(points),
      b12_(points),
      b22_(points),
      class_yx_(16 * 256 * points, 0.0),
      class_x_(16 * 256 * points, 0.0),
      class_y_(16 * 256, 0.0) {
  if (mask_sample >= points) {
    throw std::invalid_argument("mask sample index out of range");
  }
}

void StreamingSecondOrderCpa::add(std::span<const double> samples,
                                  const std::array<std::uint8_t, 16>& plaintext) {
  check_span(samples, points_);
  if (n_ == 0) {
    std::copy(samples.begin(), samples.end(), shift_.begin());
    shift_y_ = samples[mask_sample_];
  }
  const double y = samples[mask_sample_] - shift_y_;
  c1_.add(y);
  c2_.add(y * y);
  thread_local std::vector<double> shifted;
  shifted.resize(points_);
  for (std::size_t p = 0; p < points_; ++p) {
    const double x = samples[p] - shift_[p];
    shifted[p] = x;
    a1_[p].add(x);
    a2_[p].add(x * x);
    b11_[p].add(y * x);
    b21_[p].add(y * y * x);
    b12_[p].add(y * x * x);
    b22_[p].add(y * y * x * x);
  }
  for (std::size_t byte = 0; byte < 16; ++byte) {
    const std::uint8_t v = plaintext[byte];
    ++class_counts_[byte][v];
    const std::size_t base = class_base(byte, v);
    class_y_[byte * 256 + v] += y;
    for (std::size_t p = 0; p < points_; ++p) {
      class_yx_[base + p] += y * shifted[p];
      class_x_[base + p] += shifted[p];
    }
  }
  ++n_;
}

void StreamingSecondOrderCpa::add_batch(const TraceSet& batch) {
  check_batch(batch);
  for (std::size_t t = 0; t < batch.traces.size(); ++t) {
    add(batch.traces[t], batch.plaintexts[t]);
  }
}

void StreamingSecondOrderCpa::merge(const StreamingSecondOrderCpa& other) {
  check_points_match(points_, other.points_);
  if (mask_sample_ != other.mask_sample_) {
    throw std::invalid_argument("streaming merge: mask sample indices differ");
  }
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Rebase the other accumulator's shifted moments onto this basis: with
  // Y = Y' + dy and X = X' + dp, expand each Σ YᵃXᵇ binomially in the
  // other accumulator's moments (all primed quantities are other.*.sum).
  const double dn = static_cast<double>(other.n_);
  const double dy = other.shift_y_ - shift_y_;
  for (std::size_t p = 0; p < points_; ++p) {
    const double dp = other.shift_[p] - shift_[p];
    const double oa1 = other.a1_[p].sum;
    const double oa2 = other.a2_[p].sum;
    const double ob11 = other.b11_[p].sum;
    const double ob21 = other.b21_[p].sum;
    const double ob12 = other.b12_[p].sum;
    const double oc1 = other.c1_.sum;
    const double oc2 = other.c2_.sum;

    a1_[p].add(other.a1_[p]);
    a1_[p].add(dn * dp);

    a2_[p].add(other.a2_[p]);
    a2_[p].add(2.0 * dp * oa1);
    a2_[p].add(dn * dp * dp);

    b11_[p].add(other.b11_[p]);
    b11_[p].add(dy * oa1);
    b11_[p].add(dp * oc1);
    b11_[p].add(dn * dy * dp);

    b21_[p].add(other.b21_[p]);
    b21_[p].add(2.0 * dy * ob11);
    b21_[p].add(dy * dy * oa1);
    b21_[p].add(dp * oc2);
    b21_[p].add(2.0 * dy * dp * oc1);
    b21_[p].add(dn * dy * dy * dp);

    b12_[p].add(other.b12_[p]);
    b12_[p].add(2.0 * dp * ob11);
    b12_[p].add(dp * dp * oc1);
    b12_[p].add(dy * oa2);
    b12_[p].add(2.0 * dy * dp * oa1);
    b12_[p].add(dn * dy * dp * dp);

    b22_[p].add(other.b22_[p]);
    b22_[p].add(2.0 * dp * ob21);
    b22_[p].add(dp * dp * oc2);
    b22_[p].add(2.0 * dy * ob12);
    b22_[p].add(4.0 * dy * dp * ob11);
    b22_[p].add(2.0 * dy * dp * dp * oc1);
    b22_[p].add(dy * dy * oa2);
    b22_[p].add(2.0 * dy * dy * dp * oa1);
    b22_[p].add(dn * dy * dy * dp * dp);
  }
  for (std::size_t byte = 0; byte < 16; ++byte) {
    for (std::size_t v = 0; v < 256; ++v) {
      const std::uint32_t cnt = other.class_counts_[byte][v];
      class_counts_[byte][v] += cnt;
      if (cnt == 0) {
        continue;
      }
      const double dc = static_cast<double>(cnt);
      const std::size_t base = class_base(byte, v);
      const std::size_t obase = other.class_base(byte, v);
      const double og = other.class_y_[byte * 256 + v];
      for (std::size_t p = 0; p < points_; ++p) {
        const double dp = other.shift_[p] - shift_[p];
        const double od = other.class_x_[obase + p];
        class_yx_[base + p] += other.class_yx_[obase + p] + dy * od + dp * og + dc * dy * dp;
        class_x_[base + p] += od + dc * dp;
      }
      class_y_[byte * 256 + v] += og + dc * dy;
    }
  }
  c2_.add(other.c2_);
  c2_.add(2.0 * dy * other.c1_.sum);
  c2_.add(dn * dy * dy);
  c1_.add(other.c1_);
  c1_.add(dn * dy);
  n_ += other.n_;
}

ByteAttackResult StreamingSecondOrderCpa::finalize_byte(std::size_t byte_index) const {
  if (n_ < 8) {
    throw std::invalid_argument("streaming second-order CPA needs >= 8 traces before finalize");
  }
  const auto& sbox = hwsec::crypto::aes_sbox();
  const auto& counts = class_counts_.at(byte_index);
  const double dn = static_cast<double>(n_);
  const double mu_y = c1_.sum / dn;

  // Reconstruct the CPA statistics of the centered-product traces
  // c = (y − μy)(x − μx): with shifted moments A/B/C (see the member
  // comments),
  //   Σc        = B11 − n·μy·μx
  //   Σc²       = B22 − 2μx·B21 + μx²·C2 − 2μy·B12 + 4μyμx·B11
  //               − 2μyμx²·C1 + μy²·A2 − 2μy²μx·A1 + n·μy²μx²
  //   per-class Σc = K − μx·G − μy·D + n_v·μy·μx
  // (K = class ΣYX, D = class ΣX, G = class ΣY). The per-point shift and
  // the mask shift both cancel in the centered values, so these equal the
  // sums over explicitly built combined traces up to rounding.
  std::vector<double> sum_c(points_);
  std::vector<double> sum_cc(points_);
  for (std::size_t p = 0; p < points_; ++p) {
    const double mu_x = a1_[p].sum / dn;
    sum_c[p] = b11_[p].sum - dn * mu_y * mu_x;
    sum_cc[p] = b22_[p].sum - 2.0 * mu_x * b21_[p].sum + mu_x * mu_x * c2_.sum -
                2.0 * mu_y * b12_[p].sum + 4.0 * mu_y * mu_x * b11_[p].sum -
                2.0 * mu_y * mu_x * mu_x * c1_.sum + mu_y * mu_y * a2_[p].sum -
                2.0 * mu_y * mu_y * mu_x * a1_[p].sum + dn * mu_y * mu_y * mu_x * mu_x;
  }

  ByteAttackResult result;
  std::vector<double> class_c(points_);
  for (std::uint32_t guess = 0; guess < 256; ++guess) {
    std::array<double, 256> h{};
    double sum_h = 0.0, sum_hh = 0.0;
    for (std::uint32_t v = 0; v < 256; ++v) {
      h[v] = static_cast<double>(
          hamming_weight(sbox[static_cast<std::uint8_t>(v ^ guess)]));
      const double c = static_cast<double>(counts[v]);
      sum_h += c * h[v];
      sum_hh += c * h[v] * h[v];
    }
    const double shh = sum_hh - sum_h * sum_h / dn;
    double best_abs = 0.0;
    std::size_t best_point = 0;
    if (shh > 1e-12) {
      for (std::size_t p = 0; p < points_; ++p) {
        const double mu_x = a1_[p].sum / dn;
        double sum_hc = 0.0;
        for (std::uint32_t v = 0; v < 256; ++v) {
          const std::uint32_t cnt = counts[v];
          if (cnt == 0 || h[v] == 0.0) {
            continue;
          }
          const std::size_t base = class_base(byte_index, v);
          const double cc = class_yx_[base + p] - mu_x * class_y_[byte_index * 256 + v] -
                            mu_y * class_x_[base + p] +
                            static_cast<double>(cnt) * mu_y * mu_x;
          sum_hc += h[v] * cc;
        }
        const double sxy = sum_hc - sum_h * sum_c[p] / dn;
        const double sxx = sum_cc[p] - sum_c[p] * sum_c[p] / dn;
        if (sxx <= 1e-12) {
          continue;
        }
        const double rho = std::abs(sxy / std::sqrt(sxx * shh));
        if (rho > best_abs) {
          best_abs = rho;
          best_point = p;
        }
      }
    }
    result.score_per_guess[guess] = best_abs;
    if (best_abs > result.best_score) {
      result.second_score = result.best_score;
      result.best_score = best_abs;
      result.best_guess = static_cast<std::uint8_t>(guess);
      result.best_point = best_point;
    } else if (best_abs > result.second_score) {
      result.second_score = best_abs;
    }
  }
  return result;
}

KeyAttackResult StreamingSecondOrderCpa::finalize_key() const {
  KeyAttackResult result;
  hwsec::sim::ThreadPool::shared().parallel_for(16, [&](std::size_t i) {
    result.bytes[i] = finalize_byte(i);
    result.recovered[i] = result.bytes[i].best_guess;
  });
  return result;
}

}  // namespace hwsec::sca
