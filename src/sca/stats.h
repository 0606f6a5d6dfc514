// Statistics for side-channel analysis: Pearson correlation (CPA),
// difference of means (classic DPA), Welch's t-test (TVLA leakage
// assessment) and signal-to-noise ratio.
//
// Two kinds of function live here. The series statistics (mean_variance,
// pearson, correlate_hypothesis) are direct two-pass definitions over
// data in memory. The max_* population statistics are adapters that feed
// the trace matrix through the streaming accumulators of
// sca/streaming.h, which hold the one implementation of Welch-t, DoM and
// SNR; the direct definitions serve the tests as independent references
// for them.
//
// All accumulation is DC-shifted and Kahan-compensated: power traces ride
// on a large constant baseline (supply power + noise floor), and naive
// running sums lose the signal bits against it — at a 1e9 baseline the
// naive unbiased variance of a 1e5-sample series is off by ~25%. See the
// Stats.*Offset* regression tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sca/trace.h"

namespace hwsec::sca {

namespace detail {

/// Kahan-compensated running sum. Compensation keeps the error at the
/// rounding of the *inputs*, independent of the number of additions; the
/// streaming accumulators persist it across batches.
struct KahanAcc {
  double sum = 0.0;
  double comp = 0.0;

  void add(double value) {
    const double y = value - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  /// Folds another compensated sum in without losing its residual.
  void add(const KahanAcc& other) {
    add(other.sum);
    add(-other.comp);
  }
};

}  // namespace detail

struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1) estimator.
  std::size_t n = 0;
};

MeanVar mean_variance(std::span<const double> xs);

/// Pearson correlation coefficient of two equal-length series; 0 when
/// either series is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Per-sample-point correlation between a hypothesis vector (one value per
/// trace) and the trace matrix; returns |rho| maximized over sample points
/// and the argmax point. Requires >= 2 traces, one hypothesis value per
/// trace, and a rectangular matrix — a ragged one throws
/// std::invalid_argument naming the offending trace (never a deep
/// out_of_range from inside the point loop). Hypothesis statistics are
/// computed once, not per point: this is the inner loop of every CPA
/// campaign.
struct PointCorrelation {
  double max_abs_rho = 0.0;
  std::size_t best_point = 0;
};
PointCorrelation correlate_hypothesis(const std::vector<Trace>& traces,
                                      std::span<const double> hypothesis);

/// Welch's t statistic between two trace populations at each sample point;
/// returns the maximum |t| over points. |t| > 4.5 is the conventional
/// TVLA threshold for "leaks". Every trace of both populations must have
/// the same number of points; otherwise std::invalid_argument (as for
/// max_snr and max_dom).
double max_welch_t(const std::vector<Trace>& population_a,
                   const std::vector<Trace>& population_b);

inline constexpr double kTvlaThreshold = 4.5;

/// SNR at each point for traces partitioned into classes:
/// Var_classes(mean) / mean_classes(Var). Returns the max over points.
double max_snr(const std::vector<std::vector<Trace>>& classes);

/// Difference-of-means (single-bit DPA): |mean(a) - mean(b)| maximized
/// over sample points.
double max_dom(const std::vector<Trace>& population_a, const std::vector<Trace>& population_b);

}  // namespace hwsec::sca
