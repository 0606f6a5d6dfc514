#include "sca/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sca/streaming.h"

namespace hwsec::sca {

namespace {

/// Mean of xs via a shifted, compensated sum: accumulating (x - xs[0])
/// removes the DC component before it can swamp the mantissa, and Kahan
/// compensation absorbs what rounding remains.
double shifted_mean(std::span<const double> xs) {
  const double shift = xs.front();
  detail::KahanAcc sum;
  for (const double x : xs) {
    sum.add(x - shift);
  }
  return shift + sum.sum / static_cast<double>(xs.size());
}

}  // namespace

MeanVar mean_variance(std::span<const double> xs) {
  MeanVar mv;
  mv.n = xs.size();
  if (mv.n == 0) {
    return mv;
  }
  mv.mean = shifted_mean(xs);
  if (mv.n > 1) {
    detail::KahanAcc ss;
    for (const double x : xs) {
      const double d = x - mv.mean;
      ss.add(d * d);
    }
    mv.variance = ss.sum / static_cast<double>(mv.n - 1);
  }
  return mv;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument("pearson needs two equal series of length >= 2");
  }
  const std::size_t n = xs.size();
  const double mx = shifted_mean(xs);
  const double my = shifted_mean(ys);
  detail::KahanAcc sxy, sxx, syy;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy.add(dx * dy);
    sxx.add(dx * dx);
    syy.add(dy * dy);
  }
  if (sxx.sum <= 0.0 || syy.sum <= 0.0) {
    return 0.0;
  }
  return sxy.sum / std::sqrt(sxx.sum * syy.sum);
}

PointCorrelation correlate_hypothesis(const std::vector<Trace>& traces,
                                      std::span<const double> hypothesis) {
  PointCorrelation result;
  if (traces.empty()) {
    // Empty set used to fall through to the size-mismatch message below;
    // name the actual problem.
    throw std::invalid_argument("correlate_hypothesis: empty trace set");
  }
  if (traces.size() != hypothesis.size()) {
    throw std::invalid_argument("one hypothesis value per trace required");
  }
  if (traces.size() < 2) {
    throw std::invalid_argument("correlation needs >= 2 traces");
  }
  const std::size_t n = traces.size();
  const std::size_t points = traces.front().size();
  // Ragged inputs used to surface as a std::out_of_range from a deep
  // Trace::at() inside the point loop; validate the whole matrix up front
  // with an error that names the offender.
  for (std::size_t t = 0; t < n; ++t) {
    if (traces[t].size() != points) {
      throw std::invalid_argument("ragged trace matrix: trace " + std::to_string(t) + " has " +
                                  std::to_string(traces[t].size()) + " points, expected " +
                                  std::to_string(points));
    }
  }
  if (points == 0) {
    return result;
  }

  // CPA runs this for every key guess of every campaign trial, so the
  // hypothesis statistics — mean, centered values, sum of squares — are
  // hoisted out of the point loop instead of being re-derived per point
  // (the old code called pearson() per point: O(points * n) redundant
  // hypothesis work per invocation).
  std::vector<double> h_dev(n);
  const double h_mean = shifted_mean(hypothesis);
  detail::KahanAcc shh;
  for (std::size_t t = 0; t < n; ++t) {
    h_dev[t] = hypothesis[t] - h_mean;
    shh.add(h_dev[t] * h_dev[t]);
  }
  if (shh.sum <= 0.0) {
    return result;  // constant hypothesis correlates with nothing.
  }

  std::vector<double> column(n);
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t t = 0; t < n; ++t) {
      column[t] = traces[t][p];
    }
    const double x_mean = shifted_mean(column);
    detail::KahanAcc sxy, sxx;
    for (std::size_t t = 0; t < n; ++t) {
      const double dx = column[t] - x_mean;
      sxy.add(dx * h_dev[t]);
      sxx.add(dx * dx);
    }
    if (sxx.sum <= 0.0) {
      continue;  // constant sample point.
    }
    const double rho = std::abs(sxy.sum) / std::sqrt(sxx.sum * shh.sum);
    if (rho > result.max_abs_rho) {
      result.max_abs_rho = rho;
      result.best_point = p;
    }
  }
  return result;
}

namespace {

/// Both populations streamed into one Welch accumulator. The accumulator
/// checks every trace's length, so a ragged set throws
/// std::invalid_argument instead of being read past its end.
StreamingWelchT welch_of(const std::vector<Trace>& population_a,
                         const std::vector<Trace>& population_b) {
  StreamingWelchT welch(population_a.front().size());
  for (const Trace& trace : population_a) {
    welch.add(0, trace);
  }
  for (const Trace& trace : population_b) {
    welch.add(1, trace);
  }
  return welch;
}

}  // namespace

double max_welch_t(const std::vector<Trace>& population_a,
                   const std::vector<Trace>& population_b) {
  if (population_a.size() < 2 || population_b.size() < 2) {
    throw std::invalid_argument("Welch t-test needs >= 2 traces per population");
  }
  return welch_of(population_a, population_b).max_t();
}

double max_snr(const std::vector<std::vector<Trace>>& classes) {
  const auto first = std::find_if(classes.begin(), classes.end(),
                                  [](const std::vector<Trace>& cls) { return !cls.empty(); });
  if (first == classes.end()) {
    return 0.0;
  }
  StreamingSnr snr(classes.size(), first->front().size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (const Trace& trace : classes[c]) {
      snr.add(c, trace);
    }
  }
  return snr.max_snr();
}

double max_dom(const std::vector<Trace>& population_a, const std::vector<Trace>& population_b) {
  if (population_a.empty() || population_b.empty()) {
    return 0.0;
  }
  return welch_of(population_a, population_b).max_dom();
}

}  // namespace hwsec::sca
