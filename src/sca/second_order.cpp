#include "sca/second_order.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "sca/stats.h"

namespace hwsec::sca {

TraceSet centered_product_traces(const TraceSet& set, std::size_t mask_sample) {
  if (set.traces.size() != set.plaintexts.size() || set.traces.size() < 8) {
    throw std::invalid_argument("second-order CPA needs matched plaintexts and >= 8 traces");
  }
  const std::size_t n = set.traces.size();
  const std::size_t points = set.traces.front().size();
  if (mask_sample >= points) {
    throw std::invalid_argument("mask sample index out of range");
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (set.traces[t].size() != points) {
      throw std::invalid_argument("ragged trace set: trace " + std::to_string(t) + " has " +
                                  std::to_string(set.traces[t].size()) + " points, expected " +
                                  std::to_string(points));
    }
  }

  // Center every point, then build the combined trace: product of the
  // centered mask sample with each centered point. Means via shifted,
  // compensated sums (shift = first trace, per point) so a large DC
  // baseline doesn't bias the centering that the product amplifies.
  const Trace& reference = set.traces.front();
  std::vector<detail::KahanAcc> sums(points);
  for (const Trace& t : set.traces) {
    for (std::size_t p = 0; p < points; ++p) {
      sums[p].add(t[p] - reference[p]);
    }
  }
  // Keep the means *relative to the reference* — re-adding a 1e9 baseline
  // would round the mean at the baseline's ulp (~2e-7) and that constant
  // error, multiplied into the product, perturbs the correlations at
  // ~1e-8. Centering as (t − reference) − mean_rel keeps every operand
  // O(signal): the nearby-subtraction is exact, the mean accurate to
  // ~1e-16 relative.
  std::vector<double> means(points);
  for (std::size_t p = 0; p < points; ++p) {
    means[p] = sums[p].sum / static_cast<double>(n);
  }

  TraceSet combined;
  combined.plaintexts = set.plaintexts;
  combined.traces.reserve(n);
  for (const Trace& t : set.traces) {
    Trace c(points);
    const double mask_centered =
        (t[mask_sample] - reference[mask_sample]) - means[mask_sample];
    for (std::size_t p = 0; p < points; ++p) {
      c[p] = mask_centered * ((t[p] - reference[p]) - means[p]);
    }
    combined.traces.push_back(std::move(c));
  }
  return combined;
}

ByteAttackResult second_order_cpa_byte(const TraceSet& set, std::size_t byte_index,
                                       std::size_t mask_sample) {
  // The expected combined leakage is an affine function of HW(S[pt ⊕ k])
  // (negative slope); |rho| is slope-sign-agnostic, so ordinary
  // first-round CPA applies unchanged.
  return cpa_attack_byte(centered_product_traces(set, mask_sample), byte_index);
}

KeyAttackResult second_order_cpa_key(const TraceSet& set, std::size_t mask_sample) {
  // The combined traces do not depend on the key byte: build them once.
  return cpa_attack_key(centered_product_traces(set, mask_sample));
}

}  // namespace hwsec::sca
