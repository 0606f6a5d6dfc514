// Second-order CPA against first-order Boolean masking.
//
// A first-order masked implementation leaks S[x] ⊕ m and (elsewhere in
// the trace) m itself; each sample alone is independent of x, so
// first-order CPA fails — §5's masking countermeasure, validated in
// sca/cpa tests. But the *joint* distribution still depends on x: under
// the Hamming-weight model,
//
//     E[(HW(S[x]⊕m) − 4)(HW(m) − 4)]  =  (4 − HW(S[x])) / 4,
//
// so the centered product of the two samples correlates (negatively)
// with HW(S[x]). Combining every S-box sample with the mask-load sample
// and running ordinary CPA on the combined trace recovers the key — the
// textbook reason masking *order* matters and higher-order masking
// exists (Mangard/Oswald/Popp, the paper's [30]).
#pragma once

#include "sca/cpa.h"
#include "sca/trace.h"

namespace hwsec::sca {

/// The combined traces: sample p of trace t is the centered product
/// (x_t[mask_sample] − mean[mask_sample]) · (x_t[p] − mean[p]), plaintexts
/// carried over. Needs matched plaintexts, >= 8 traces, a rectangular set
/// and `mask_sample` in range; otherwise std::invalid_argument.
TraceSet centered_product_traces(const TraceSet& set, std::size_t mask_sample);

/// Second-order CPA on key byte `byte_index`: first-order CPA on the
/// combined traces. `mask_sample` is the trace index of the mask-load leak
/// (for crypto::AesMasked: sample 1 = m_out). Costs about as much as
/// second_order_cpa_key (see cpa_attack_byte).
ByteAttackResult second_order_cpa_byte(const TraceSet& set, std::size_t byte_index,
                                       std::size_t mask_sample);

/// All 16 key bytes; the combined traces are built once.
KeyAttackResult second_order_cpa_key(const TraceSet& set, std::size_t mask_sample = 1);

}  // namespace hwsec::sca
