#include "sca/cpa.h"

#include <stdexcept>

#include "sca/streaming.h"

namespace hwsec::sca {

namespace {

void check_set(const TraceSet& set) {
  if (set.traces.size() != set.plaintexts.size() || set.traces.size() < 4) {
    throw std::invalid_argument("trace set needs matched plaintexts and >= 4 traces");
  }
}

/// The whole set in one accumulator. StreamingCpa checks every trace's
/// length, so a ragged set throws std::invalid_argument instead of being
/// read past its end.
StreamingCpa accumulate(const TraceSet& set) {
  check_set(set);
  StreamingCpa acc(set.samples_per_trace());
  acc.add_batch(set);
  return acc;
}

}  // namespace

ByteAttackResult cpa_attack_byte(const TraceSet& set, std::size_t byte_index) {
  return accumulate(set).finalize_byte(byte_index);
}

ByteAttackResult dpa_attack_byte(const TraceSet& set, std::size_t byte_index, std::uint32_t bit) {
  return accumulate(set).finalize_dpa_byte(byte_index, bit);
}

KeyAttackResult cpa_attack_key(const TraceSet& set) { return accumulate(set).finalize_key(); }

KeyAttackResult dpa_attack_key(const TraceSet& set, std::uint32_t bit) {
  return accumulate(set).finalize_dpa_key(bit);
}

}  // namespace hwsec::sca
