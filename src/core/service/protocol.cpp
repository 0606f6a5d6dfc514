#include "core/service/protocol.h"

namespace hwsec::core::service {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

std::string encode_submitted(const SubmittedPayload& p) {
  std::string out;
  out.push_back(p.accepted ? 1 : 0);
  put_bytes(out, p.job_id);
  put_bytes(out, p.message);
  return out;
}

bool decode_submitted(const std::string& payload, SubmittedPayload& out) {
  Reader r(payload);
  std::uint8_t accepted = 0;
  if (!r.get_u8(accepted) || !r.get_bytes(out.job_id) || !r.get_bytes(out.message) ||
      !r.exhausted()) {
    return false;
  }
  out.accepted = accepted != 0;
  return true;
}

std::string encode_job_update(const JobUpdatePayload& p) {
  std::string out;
  put_bytes(out, p.job_id);
  out.push_back(static_cast<char>(p.state));
  put_u64(out, p.done);
  put_u64(out, p.total);
  return out;
}

bool decode_job_update(const std::string& payload, JobUpdatePayload& out) {
  Reader r(payload);
  std::uint8_t state = 0;
  if (!r.get_bytes(out.job_id) || !r.get_u8(state) || !r.get_u64(out.done) ||
      !r.get_u64(out.total) || !r.exhausted() || state > 3) {
    return false;
  }
  out.state = static_cast<JobState>(state);
  return true;
}

std::string encode_job_result(const JobResultPayload& p) {
  std::string out;
  put_bytes(out, p.job_id);
  out.push_back(static_cast<char>(p.state));
  put_u64(out, p.digest);
  put_bytes(out, p.records);
  put_bytes(out, p.error);
  return out;
}

bool decode_job_result(const std::string& payload, JobResultPayload& out) {
  Reader r(payload);
  std::uint8_t state = 0;
  if (!r.get_bytes(out.job_id) || !r.get_u8(state) || !r.get_u64(out.digest) ||
      !r.get_bytes(out.records) || !r.get_bytes(out.error) || !r.exhausted() || state > 3) {
    return false;
  }
  out.state = static_cast<JobState>(state);
  return true;
}

std::string encode_outcomes(const ServiceOutcomes& outcomes) {
  std::string out;
  put_u64(out, outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    put_u64(out, i);
    put_record(out, detail::to_record(outcomes[i]), outcomes[i].skipped);
  }
  return out;
}

bool decode_outcomes(const std::string& blob, std::vector<OutcomeRecord>& out) {
  out.clear();
  Reader r(blob);
  std::uint64_t count = 0;
  // Each slot costs >= 13 bytes (index + flags + attempts), so a count the
  // blob cannot possibly hold is corruption — reject it before resize()
  // turns it into a hundreds-of-GB allocation.
  if (!r.get_u64(count) || count > (blob.size() - 8) / 13) {
    return false;
  }
  out.resize(static_cast<std::size_t>(count));
  for (OutcomeRecord& rec : out) {
    if (!r.get_u64(rec.index) || !get_record(r, rec, &rec.skipped) ||
        (rec.ok && rec.payload.size() != sizeof(ServiceTrialResult))) {
      return false;
    }
  }
  return r.exhausted();
}

}  // namespace hwsec::core::service
