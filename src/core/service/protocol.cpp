#include "core/service/protocol.h"

namespace hwsec::core::service {

using shard::put_bytes;
using shard::put_u32;
using shard::put_u64;
using shard::Reader;

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
    const auto& o = outcomes[i];
    put_u64(out, i);
    std::uint8_t flags = 0;
    if (o.ok()) flags |= 1;
    if (o.skipped) flags |= 2;
    out.push_back(static_cast<char>(flags));
    put_u32(out, o.attempts);
    if (o.ok()) {
      const ServiceTrialResult& r = *o.result;
      std::string payload(reinterpret_cast<const char*>(&r), sizeof(r));
      put_bytes(out, payload);
    } else {
      out.push_back(o.error.has_value() ? static_cast<char>(o.error->kind()) : 0);
      put_bytes(out, o.error.has_value() ? o.error->detail() : std::string());
      put_bytes(out, o.error.has_value() ? o.error->machine() : std::string());
    }
  }
  return out;
}

bool decode_outcomes(const std::string& blob, std::vector<OutcomeRecord>& out) {
  out.clear();
  Reader r(blob);
  std::uint64_t count = 0;
  if (!r.get_u64(count)) {
    return false;
  }
  // Each record costs >= 13 bytes on the wire (index + flags + attempts),
  // so a count the blob cannot possibly hold is corruption — reject it
  // before reserve() turns it into a hundreds-of-GB allocation.
  if (count > (blob.size() - 8) / 13) {
    return false;
  }
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    OutcomeRecord rec;
    std::uint8_t flags = 0;
    if (!r.get_u64(rec.index) || !r.get_u8(flags) || !r.get_u32(rec.attempts)) {
      return false;
    }
    rec.ok = (flags & 1) != 0;
    rec.skipped = (flags & 2) != 0;
    if (rec.ok) {
      if (!r.get_bytes(rec.payload) || rec.payload.size() != sizeof(ServiceTrialResult)) {
        return false;
      }
    } else {
      if (!r.get_u8(rec.kind) || !r.get_bytes(rec.detail) || !r.get_bytes(rec.machine)) {
        return false;
      }
    }
    out.push_back(std::move(rec));
  }
  return r.exhausted();
}

}  // namespace hwsec::core::service
