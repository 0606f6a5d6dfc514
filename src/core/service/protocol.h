// Payload codecs for the hwsecd campaign-service socket protocol.
//
// The transport is the shard frame codec (core/shard/wire.h): same 12-byte
// magic+version header, same EINTR-safe framing, same FrameBuffer
// reassembly — the service simply occupies frame-type ids 16+ of the
// shared space. What this file adds is the *payload* schemas:
//
//   client -> daemon   kSubmit(spec JSON) | kAttach(job id)
//                      kStatusRequest | kStopDaemon
//   daemon -> client   kSubmitted(ok, job id, message)
//                      kJobUpdate(job id, state, done, total)
//                      kJobResult(job id, state, digest, records, error)
//                      kStatusReply(status JSON) | kServiceError(message)
//
// A submit/attach connection receives kSubmitted/kJobUpdate... then one
// terminal kJobResult. Its result blob is u64 slot count, then per slot a
// u64 index + put_record (core/resilience/checkpoint.h) — the one record
// layout checkpoint files and shard kTrial frames also carry. "The daemon
// returned exactly what a direct run produces" is a byte comparison, and
// the fnv1a-64 digest over the blob makes that comparison cheap enough to
// assert in CI from two different machines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/service/catalog.h"
#include "core/shard/wire.h"

namespace hwsec::core::service {

/// Cap on a *request* frame payload read from an untrusted client socket.
/// Every client->daemon payload is tiny (a spec JSON document or a job id);
/// anything bigger is hostile or desynchronized, and the daemon must not
/// let a 12-byte header talk it into a multi-GiB allocation. Daemon->client
/// frames (result records) are read with the codec-level kMaxFramePayload
/// instead — the client trusts its own daemon.
inline constexpr std::uint32_t kMaxRequestPayload = 1u << 20;  // 1 MiB.

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,     ///< every slot has an outcome (some may be contained errors).
  kFailed = 3,   ///< the job as a whole failed (bad kind, fail-fast throw, drain).
};

const char* job_state_name(JobState state);

struct SubmittedPayload {
  bool accepted = false;
  std::string job_id;   ///< valid when accepted.
  std::string message;  ///< rejection reason when !accepted.
};

struct JobUpdatePayload {
  std::string job_id;
  JobState state = JobState::kQueued;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
};

struct JobResultPayload {
  std::string job_id;
  JobState state = JobState::kDone;
  std::uint64_t digest = 0;  ///< fnv1a64(records).
  std::string records;       ///< encode_outcomes() blob (empty when kFailed early).
  std::string error;         ///< failure reason when kFailed.
};

std::string encode_submitted(const SubmittedPayload& p);
bool decode_submitted(const std::string& payload, SubmittedPayload& out);

std::string encode_job_update(const JobUpdatePayload& p);
bool decode_job_update(const std::string& payload, JobUpdatePayload& out);

std::string encode_job_result(const JobResultPayload& p);
bool decode_job_result(const std::string& payload, JobResultPayload& out);

// ---- outcome record stream ---------------------------------------------

/// One decoded slot of a result blob: the trial record (payload holds raw
/// ServiceTrialResult bytes when ok) plus its index and skipped marker.
struct OutcomeRecord : CheckpointRecord {
  std::uint64_t index = 0;
  bool skipped = false;
};

/// Deterministic, order-preserving encoding of a full outcome vector.
/// from_checkpoint is deliberately NOT encoded: whether a slot was
/// restored is an execution-history detail, not part of the result, and
/// including it would break daemon-vs-direct byte identity after a resume.
std::string encode_outcomes(const ServiceOutcomes& outcomes);
bool decode_outcomes(const std::string& blob, std::vector<OutcomeRecord>& out);

/// FNV-1a 64 over arbitrary bytes (the digest clients compare).
using hwsec::sim::fnv1a64;

}  // namespace hwsec::core::service
