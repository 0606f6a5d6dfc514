// Versioned wire format for the shard supervisor <-> worker pipes.
//
// Every message is one frame: a 12-byte header (magic u32, version u16,
// type u16, payload length u32) followed by a little-endian payload. The magic rejects a
// desynchronized or foreign stream outright; the version field makes the
// protocol evolvable — a worker from another build is detected at the
// first frame (and named in the multi-host handshake) instead of silently
// misparsing trial bytes (the failure matrix in DESIGN.md S21 treats that
// as a worker death, which the supervisor already survives). Version 2
// changed the kTrial payload to the shared record codec, so v1 workers are
// turned away at the header.
//
// Frames (supervisor -> worker):
//   kAssign    shard_id, [begin, end) trial range, assignment attempt, and
//              a done-bitmap of indices already restored from checkpoint
//              (the worker skips those, so a resumed campaign re-executes
//              only missing slots even though shards stay contiguous);
//   kShutdown  drain and _exit(0).
// Frames (worker -> supervisor):
//   kTrial     one completed trial: u64 index + put_record, the record
//              layout checkpoints and hwsecd result blobs also use (never
//              skipped) — the supervisor merges by index, so a duplicate
//              delivery (straggler migration races) is idempotent by
//              construction;
//   kShardDone shard_id finished;
//   kHeartbeat liveness beacon from the worker's heartbeat thread; its age
//              is the supervisor's hang detector (a SIGSTOPped worker stops
//              beating and gets killed + migrated).
//
// All reads/writes are EINTR-safe full-buffer loops; FrameBuffer
// incrementally reassembles frames from a non-blocking fd so the
// supervisor can multiplex every worker with one poll() loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/resilience/checkpoint.h"
#include "sim/hash.h"

namespace hwsec::core::shard {

inline constexpr std::uint32_t kWireMagic = 0x43535748u;  // "HWSC", little-endian.
inline constexpr std::uint16_t kWireVersion = 2;

/// Hard ceiling on a frame payload accepted by this codec. Big enough for
/// the largest legitimate frame (a kJobResult records blob at the default
/// 10M-trial admission cap is ~330 MiB), small enough that a desynchronized
/// or hostile header cannot demand the full 4 GiB a u32 length can encode.
/// Transports that face untrusted peers (the hwsecd client socket) pass a
/// much tighter per-request cap to read_frame.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;  // 1 GiB.

/// Cap on any supervisor<->worker shard frame. The largest legitimate
/// shard frames are a kTrial record (result bytes + error detail, well
/// under a KiB) and a kAssign done-bitmap (trials/8 bytes: 16 MiB covers a
/// 134M-trial shard, far past the 10M-trial admission cap). With TCP
/// workers the shard protocol now faces the network, so the supervisor
/// must treat worker bytes like the daemon treats client bytes: a lying
/// length is rejected at the header, before any allocation.
inline constexpr std::uint32_t kMaxShardFramePayload = 1u << 24;  // 16 MiB.

/// One shared frame-type space for every transport that speaks this codec.
/// 1..15 are the supervisor<->worker pipe protocol; 16+ are the hwsecd
/// campaign-service socket protocol (core/service/protocol.h) — same
/// framing, same magic/version gate, disjoint message ids, so a service
/// client that accidentally dials a worker pipe (or vice versa) fails the
/// type dispatch instead of misparsing payload bytes.
enum class FrameType : std::uint16_t {
  kAssign = 1,
  kShutdown = 2,
  kTrial = 3,
  kShardDone = 4,
  kHeartbeat = 5,
  // ---- multi-host handshake (core/shard/net.h) ----
  kHello = 6,    ///< worker -> supervisor: version, capabilities, expected digest.
  kWelcome = 7,  ///< supervisor -> worker: campaign spec + execution knobs.
  kReject = 8,   ///< supervisor -> worker: named refusal (version/digest skew).
  // ---- campaign service (hwsecd) ----
  kSubmit = 16,         ///< client -> daemon: spec JSON.
  kSubmitted = 17,      ///< daemon -> client: accept/reject + job id.
  kAttach = 18,         ///< client -> daemon: re-subscribe to a job by id.
  kJobUpdate = 19,      ///< daemon -> client: incremental progress.
  kJobResult = 20,      ///< daemon -> client: terminal state + result records.
  kStatusRequest = 21,  ///< client -> daemon: scrape request.
  kStatusReply = 22,    ///< daemon -> client: status JSON (jobs + obs metrics).
  kStopDaemon = 23,     ///< client -> daemon: begin graceful drain.
  kServiceError = 24,   ///< daemon -> client: request-level failure message.
};

// The little-endian byte codec and the trial-record codec live next to
// CheckpointRecord (core/resilience/checkpoint.h); every hwsec wire and
// file uses them. Re-exported so shard code and its tests can name them
// as shard::.
using core::put_bytes;
using core::put_u16;
using core::put_u32;
using core::put_u64;
using core::Reader;

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// Serializes one frame (header + payload) to its exact wire bytes. The
/// single place the header layout is produced — write_frame and every
/// Transport send path go through it, so a fault-injecting transport can
/// chop the byte string any way it likes and still be speaking the real
/// format.
std::string encode_frame(const Frame& frame);

/// EINTR-safe full-buffer write that also rides out EAGAIN by polling for
/// writability, so it works on blocking pipes and non-blocking sockets
/// alike. Returns false on EPIPE or any hard error (peer gone).
bool write_all_fd(int fd, const char* data, std::size_t n);

/// Writes one frame; retries partial writes and EINTR. Returns false on any
/// unrecoverable error (EPIPE after the peer died — callers treat that as a
/// worker-death event, never a crash; pair with SigpipeIgnore below).
bool write_frame(int fd, const Frame& frame);

/// Blocking full-frame read (worker side: the command pipe is its inbox).
/// Returns false on EOF, short read, bad magic, version mismatch, or a
/// payload length above `max_payload` — the length is validated BEFORE any
/// payload allocation, so a lying header costs nothing.
bool read_frame(int fd, Frame& out, std::uint32_t max_payload = kMaxFramePayload);

/// Incremental frame reassembly for the supervisor's non-blocking fds.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void append(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete frame. Returns false when more bytes are
  /// needed. A corrupt header (bad magic/version, or a payload length over
  /// the cap) poisons the stream: corrupt() turns true and no further
  /// frames are produced.
  bool next(Frame& out);

  bool corrupt() const { return corrupt_; }

 private:
  std::string buffer_;
  std::uint32_t max_payload_;
  bool corrupt_ = false;
};

// ---- payload codecs ----------------------------------------------------

struct AssignPayload {
  std::uint64_t shard_id = 0;
  std::uint64_t begin = 0;    ///< first global trial index in the shard.
  std::uint64_t end = 0;      ///< one past the last index.
  std::uint32_t attempt = 0;  ///< assignment incarnation (0 = first try).
  /// Bit i set => trial (begin + i) is already done; the worker skips it.
  std::vector<std::uint8_t> done_mask;

  bool done(std::uint64_t index) const {
    const std::uint64_t off = index - begin;
    return (off >> 3) < done_mask.size() &&
           (done_mask[static_cast<std::size_t>(off >> 3)] >> (off & 7) & 1) != 0;
  }
};

struct TrialPayload {
  std::uint64_t index = 0;
  CheckpointRecord record;
};

std::string encode_assign(const AssignPayload& assign);
bool decode_assign(const std::string& payload, AssignPayload& out);

std::string encode_trial(const TrialPayload& trial);
bool decode_trial(const std::string& payload, TrialPayload& out);

std::string encode_shard_done(std::uint64_t shard_id);
bool decode_shard_done(const std::string& payload, std::uint64_t& shard_id);

/// FNV-1a 64 over arbitrary bytes (sim/hash.h). Wire vocabulary: the
/// campaign-identity digest in the multi-host handshake and the result
/// digest hwsecd clients compare are both this hash over canonical
/// encodings (service/protocol.h re-exports it).
using hwsec::sim::fnv1a64;

/// RAII SIGPIPE suppressor: a supervisor writing an assignment to a worker
/// that just died must see EPIPE (a recoverable event), not take the whole
/// campaign down with an unhandled signal. Restores the previous handler.
class SigpipeIgnore {
 public:
  SigpipeIgnore();
  ~SigpipeIgnore();
  SigpipeIgnore(const SigpipeIgnore&) = delete;
  SigpipeIgnore& operator=(const SigpipeIgnore&) = delete;

 private:
  bool installed_ = false;
  void* previous_;  ///< opaque storage for the saved sigaction.
};

}  // namespace hwsec::core::shard
