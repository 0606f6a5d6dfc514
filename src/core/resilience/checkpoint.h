// Crash-safe persistence for long campaigns, and the one trial-record codec.
//
// Three layers:
//  * the little-endian byte codec (put_u16/u32/u64/put_bytes, Reader) —
//    how integers and length-prefixed byte strings look in every hwsec
//    file and on every hwsec wire;
//  * put_record/get_record — the single binary layout of a per-trial
//    record. Checkpoint files, shard kTrial frames (shard/wire.h) and
//    hwsecd result blobs (service/protocol.h) all carry records in it:
//      u8 flags (1 = ok, 2 = skipped), u32 attempts, then
//      ok:  bytes payload (raw Result bytes)
//      !ok: u8 kind, bytes detail, bytes machine
//  * write_file_atomic + CheckpointFile — write-to-temp + std::rename, so
//    a reader (or a resumed run) only ever sees the previous complete
//    file or the new complete file; CheckpointFile is a keyed store of
//    completed trial slots for one campaign, identified by (campaign
//    seed, trial count, result size) plus an optional owner scope. The
//    resilient runner saves it periodically; on restart, load() restores
//    finished slots and the runner re-executes only the rest. Because
//    trial i's result is a pure function of (seed, i), a resumed campaign
//    is bit-identical to an uninterrupted one.
//
// The scope exists because campaign-config identity alone is too weak in
// a multi-tenant world: two hwsecd tenants submitting byte-identical specs
// would otherwise share one checkpoint identity and silently cross-resume
// each other's jobs. A non-empty scope (the daemon uses "tenant/job-id")
// is part of the header, so a same-config checkpoint written under a
// different scope is rejected as a header mismatch.
//
// File format v3 (binary, little-endian):
//   "HWCK", u16 version 3, u64 seed, u64 trials, u64 result_bytes, bytes scope
//   u64 record count
//   per record: u64 index + put_record (never skipped)
//   u64 fnv1a64 of every preceding byte
// load() never throws: a file whose header does not match the campaign
// (including v1/v2 text checkpoints from older builds, which an upgrade
// therefore discards and re-runs from zero), that is truncated (a torn
// write), whose checksum disagrees (a bit flip), or whose records are out
// of range, duplicated, or the wrong size is ignored wholesale with a
// stderr warning — the campaign starts fresh.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace hwsec::core {

/// Atomically replaces `path` with `content`. Returns false (leaving any
/// previous file intact) if the temporary cannot be written or renamed.
bool write_file_atomic(const std::string& path, const std::string& content);

// ---- little-endian byte codec -----------------------------------------

void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// u32 length prefix + raw bytes.
void put_bytes(std::string& out, const std::string& bytes);

/// Bounds-checked little-endian reader; every get_* fails cleanly on a
/// truncated payload instead of reading past the end.
class Reader {
 public:
  explicit Reader(const std::string& data, std::size_t pos = 0) : data_(data), pos_(pos) {}

  bool get_u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool get_u16(std::uint16_t& v) {
    std::uint64_t wide = 0;
    if (!get_le(2, wide)) return false;
    v = static_cast<std::uint16_t>(wide);
    return true;
  }
  bool get_u32(std::uint32_t& v) {
    std::uint64_t wide = 0;
    if (!get_le(4, wide)) return false;
    v = static_cast<std::uint32_t>(wide);
    return true;
  }
  bool get_u64(std::uint64_t& v) { return get_le(8, v); }
  bool get_bytes(std::string& out) {
    std::uint32_t n = 0;
    if (!get_u32(n) || pos_ + n > data_.size()) return false;
    out.assign(data_, pos_, n);
    pos_ += n;
    return true;
  }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  bool get_le(std::size_t bytes, std::uint64_t& v) {
    if (pos_ + bytes > data_.size()) return false;
    v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += bytes;
    return true;
  }

  const std::string& data_;
  std::size_t pos_;
};

// ---- the trial record ---------------------------------------------------

struct CheckpointRecord {
  bool ok = false;
  unsigned attempts = 1;
  std::string payload;    ///< raw Result bytes when ok.
  std::uint8_t kind = 0;  ///< ErrorKind when !ok.
  std::string detail;     ///< error detail when !ok.
  std::string machine;    ///< machine profile attribution when !ok (may be empty).
};

/// Appends `rec` in the trial-record layout (see the file comment).
void put_record(std::string& out, const CheckpointRecord& rec, bool skipped = false);

/// Reads one record written by put_record into `rec`. The skipped flag
/// goes to `*skipped`; a carrier that has no skipped slots passes nullptr,
/// and a record with the flag set is then rejected. Attempts read as 0
/// are normalized to 1.
bool get_record(Reader& r, CheckpointRecord& rec, bool* skipped = nullptr);

class CheckpointFile {
 public:
  /// `scope` namespaces the checkpoint identity beyond the campaign config
  /// (empty = config-only identity). Arbitrary bytes are fine.
  CheckpointFile(std::uint64_t seed, std::size_t trials, std::size_t result_bytes,
                 std::string scope = {});

  /// Restores records from `path`. Returns true iff the file exists, its
  /// header matches this campaign, every record parses, and the content
  /// checksum verifies; otherwise the store is left empty. Never throws:
  /// a rejected (present but damaged) file logs a warning and bumps the
  /// checkpoint_load_rejected counter; an absent file is silently fresh.
  bool load(const std::string& path);

  /// Inserts or replaces the record for `index`. Not thread-safe; the
  /// caller serializes (the resilient runner holds one mutex around
  /// record+save).
  void record(std::size_t index, CheckpointRecord rec);

  const std::map<std::size_t, CheckpointRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Serializes the store and writes it via write_file_atomic. Best
  /// effort: returns false on I/O failure (the campaign keeps running).
  bool save(const std::string& path) const;

 private:
  /// Parses `data`; on any defect warns and returns false, leaving the
  /// store empty.
  bool load_or_reject(const std::string& data, const std::string& path);
  static void warn_rejected(const std::string& path, const std::string& reason);

  std::string header() const;

  std::uint64_t seed_;
  std::size_t trials_;
  std::size_t result_bytes_;
  std::string scope_;
  std::map<std::size_t, CheckpointRecord> records_;
};

}  // namespace hwsec::core
