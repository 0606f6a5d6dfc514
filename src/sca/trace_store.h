// Chunked on-disk trace store: the bounded-memory backing for
// million-trace SCA campaigns.
//
// A store is a directory of fixed-size binary chunk files plus a tiny
// manifest. Capture appends records (one power trace + its plaintext and
// ciphertext) as they are produced; analyses that are single-pass (the
// sca/streaming accumulators) never need the store at all, and analyses
// that genuinely need a second pass (second-round cache key recovery,
// re-scoring under a different leakage model) replay it sequentially —
// peak RSS is one chunk, independent of campaign size.
//
// On-disk format (native endianness; the store is a scratch artifact of
// one host, not an interchange format):
//
//   <dir>/manifest           MANIFEST_MAGIC "HWTM", version, record_bytes,
//                            records_per_chunk, total records, chunk count,
//                            user_tag (TraceStore: samples per trace),
//                            FNV-1a-64 of the preceding fields.
//   <dir>/chunk-NNNNNN.hwt   CHUNK_MAGIC "HWTC", version, chunk index,
//                            record count, record_bytes, FNV-1a-64 of the
//                            payload, then record_count fixed-size records.
//
// Every read path validates magic, version, geometry and checksum and
// throws std::runtime_error with the offending path — a truncated or
// bit-flipped chunk is rejected, never crashed on (see the TraceStore
// corruption tests). The manifest is written via write-to-temp + rename,
// so a capture killed mid-run leaves no manifest and the directory reads
// as "not a store" rather than as a silently shorter one.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sca/trace.h"
#include "sim/hash.h"

namespace hwsec::sca {

/// FNV-1a 64 over a raw byte range (sim/hash.h) — the content checksum of
/// manifests and chunk payloads.
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                             std::uint64_t seed = hwsec::sim::kFnv1a64Offset) {
  return hwsec::sim::fnv1a64({reinterpret_cast<const char*>(data), size}, seed);
}

/// Low-level fixed-record chunked writer, shared by the trace store and
/// the cache-attack observation log. Not thread-safe: one writer per
/// store, fed in record order (the batched capture drivers already
/// serialize batches by index).
class ChunkedRecordWriter {
 public:
  /// Creates/truncates a store at `dir` (the directory is created if
  /// missing). `user_tag` is an opaque u64 the typed wrapper interprets.
  ChunkedRecordWriter(std::string dir, std::size_t record_bytes,
                      std::size_t records_per_chunk, std::uint64_t user_tag = 0);
  ~ChunkedRecordWriter();
  ChunkedRecordWriter(const ChunkedRecordWriter&) = delete;
  ChunkedRecordWriter& operator=(const ChunkedRecordWriter&) = delete;

  void append(const std::uint8_t* record);
  std::size_t size() const { return total_; }
  std::size_t record_bytes() const { return record_bytes_; }

  /// Flushes the open chunk and atomically writes the manifest. The store
  /// is unreadable until this runs. Idempotent; also invoked by the
  /// destructor (best-effort) if the caller forgot.
  void finalize();

 private:
  void open_chunk();
  void close_chunk();

  std::string dir_;
  std::size_t record_bytes_ = 0;
  std::size_t records_per_chunk_ = 0;
  std::uint64_t user_tag_ = 0;
  std::size_t total_ = 0;
  std::size_t chunks_ = 0;
  std::vector<std::uint8_t> buffer_;  ///< records of the open chunk.
  bool finalized_ = false;
};

/// Sequential replay reader. Construction validates the manifest; replay
/// validates each chunk (magic/version/geometry/checksum) before
/// delivering its records. Peak memory: one chunk.
class ChunkedRecordReader {
 public:
  explicit ChunkedRecordReader(std::string dir);

  std::size_t size() const { return total_; }
  std::size_t record_bytes() const { return record_bytes_; }
  std::uint64_t user_tag() const { return user_tag_; }

  /// Calls `visit(record_index, record)` for every record in order.
  void replay(const std::function<void(std::size_t, const std::uint8_t*)>& visit) const;

 private:
  std::string dir_;
  std::size_t record_bytes_ = 0;
  std::size_t records_per_chunk_ = 0;
  std::size_t total_ = 0;
  std::size_t chunks_ = 0;
  std::uint64_t user_tag_ = 0;
};

/// Typed trace store: record = plaintext[16] + ciphertext[16] + samples
/// (f64 × samples_per_trace). All traces in one store share a length —
/// the same rectangular-matrix requirement the statistics already impose.
class TraceStoreWriter {
 public:
  /// `traces_per_chunk` 0 picks a chunk size of ~4 MiB worth of traces.
  TraceStoreWriter(const std::string& dir, std::size_t samples_per_trace,
                   std::size_t traces_per_chunk = 0);

  void append(std::span<const double> samples, const std::array<std::uint8_t, 16>& plaintext,
              const std::array<std::uint8_t, 16>& ciphertext);
  /// Appends a whole capture batch (validates the batch is rectangular at
  /// the store's trace length).
  void append_batch(const TraceSet& batch);

  std::size_t size() const { return writer_.size(); }
  void finalize() { writer_.finalize(); }

 private:
  std::size_t samples_ = 0;
  ChunkedRecordWriter writer_;
  std::vector<std::uint8_t> scratch_;
};

class TraceStoreReader {
 public:
  explicit TraceStoreReader(const std::string& dir);

  std::size_t size() const { return reader_.size(); }
  std::size_t samples_per_trace() const { return samples_; }

  struct Record {
    std::size_t index = 0;
    std::span<const double> samples;
    std::array<std::uint8_t, 16> plaintext{};
    std::array<std::uint8_t, 16> ciphertext{};
  };
  /// Sequential replay in append order; the samples span is only valid
  /// inside the visit callback.
  void replay(const std::function<void(const Record&)>& visit) const;

 private:
  std::size_t samples_ = 0;
  ChunkedRecordReader reader_;
};

/// Materializes a whole store into RAM — the differential-reference path
/// (and the round-trip oracle in tests). Exact: doubles survive bit for
/// bit.
TraceSet load_trace_set(const std::string& dir);

}  // namespace hwsec::sca
