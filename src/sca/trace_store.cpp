#include "sca/trace_store.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace hwsec::sca {

namespace {

constexpr std::uint32_t kManifestMagic = 0x4D545748u;  // "HWTM" little-endian.
constexpr std::uint32_t kChunkMagic = 0x43545748u;     // "HWTC".
constexpr std::uint32_t kFormatVersion = 1;

struct ManifestDisk {
  std::uint32_t magic = kManifestMagic;
  std::uint32_t version = kFormatVersion;
  std::uint64_t record_bytes = 0;
  std::uint64_t records_per_chunk = 0;
  std::uint64_t total = 0;
  std::uint64_t chunks = 0;
  std::uint64_t user_tag = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a of the preceding fields.
};

struct ChunkHeaderDisk {
  std::uint32_t magic = kChunkMagic;
  std::uint32_t version = kFormatVersion;
  std::uint64_t chunk_index = 0;
  std::uint64_t record_count = 0;
  std::uint64_t record_bytes = 0;
  std::uint64_t payload_checksum = 0;
};

std::string chunk_path(const std::string& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "chunk-%06zu.hwt", index);
  return dir + "/" + name;
}

std::string manifest_path(const std::string& dir) { return dir + "/manifest"; }

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("trace store: " + path + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// ChunkedRecordWriter

ChunkedRecordWriter::ChunkedRecordWriter(std::string dir, std::size_t record_bytes,
                                         std::size_t records_per_chunk, std::uint64_t user_tag)
    : dir_(std::move(dir)),
      record_bytes_(record_bytes),
      records_per_chunk_(records_per_chunk),
      user_tag_(user_tag) {
  if (record_bytes_ == 0 || records_per_chunk_ == 0) {
    throw std::invalid_argument("trace store: record size and chunk capacity must be nonzero");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Drop any stale store (manifest + chunks) so a shorter re-capture can
  // never read a longer predecessor's tail chunks.
  std::filesystem::remove(manifest_path(dir_), ec);
  for (std::size_t i = 0;; ++i) {
    if (!std::filesystem::remove(chunk_path(dir_, i), ec)) {
      break;
    }
  }
  buffer_.reserve(record_bytes_ * records_per_chunk_);
}

ChunkedRecordWriter::~ChunkedRecordWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructor path: a failed flush leaves no manifest, which readers
    // report as "not a store" — the torn-write failure mode we want.
  }
}

void ChunkedRecordWriter::append(const std::uint8_t* record) {
  if (finalized_) {
    throw std::logic_error("trace store: append after finalize");
  }
  buffer_.insert(buffer_.end(), record, record + record_bytes_);
  ++total_;
  if (buffer_.size() >= record_bytes_ * records_per_chunk_) {
    close_chunk();
  }
}

void ChunkedRecordWriter::close_chunk() {
  if (buffer_.empty()) {
    return;
  }
  ChunkHeaderDisk header;
  header.chunk_index = chunks_;
  header.record_count = buffer_.size() / record_bytes_;
  header.record_bytes = record_bytes_;
  header.payload_checksum = fnv1a64(buffer_.data(), buffer_.size());
  const std::string path = chunk_path(dir_, chunks_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  out.flush();
  if (!out) {
    fail(path, "write failed (disk full?)");
  }
  ++chunks_;
  buffer_.clear();
}

void ChunkedRecordWriter::finalize() {
  if (finalized_) {
    return;
  }
  close_chunk();
  ManifestDisk m;
  m.record_bytes = record_bytes_;
  m.records_per_chunk = records_per_chunk_;
  m.total = total_;
  m.chunks = chunks_;
  m.user_tag = user_tag_;
  m.checksum = fnv1a64(reinterpret_cast<const std::uint8_t*>(&m),
                       sizeof(ManifestDisk) - sizeof(std::uint64_t));
  // Write-to-temp + rename: the manifest is the store's commit record, so
  // it must appear atomically after every chunk it describes.
  const std::string path = manifest_path(dir_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&m), sizeof(m));
    out.flush();
    if (!out) {
      fail(tmp, "manifest write failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(path, "manifest rename failed");
  }
  finalized_ = true;
}

// ---------------------------------------------------------------------------
// ChunkedRecordReader

ChunkedRecordReader::ChunkedRecordReader(std::string dir) : dir_(std::move(dir)) {
  const std::string path = manifest_path(dir_);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(path, "missing manifest (not a finalized store)");
  }
  ManifestDisk m;
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || in.gcount() != sizeof(m)) {
    fail(path, "truncated manifest");
  }
  if (m.magic != kManifestMagic) {
    fail(path, "bad manifest magic");
  }
  if (m.version != kFormatVersion) {
    fail(path, "unsupported store version " + std::to_string(m.version));
  }
  const std::uint64_t expect = fnv1a64(reinterpret_cast<const std::uint8_t*>(&m),
                                       sizeof(ManifestDisk) - sizeof(std::uint64_t));
  if (m.checksum != expect) {
    fail(path, "manifest checksum mismatch");
  }
  if (m.record_bytes == 0 || m.records_per_chunk == 0) {
    fail(path, "degenerate manifest geometry");
  }
  record_bytes_ = m.record_bytes;
  records_per_chunk_ = m.records_per_chunk;
  total_ = m.total;
  chunks_ = m.chunks;
  user_tag_ = m.user_tag;
  const std::uint64_t max_capacity = chunks_ * records_per_chunk_;
  if (total_ > max_capacity) {
    fail(path, "manifest claims more records than its chunks can hold");
  }
}

void ChunkedRecordReader::replay(
    const std::function<void(std::size_t, const std::uint8_t*)>& visit) const {
  std::vector<std::uint8_t> payload;
  std::size_t index = 0;
  for (std::size_t c = 0; c < chunks_; ++c) {
    const std::string path = chunk_path(dir_, c);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      fail(path, "missing chunk");
    }
    ChunkHeaderDisk header;
    in.read(reinterpret_cast<char*>(&header), sizeof(header));
    if (!in || in.gcount() != sizeof(header)) {
      fail(path, "truncated chunk header");
    }
    if (header.magic != kChunkMagic) {
      fail(path, "bad chunk magic");
    }
    if (header.version != kFormatVersion) {
      fail(path, "unsupported chunk version");
    }
    if (header.chunk_index != c) {
      fail(path, "chunk index mismatch (misnamed or shuffled chunk)");
    }
    if (header.record_bytes != record_bytes_) {
      fail(path, "chunk record size disagrees with manifest");
    }
    if (header.record_count == 0 || header.record_count > records_per_chunk_) {
      fail(path, "chunk record count out of range");
    }
    const std::size_t bytes = header.record_count * record_bytes_;
    payload.resize(bytes);
    in.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(bytes));
    if (!in || static_cast<std::size_t>(in.gcount()) != bytes) {
      fail(path, "truncated chunk payload");
    }
    if (fnv1a64(payload.data(), bytes) != header.payload_checksum) {
      fail(path, "chunk payload checksum mismatch (corrupt store)");
    }
    for (std::size_t r = 0; r < header.record_count; ++r) {
      if (index >= total_) {
        fail(path, "more records than the manifest declares");
      }
      visit(index++, payload.data() + r * record_bytes_);
    }
  }
  if (index != total_) {
    fail(manifest_path(dir_), "store ended short of the manifest's record count");
  }
}

// ---------------------------------------------------------------------------
// TraceStore

namespace {

constexpr std::size_t kBlockBytes = 32;  ///< plaintext + ciphertext prefix.

std::size_t default_traces_per_chunk(std::size_t samples) {
  const std::size_t record = kBlockBytes + samples * sizeof(double);
  const std::size_t target = 4u << 20;  // ~4 MiB chunks.
  return std::max<std::size_t>(1, target / record);
}

}  // namespace

TraceStoreWriter::TraceStoreWriter(const std::string& dir, std::size_t samples_per_trace,
                                   std::size_t traces_per_chunk)
    : samples_(samples_per_trace),
      writer_(dir, kBlockBytes + samples_per_trace * sizeof(double),
              traces_per_chunk != 0 ? traces_per_chunk
                                    : default_traces_per_chunk(samples_per_trace),
              /*user_tag=*/samples_per_trace),
      scratch_(kBlockBytes + samples_per_trace * sizeof(double)) {}

void TraceStoreWriter::append(std::span<const double> samples,
                              const std::array<std::uint8_t, 16>& plaintext,
                              const std::array<std::uint8_t, 16>& ciphertext) {
  if (samples.size() != samples_) {
    throw std::invalid_argument("trace store: trace has " + std::to_string(samples.size()) +
                                " samples, store expects " + std::to_string(samples_));
  }
  std::memcpy(scratch_.data(), plaintext.data(), 16);
  std::memcpy(scratch_.data() + 16, ciphertext.data(), 16);
  std::memcpy(scratch_.data() + kBlockBytes, samples.data(), samples.size() * sizeof(double));
  writer_.append(scratch_.data());
}

void TraceStoreWriter::append_batch(const TraceSet& batch) {
  for (std::size_t i = 0; i < batch.traces.size(); ++i) {
    append(batch.traces[i], batch.plaintexts[i],
           i < batch.ciphertexts.size() ? batch.ciphertexts[i] : std::array<std::uint8_t, 16>{});
  }
}

TraceStoreReader::TraceStoreReader(const std::string& dir) : reader_(dir) {
  samples_ = static_cast<std::size_t>(reader_.user_tag());
  if (reader_.record_bytes() != kBlockBytes + samples_ * sizeof(double)) {
    throw std::runtime_error("trace store: " + dir +
                             ": manifest geometry does not describe a trace store");
  }
}

void TraceStoreReader::replay(const std::function<void(const Record&)>& visit) const {
  const std::size_t samples = samples_;
  reader_.replay([&](std::size_t index, const std::uint8_t* raw) {
    Record rec;
    rec.index = index;
    std::memcpy(rec.plaintext.data(), raw, 16);
    std::memcpy(rec.ciphertext.data(), raw + 16, 16);
    // The chunk payload has no alignment guarantee for the f64 block;
    // copy through a properly aligned scratch row.
    thread_local std::vector<double> row;
    row.resize(samples);
    std::memcpy(row.data(), raw + kBlockBytes, samples * sizeof(double));
    rec.samples = std::span<const double>(row.data(), samples);
    visit(rec);
  });
}

TraceSet load_trace_set(const std::string& dir) {
  TraceStoreReader reader(dir);
  TraceSet set;
  set.traces.reserve(reader.size());
  set.plaintexts.reserve(reader.size());
  set.ciphertexts.reserve(reader.size());
  reader.replay([&](const TraceStoreReader::Record& rec) {
    set.traces.emplace_back(rec.samples.begin(), rec.samples.end());
    set.plaintexts.push_back(rec.plaintext);
    set.ciphertexts.push_back(rec.ciphertext);
  });
  return set;
}

}  // namespace hwsec::sca
