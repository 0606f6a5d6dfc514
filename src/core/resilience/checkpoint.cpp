#include "core/resilience/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string_view>

#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "sim/hash.h"

namespace hwsec::core {

namespace {

constexpr std::uint16_t kCheckpointVersion = 3;
constexpr std::uint8_t kRecordOk = 1;
constexpr std::uint8_t kRecordSkipped = 2;

}  // namespace

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>(v >> 8 & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>(v >> shift & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>(v >> shift & 0xFF));
  }
}

void put_bytes(std::string& out, const std::string& bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

void put_record(std::string& out, const CheckpointRecord& rec, bool skipped) {
  out.push_back(static_cast<char>((rec.ok ? kRecordOk : 0) | (skipped ? kRecordSkipped : 0)));
  put_u32(out, rec.attempts);
  if (rec.ok) {
    put_bytes(out, rec.payload);
    return;
  }
  out.push_back(static_cast<char>(rec.kind));
  put_bytes(out, rec.detail);
  put_bytes(out, rec.machine);
}

bool get_record(Reader& r, CheckpointRecord& rec, bool* skipped) {
  rec = CheckpointRecord{};
  std::uint8_t flags = 0;
  std::uint32_t attempts = 0;
  if (!r.get_u8(flags) || !r.get_u32(attempts) ||
      (flags & ~(kRecordOk | kRecordSkipped)) != 0 ||
      ((flags & kRecordSkipped) != 0 && skipped == nullptr)) {
    return false;
  }
  rec.ok = (flags & kRecordOk) != 0;
  rec.attempts = attempts == 0 ? 1 : attempts;
  if (skipped != nullptr) {
    *skipped = (flags & kRecordSkipped) != 0;
  }
  return rec.ok ? r.get_bytes(rec.payload)
                : r.get_u8(rec.kind) && r.get_bytes(rec.detail) && r.get_bytes(rec.machine);
}

bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    out << content;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

CheckpointFile::CheckpointFile(std::uint64_t seed, std::size_t trials, std::size_t result_bytes,
                               std::string scope)
    : seed_(seed), trials_(trials), result_bytes_(result_bytes), scope_(std::move(scope)) {}

std::string CheckpointFile::header() const {
  std::string out = "HWCK";
  put_u16(out, kCheckpointVersion);
  put_u64(out, seed_);
  put_u64(out, trials_);
  put_u64(out, result_bytes_);
  put_bytes(out, scope_);
  return out;
}

bool CheckpointFile::load(const std::string& path) {
  records_.clear();
  // Never let a damaged checkpoint take the campaign down: every reject
  // path warns and returns false (the campaign starts fresh), and a
  // catch-all turns even an unexpected parse explosion into a fresh run.
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return false;  // no file: a fresh campaign, nothing to warn about.
    }
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return load_or_reject(data, path);
  } catch (...) {
    records_.clear();
    warn_rejected(path, "unexpected exception while parsing");
    return false;
  }
}

void CheckpointFile::warn_rejected(const std::string& path, const std::string& reason) {
  static const obs::Counter kRejected = obs::counter("checkpoint_load_rejected");
  kRejected.add(1);
  std::cerr << "[checkpoint] warning: ignoring " << path << " (" << reason
            << "); starting fresh\n";
}

bool CheckpointFile::load_or_reject(const std::string& data, const std::string& path) {
  auto reject = [&path](const char* reason) {
    warn_rejected(path, reason);
    return false;
  };
  if (data.empty()) {
    return reject("empty or unreadable");
  }
  const std::string expected = header();
  if (data.compare(0, expected.size(), expected) != 0) {
    // Also the path for v1/v2 text files: an upgrade re-runs their trials.
    return reject("header mismatch (different campaign, scope, version, or corruption)");
  }
  Reader r(data, expected.size());
  std::uint64_t count = 0;
  if (!r.get_u64(count)) {
    return reject("truncated after the header (torn write?)");
  }
  if (count > trials_) {
    return reject("record count out of range");
  }
  std::map<std::size_t, CheckpointRecord> parsed;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t index = 0;
    CheckpointRecord rec;
    if (!r.get_u64(index) || !get_record(r, rec)) {
      return reject("truncated or malformed record (torn write?)");
    }
    if (index >= trials_) {
      return reject("record index out of range");
    }
    if (rec.ok && rec.payload.size() != result_bytes_) {
      return reject("wrong result payload size");
    }
    if (!parsed.emplace(static_cast<std::size_t>(index), std::move(rec)).second) {
      return reject("duplicate record index");
    }
  }
  std::uint64_t declared = 0;
  if (!r.get_u64(declared) || !r.exhausted()) {
    return reject("missing or misplaced checksum (torn write?)");
  }
  // Content checksum: catches the corruption the layout cannot — a bit
  // flip inside a result payload would otherwise silently restore a
  // wrong result.
  if (declared != sim::fnv1a64(std::string_view(data).substr(0, data.size() - 8))) {
    return reject("content checksum mismatch (bit rot or tampering)");
  }
  records_ = std::move(parsed);
  return true;
}

void CheckpointFile::record(std::size_t index, CheckpointRecord rec) {
  records_[index] = std::move(rec);
}

bool CheckpointFile::save(const std::string& path) const {
  static const obs::Counter kSaves = obs::counter("checkpoint_saves");
  static const obs::Histogram kSaveUs = obs::histogram("checkpoint_save_us");
  kSaves.add(1);
  obs::ScopedTimer save_timer(kSaveUs);
  obs::Span save_span("checkpoint_save", static_cast<std::int64_t>(records_.size()),
                      "records");
  std::string out = header();
  put_u64(out, records_.size());
  for (const auto& [index, rec] : records_) {
    put_u64(out, index);
    put_record(out, rec);
  }
  put_u64(out, sim::fnv1a64(out));
  return write_file_atomic(path, out);
}

}  // namespace hwsec::core
