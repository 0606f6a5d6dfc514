#include "core/resilience/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "sim/hash.h"

namespace hwsec::core {

namespace {

std::string hex_encode(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out.empty() ? "-" : out;  // "-" keeps empty payloads tokenizable.
}

bool hex_decode(const std::string& hex, std::string& out) {
  out.clear();
  if (hex == "-") {
    return true;
  }
  if (hex.size() % 2 != 0) {
    return false;
  }
  auto nibble = [](char c, int& v) {
    if (c >= '0' && c <= '9') { v = c - '0'; return true; }
    if (c >= 'a' && c <= 'f') { v = c - 'a' + 10; return true; }
    return false;
  };
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = 0, lo = 0;
    if (!nibble(hex[i], hi) || !nibble(hex[i + 1], lo)) {
      return false;
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

// FNV-1a 64 over every content line (header + records, trailer excluded),
// folding in a '\n' per line so reordering/splitting lines changes the hash.
void fnv_line(std::uint64_t& hash, const std::string& line) {
  hash = sim::fnv1a64("\n", sim::fnv1a64(line, hash));
}

std::string fnv_hex(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace

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

std::string CheckpointFile::header_line() const {
  std::ostringstream header;
  header << "hwsec-checkpoint v2 seed=" << seed_ << " trials=" << trials_
         << " result_bytes=" << result_bytes_;
  // Scoped identities (tenant/job namespacing) extend the header; an empty
  // scope stays byte-identical to pre-scope files, which keeps old
  // single-owner checkpoints loadable.
  if (!scope_.empty()) {
    header << " scope=" << hex_encode(scope_);
  }
  return header.str();
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
    return load_or_reject(in, path);
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

bool CheckpointFile::load_or_reject(std::istream& in, const std::string& path) {
  std::uint64_t hash = sim::kFnv1a64Offset;
  std::string line;
  if (!std::getline(in, line)) {
    warn_rejected(path, "empty or unreadable");
    return false;
  }
  if (line != header_line()) {
    warn_rejected(path, "header mismatch (different campaign, scope, version, or corruption)");
    return false;
  }
  fnv_line(hash, line);
  std::map<std::size_t, CheckpointRecord> parsed;
  bool saw_end = false;
  std::size_t declared = 0;
  std::string declared_fnv;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "end") {
      if (!(fields >> declared >> declared_fnv)) {
        warn_rejected(path, "malformed trailer");
        return false;
      }
      saw_end = true;
      break;
    }
    fnv_line(hash, line);
    std::size_t index = 0;
    unsigned attempts = 0;
    CheckpointRecord rec;
    if (tag == "ok") {
      std::string hex;
      if (!(fields >> index >> attempts >> hex)) {
        warn_rejected(path, "truncated or malformed record");
        return false;
      }
      rec.ok = true;
      if (!hex_decode(hex, rec.payload) || rec.payload.size() != result_bytes_) {
        warn_rejected(path, "corrupt result payload");
        return false;
      }
    } else if (tag == "err") {
      unsigned kind = 0;
      std::string detail_hex;
      std::string machine_hex;
      if (!(fields >> index >> attempts >> kind >> detail_hex >> machine_hex)) {
        warn_rejected(path, "truncated or malformed error record");
        return false;
      }
      rec.ok = false;
      rec.kind = static_cast<std::uint8_t>(kind);
      if (!hex_decode(detail_hex, rec.detail) || !hex_decode(machine_hex, rec.machine)) {
        warn_rejected(path, "corrupt error payload");
        return false;
      }
    } else {
      warn_rejected(path, "unrecognized record tag");
      return false;
    }
    if (index >= trials_) {
      warn_rejected(path, "record index out of range");
      return false;
    }
    rec.attempts = attempts == 0 ? 1 : attempts;
    parsed[index] = std::move(rec);
  }
  if (!saw_end || declared != parsed.size()) {
    // The classic torn write: the process died mid-file, so the trailer is
    // missing or disagrees with the record count.
    warn_rejected(path, "missing or inconsistent trailer (torn write?)");
    return false;
  }
  // Content checksum: catches the corruption the line grammar cannot — a
  // bit flip inside a still-well-formed hex payload would otherwise
  // silently restore a wrong result.
  if (declared_fnv != fnv_hex(hash)) {
    warn_rejected(path, "content checksum mismatch (bit rot or tampering)");
    return false;
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
  std::ostringstream out;
  std::uint64_t hash = sim::kFnv1a64Offset;
  auto emit = [&out, &hash](const std::string& line) {
    fnv_line(hash, line);
    out << line << "\n";
  };
  emit(header_line());
  for (const auto& [index, rec] : records_) {
    std::ostringstream line;
    if (rec.ok) {
      line << "ok " << index << " " << rec.attempts << " " << hex_encode(rec.payload);
    } else {
      line << "err " << index << " " << rec.attempts << " " << static_cast<unsigned>(rec.kind)
           << " " << hex_encode(rec.detail) << " " << hex_encode(rec.machine);
    }
    emit(line.str());
  }
  out << "end " << records_.size() << " " << fnv_hex(hash) << "\n";
  return write_file_atomic(path, out.str());
}

}  // namespace hwsec::core
