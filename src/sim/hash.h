// FNV-1a 64: the one content hash of the project.
//
// Every byte-level digest uses it: the campaign-identity and result
// digests on the wire, the checkpoint trailer, the trace-store checksums
// and the conformance leak-trace hash. Collision resistance is not the
// job; spreading bits and catching flips is. Leaf header so `sim` and
// everything above it can include it.
#pragma once

#include <cstdint>
#include <string_view>

namespace hwsec::sim {

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a 64 over `bytes`, starting from `seed`. The default seed is the
/// offset basis; passing a previous result continues that hash.
constexpr std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed = kFnv1a64Offset) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * kFnv1a64Prime;
  }
  return hash;
}

}  // namespace hwsec::sim
