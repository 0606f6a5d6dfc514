// Predecoded micro-op representation of a Program.
//
// A DecodedProgram lowers each Instruction once, at load time, into a
// dense 12-byte micro-op with the immediate pre-cast to the 32-bit machine
// word and shift amounts pre-masked, so the commit loop (sim/dispatch.cpp)
// touches exactly one cache line per op and never re-derives operand
// fields from the full Instruction struct.
//
// Decoded programs are immutable and shared: the UopCache keys them by
// program content, so the machine pool decodes each distinct attack
// program once per process instead of once per trial. Cpu::load_program
// consults the cache when one is installed (Machine::set_uop_cache) and
// decodes privately otherwise.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/isa.h"
#include "sim/program.h"
#include "sim/types.h"

namespace hwsec::sim {

/// Micro-op handler id. Mirrors Opcode one-to-one today; kept a separate
/// enum so the dispatch core may grow fused/specialized handlers without
/// touching the ISA.
enum class UopKind : std::uint8_t {
  kNop,
  kHalt,
  kLoadImm,
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kMul,
  kAddImm,
  kAndImm,
  kXorImm,
  kShlImm,
  kShrImm,
  kLoad,
  kLoadByte,
  kStore,
  kStoreByte,
  kBranch,
  kJump,
  kJumpInd,
  kCall,
  kCallInd,
  kRet,
  kFence,
  kClflush,
  kRdCycle,
  kEcall,
};

inline constexpr std::uint32_t kNumUopKinds = 30;

/// One predecoded micro-op. 12 bytes, trivially copyable. `imm` carries
/// the immediate already narrowed to the machine word — every consumer in
/// the commit path uses `static_cast<Word>(inst.imm)` semantics, so the
/// narrowing is exact — and for kShlImm/kShrImm the shift amount is
/// additionally pre-masked to 5 bits.
struct Uop {
  UopKind kind = UopKind::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  BranchCond cond = BranchCond::kEq;
  Word imm = 0;
};

/// A Program lowered to micro-ops. Keeps the original instruction vector
/// (the transient-window executor serves from it) but drops the label map,
/// which trials never consult after load.
struct DecodedProgram {
  VirtAddr base = 0;
  VirtAddr end = 0;  ///< base + 4 * code.size().
  std::vector<Instruction> code;
  std::vector<Uop> uops;  ///< uops[i] decodes code[i].
  std::uint64_t identity = 0;  ///< content hash (base + instruction fields).
};

/// Content hash of a program (FNV-1a over base and instruction fields).
std::uint64_t program_identity(const Program& program);

/// Lowers `program` to micro-ops. Stand-alone entry point for cache-less
/// use; UopCache::get_or_decode is the pooled path.
std::shared_ptr<const DecodedProgram> decode_program(const Program& program);

/// Process-wide (or pool-wide) cache of decoded programs, keyed by content
/// identity with full structural equality on hash collision. Thread-safe:
/// pool workers on different machines load the same attack programs
/// concurrently. Bounded: decoding is cheap, so on overflow the cache is
/// simply cleared (outstanding shared_ptrs keep their programs alive).
class UopCache {
 public:
  std::shared_ptr<const DecodedProgram> get_or_decode(const Program& program);

  std::size_t size() const;

  static constexpr std::size_t kMaxEntries = 1024;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<const DecodedProgram>>> by_hash_;
  std::size_t entries_ = 0;
};

}  // namespace hwsec::sim
