// Substrate microbenchmarks (host performance of the simulator itself,
// straight google-benchmark): how fast the framework simulates cache
// accesses, executes instructions, encrypts, and crunches traces. These
// numbers bound experiment design (how many trials a bench can afford),
// not any paper claim.
#include <benchmark/benchmark.h>

#include "attacks/physical/power_analysis.h"
#include "attacks/transient/spectre.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "sca/cpa.h"
#include "sim/machine.h"

namespace sim = hwsec::sim;
namespace crypto = hwsec::crypto;
namespace attacks = hwsec::attacks;
namespace sca = hwsec::sca;

namespace {

void BM_CacheTouch(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::server(), 1);
  const sim::PhysAddr base = machine.alloc_frames(64);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.touch(0, 0, base + (i * 64) % (64 * sim::kPageSize)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheTouch);

// The Flush+Reload probe step of every transient-execution trial: flush
// 256 line-strided lines from the whole mobile hierarchy, then reload them
// with timing. Items are probe lines.
void BM_ProbeArraySweep(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::mobile(), 1);
  const sim::PhysAddr probe = machine.alloc_frames(4);
  std::uint64_t hot = 0;
  for (auto _ : state) {
    machine.flush_lines(probe, 64, 256);
    machine.probe_lines(0, sim::kDomainNormal, probe, 64, 256, [&](sim::Cycle latency) {
      hot += latency < 100 ? 1 : 0;
      return true;
    });
    benchmark::DoNotOptimize(hot);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ProbeArraySweep);

// Machine-pool reset cost after one spectre_leak-style trial (SpectreV1
// on mobile core 0): only reset_to + reseed is timed.
void BM_PoolResetAfterSpectreTrial(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::mobile(), 1);
  const sim::MachineSnapshot pristine = machine.snapshot();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      attacks::SpectreV1 spectre(machine, 0);
      benchmark::DoNotOptimize(spectre.leak_byte(spectre.plant_secret("K")));
    }
    state.ResumeTiming();
    machine.reset_to(pristine);
    machine.reseed(++seed);
  }
}
BENCHMARK(BM_PoolResetAfterSpectreTrial)->Unit(benchmark::kMicrosecond);

void BM_CpuInstructionThroughput(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::server(), 2);
  machine.cpu(0).mmu().set_bare_mode(true);
  sim::ProgramBuilder b(0x3000);
  b.label("loop")
      .addi(sim::R1, sim::R1, 1)
      .xori(sim::R2, sim::R1, 0x55)
      .andi(sim::R3, sim::R2, 0xFF)
      .jump("loop");
  const sim::Program p = b.build();
  machine.cpu(0).load_program(p);
  machine.cpu(0).set_pc(p.base);
  for (auto _ : state) {
    machine.cpu(0).run(10'000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_CpuInstructionThroughput)->Unit(benchmark::kMillisecond);

void BM_AesTTableEncrypt(benchmark::State& state) {
  const crypto::AesKey key{};
  crypto::AesTTable aes(key);
  crypto::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AesTTableEncrypt);

void BM_AesConstantTimeEncrypt(benchmark::State& state) {
  const crypto::AesKey key{};
  crypto::AesConstantTime aes(key);
  crypto::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AesConstantTimeEncrypt);

void BM_Sha256PerKiB(benchmark::State& state) {
  const std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256PerKiB);

void BM_TraceCollection(benchmark::State& state) {
  const crypto::AesKey key{};
  sca::RecorderConfig rec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::collect_aes_traces(key, attacks::AesVariant::kTTable, 32, rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_TraceCollection)->Unit(benchmark::kMillisecond);

void BM_CpaKeyAttack(benchmark::State& state) {
  const crypto::AesKey key{};
  sca::RecorderConfig rec;
  const auto set = attacks::collect_aes_traces(key, attacks::AesVariant::kTTable,
                                               static_cast<std::size_t>(state.range(0)), rec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sca::cpa_attack_key(set));
  }
}
BENCHMARK(BM_CpaKeyAttack)->Arg(128)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
