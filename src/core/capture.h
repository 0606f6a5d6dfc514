// Batched trace capture wired through the campaign engine.
//
// The streaming accumulators (sca/streaming.h) decouple analysis memory
// from campaign size; this layer does the same for *capture*: instead of
// materializing a million-trace TraceSet and then analyzing it, pooled
// workers produce fixed-size batches in parallel waves and a consumer
// ingests them in batch-index order. Peak trace memory is one wave
// (window_batches × batch_traces traces), independent of campaign size.
//
// Determinism: a batch's entire content derives from (seed, batch index)
// — power batches via attacks::collect_aes_trace_batch, observation
// batches via a per-batch derived rng_seed — and the sink always sees
// batches in index order, so the delivered stream is a pure function of
// the config at any worker count. The power stream is byte-identical to
// what attacks::collect_aes_traces_parallel(seed, batch) materializes,
// which is what the batched-vs-one-shot equivalence checks lean on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "attacks/cache/full_key_recovery.h"
#include "attacks/physical/power_analysis.h"
#include "sca/streaming.h"
#include "sca/trace.h"
#include "sim/machine.h"

namespace hwsec::core {

struct BatchedCaptureConfig {
  std::uint64_t seed = 31337;
  std::size_t total_traces = 0;
  /// Traces per campaign trial; 0 picks collect_aes_traces_parallel's
  /// default (64) so the stream matches the materialized collector.
  std::size_t batch_traces = 0;
  unsigned workers = 0;  ///< 0 = ThreadPool::default_workers().
  /// Batches materialized at once (the capture window); 0 = 2× workers.
  std::size_t window_batches = 0;
};

/// Called once per batch, in batch-index order. The TraceSet is only
/// valid for the duration of the call.
using TraceBatchSink = std::function<void(std::size_t batch_index, const sca::TraceSet&)>;

/// Windowed batched AES power capture over run_campaign: one trial per
/// batch, waves of `window_batches` trials fanned across the pool, each
/// wave's batches delivered to `sink` in index order and then freed.
/// Returns the number of traces captured.
std::size_t capture_aes_power_batches(const BatchedCaptureConfig& config,
                                      const hwsec::crypto::AesKey& key,
                                      attacks::AesVariant variant,
                                      const hwsec::sca::RecorderConfig& recorder_config,
                                      const TraceBatchSink& sink);

/// End-to-end streaming CPA campaign: batched capture feeding one
/// StreamingCpa. Equivalent to cpa_attack_key(collect_aes_traces_parallel(
/// key, variant, total, rec, seed, batch)) with O(window) trace memory.
hwsec::sca::StreamingCpa run_streaming_cpa_campaign(
    const BatchedCaptureConfig& config, const hwsec::crypto::AesKey& key,
    attacks::AesVariant variant, const hwsec::sca::RecorderConfig& recorder_config);

/// Same capture, feeding a StreamingSecondOrderCpa (masked victims).
hwsec::sca::StreamingSecondOrderCpa run_streaming_second_order_campaign(
    const BatchedCaptureConfig& config, const hwsec::crypto::AesKey& key,
    const hwsec::sca::RecorderConfig& recorder_config, std::size_t mask_sample = 1);

struct ObservationCaptureConfig {
  std::uint64_t seed = 2024;
  std::uint64_t total_observations = 0;
  std::size_t batch_observations = 64;
  unsigned workers = 0;
  std::size_t window_batches = 0;  ///< 0 = 2× workers.
  attacks::CacheAttackConfig attack{};
};

/// Called once per observation batch, in batch-index order.
using ObservationBatchSink =
    std::function<void(std::size_t batch_index, const std::vector<attacks::LineObservation>&)>;

/// Windowed batched cache-channel observation capture: each trial leases a
/// machine from the campaign's MachinePool (snapshot/reset reuse), lays
/// out the victim tables, and records one batch of Flush+Reload line
/// observations of a T-table AES under `key`. Batch b's plaintext stream
/// derives from derive_seed(seed, b); the delivered observation stream is
/// deterministic at any worker count (it differs from the single-machine
/// sequential collector's stream — statistically equivalent, not
/// sample-identical). Returns the number of observations captured.
std::uint64_t capture_line_observation_batches(const ObservationCaptureConfig& config,
                                               const sim::MachineProfile& profile,
                                               const hwsec::crypto::AesKey& key,
                                               const ObservationBatchSink& sink);

}  // namespace hwsec::core
