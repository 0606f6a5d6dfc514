// sca_stream: streaming first-order CPA on T-table AES power traces through
// core::run_streaming_cpa_campaign, one campaign per job, all jobs merged
// into one accumulator and finalized into a 16-byte key at the end.
//
// Why: it never builds a sim::Machine — capture, add_batch and finalize do
// the work — so any simulator-only change should predict no change here.
#include <iostream>
#include <memory>

#include "attacks/physical/power_analysis.h"
#include "bench.h"
#include "core/capture.h"
#include "core/obs/trace.h"
#include "sca/streaming.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

namespace core = hwsec::core;
namespace sca = hwsec::sca;
namespace sim = hwsec::sim;
namespace attacks = hwsec::attacks;

constexpr unsigned kWorkers = 2;
constexpr std::size_t kTracesPerJob = 16384;
constexpr std::size_t kBatchTraces = 64;  // capture's default batch.
constexpr std::size_t kWaveBatches = 2 * kWorkers;  // capture's default window.
constexpr int kSetupRepeats = 25;
constexpr std::size_t kPoints = attacks::kAesSamplesPerTrace;  // no jitter.

hwsec::crypto::AesKey workload_key(std::uint64_t seed) {
  hwsec::crypto::AesKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(sim::derive_seed(seed, 1000 + i));
  }
  return key;
}

sca::RecorderConfig recorder(std::uint64_t seed) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = seed;
  return rec;
}

core::BatchedCaptureConfig job_config(std::uint64_t seed, std::uint64_t job) {
  core::BatchedCaptureConfig config;
  config.seed = sim::derive_seed(seed, job);
  config.total_traces = kTracesPerJob;
  config.batch_traces = kBatchTraces;
  config.workers = kWorkers;
  return config;
}

/// Output check: the merged accumulator recovers all 16 key bytes.
void check_key(const sca::StreamingCpa& acc, const hwsec::crypto::AesKey& key,
               const Options& opt, Report& report) {
  sca::KeyAttackResult result = acc.finalize_key();
  if (opt.corrupt == "key") result.recovered[0] ^= 1;
  const std::uint32_t correct = result.correct_bytes(key);
  std::cout << "key bytes recovered: " << correct << "/16 from " << acc.traces() << " traces\n";
  report.check(correct == 16, std::to_string(correct) + "/16 key bytes recovered");
}

/// Closed loop of streaming campaigns merged into `acc`; the final
/// finalize_key (inside check_key) is part of the timed phase.
LoopResult run_jobs(sca::StreamingCpa& acc, const Options& opt, Report& report) {
  const hwsec::crypto::AesKey key = workload_key(opt.seed);
  const sca::RecorderConfig rec = recorder(opt.seed);
  LoopResult loop;
  const auto start = Clock::now();
  for (std::uint64_t job = 0; seconds_since(start) < opt.seconds; ++job) {
    const auto job_start = Clock::now();
    const sca::StreamingCpa part = core::run_streaming_cpa_campaign(
        job_config(opt.seed, job), key, attacks::AesVariant::kTTable, rec);
    acc.merge(part);
    loop.job_ms.push_back(ms_since(job_start));
    loop.ops += static_cast<double>(part.traces());
    report.attempted += part.traces();
  }
  check_key(acc, key, opt, report);
  loop.seconds = seconds_since(start);
  return loop;
}

/// Traced run: untraced run_streaming_cpa_campaign jobs alternate with
/// traced jobs that re-issue its body (accumulator, capture, add_batch)
/// with spans; each kind merges into its own accumulator.
void traced_run(const Options& opt, Report& report) {
  const hwsec::crypto::AesKey key = workload_key(opt.seed);
  const sca::RecorderConfig rec = recorder(opt.seed);
  hwsec::obs::Tracer& tracer = hwsec::obs::Tracer::instance();
  ObsDelta obs;
  sca::StreamingCpa acc[2] = {sca::StreamingCpa(kPoints), sca::StreamingCpa(kPoints)};
  double busy_s[2] = {0, 0};
  double add_us = 0;
  double merge_us = 0;
  double capture_wall_us = 0;  ///< caller's wait for capture waves, from sink timestamps.
  double batches = 0;
  double jobs = 0;
  const auto start = Clock::now();
  // At least one job of each kind, however short the run.
  for (std::uint64_t job = 0; job < 2 || seconds_since(start) < opt.seconds; ++job) {
    const bool traced = job % 2 == 1;
    const auto job_start = Clock::now();
    if (traced) {
      TracedJob bracket(obs);
      hwsec::obs::Span span("perfbench.job", static_cast<std::int64_t>(job), "job");
      const double m0 = tracer.now_us();
      sca::StreamingCpa part(kPoints);
      double sink_end = tracer.now_us();
      merge_us += sink_end - m0;
      core::capture_aes_power_batches(
          job_config(opt.seed, job), key, attacks::AesVariant::kTTable, rec,
          [&](std::size_t batch, const sca::TraceSet& set) {
            const double a0 = tracer.now_us();
            if (batch % kWaveBatches == 0) {
              tracer.complete("capture.wave", sink_end, a0 - sink_end);
            }
            capture_wall_us += a0 - sink_end;
            part.add_batch(set);
            const double a1 = tracer.now_us();
            tracer.complete("sca.add_batch", a0, a1 - a0);
            add_us += a1 - a0;
            sink_end = a1;
            ++batches;
          });
      const double m1 = tracer.now_us();
      acc[1].merge(part);
      const double m2 = tracer.now_us();
      tracer.complete("sca.merge", m1, m2 - m1);
      merge_us += m2 - m1;
      ++jobs;
    } else {
      acc[0].merge(core::run_streaming_cpa_campaign(job_config(opt.seed, job), key,
                                                    attacks::AesVariant::kTTable, rec));
    }
    busy_s[traced] += seconds_since(job_start);
    report.attempted += kTracesPerJob;
  }
  check_key(acc[0], key, opt, report);
  const double f0 = tracer.now_us();
  {
    TracedJob bracket(obs);
    const sca::KeyAttackResult result = acc[1].finalize_key();
    report.check(result.correct_bytes(key) == 16,
                 "traced jobs recovered " + std::to_string(result.correct_bytes(key)) +
                     "/16 key bytes");
  }
  const double finalize_us = tracer.now_us() - f0;
  tracer.complete("sca.finalize", f0, finalize_us);

  // capture.batch_us is the capture thread time per batch, from the
  // engine's trial_us histogram (one campaign trial per batch). The workers
  // capture a wave of batches in parallel, so its share of the wall time is
  // capture / workers. campaign.overhead_us is the rest of the caller's
  // wait for each wave, timed between sink calls: wave dispatch, workers
  // idle while the sink runs, uneven waves. The gap is what neither covers,
  // such as the capture's thread-pool start and stop.
  const double capture_us = obs.trial_us();
  const double engine_us = capture_wall_us / batches - capture_us / kWorkers;
  const double per_batch_wall = (1e6 * busy_s[1] + finalize_us) / batches;
  const double rows = capture_us / kWorkers + engine_us + add_us / batches +
                      merge_us / batches + finalize_us / batches;
  report.check(static_cast<double>(obs.trial_count) == batches,
               "trial_us counted " + std::to_string(obs.trial_count) + " capture batches, not " +
                   std::to_string(static_cast<std::uint64_t>(batches)));
  auto& m = report.metrics;
  m["capture.batch_us"] = capture_us;
  m["campaign.overhead_us"] = engine_us;
  m["sca.add_batch_us"] = add_us / batches;
  m["sca.merge_ms"] = merge_us / jobs / 1e3;
  m["sca.finalize_ms"] = finalize_us / 1e3;
  m["ledger.gap_pct"] = 100.0 * (per_batch_wall - rows) / per_batch_wall;
  set_trace_overhead(report, static_cast<double>(acc[0].traces()) / busy_s[0],
                     static_cast<double>(acc[1].traces()) / busy_s[1]);
  std::cout << "ledger (per " << kBatchTraces << "-trace batch): capture " << capture_us
            << " / " << kWorkers << " workers + engine " << engine_us << " + add_batch "
            << add_us / batches << " + merge " << merge_us / batches
            << " + finalize " << finalize_us / batches << " = " << rows << " us vs wall "
            << per_batch_wall << " us\n";
}

}  // namespace

void run_sca_stream(const Options& opt, Report& report) {
  // Set-up is sampled before and after the timed phase, so its median does
  // not hang on the host's speed in the run's first second.
  std::vector<double> setup_s;
  std::unique_ptr<sca::StreamingCpa> acc;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      acc.reset();
      const auto start = Clock::now();
      acc = std::make_unique<sca::StreamingCpa>(kPoints);
      setup_s.push_back(seconds_since(start));
    }
  };
  // Warm-up first, so its accumulator is gone before set-up builds the
  // timed one and stays out of peak_rss_mib.
  warm_up(opt, report, [](const Options& o, Report& r) {
    sca::StreamingCpa scratch(kPoints);
    return run_jobs(scratch, o, r);
  });
  set_up();
  if (opt.trace) {
    traced_run(opt, report);
    return;
  }
  const LoopResult loop = run_jobs(*acc, opt, report);
  const double rss = peak_rss_mib();
  set_up();
  set_end_to_end(report, loop, setup_s, rss);
}

}  // namespace perfbench
