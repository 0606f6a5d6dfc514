// E13 — million-trace streaming SCA: single-pass accumulators, chunked
// trace store, batched capture.
//
// Three gates, every one enforced as a nonzero exit so CI fails loudly:
//   * equivalence — CPA/DPA/second-order CPA accumulated batch by batch
//     over the capture campaign and merged must reproduce one-shot
//     accumulation of the same traces held in memory: identical key-byte
//     ranking and best/second scores within 1e-9 relative;
//   * memory — a full 10^6-trace CPA key recovery must finish with peak
//     RSS under HWSEC_STREAM_RSS_MIB (default 256 MiB), which is the
//     point of the streaming pipeline: analysis memory is O(points), not
//     O(traces), and capture memory is one window of batches;
//   * trace store — a chunked on-disk store round-trip (write during
//     capture, sequential replay into a fresh accumulator) must recover
//     the exact same key as the accumulator fed directly.
// Machine-readable results land in BENCH_sca_streaming.json (override:
// HWSEC_STREAM_JSON) with trials/sec, traces/sec and peak RSS per phase.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "attacks/physical/power_analysis.h"
#include "core/capture.h"
#include "core/resilience/checkpoint.h"
#include "sca/cpa.h"
#include "sca/second_order.h"
#include "sca/streaming.h"
#include "sca/trace_store.h"
#include "table.h"

namespace attacks = hwsec::attacks;
namespace core = hwsec::core;
namespace sca = hwsec::sca;
namespace crypto = hwsec::crypto;

namespace {

const crypto::AesKey kKey = {0x10, 0xa5, 0x88, 0x69, 0xd7, 0x4b, 0xe5, 0xa3,
                             0x74, 0xcf, 0x86, 0x7c, 0xfb, 0x47, 0x38, 0x59};

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtod(v, nullptr);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Ranking + well-conditioned score comparison between two key attacks.
/// Near-zero correlations of wrong guesses are cancellation-dominated, so
/// the relative bound is asserted on the best/second scores (O(max rho),
/// well-conditioned); the ranking must match guess for guess.
struct KeyMatch {
  bool ranking_ok = true;
  double max_rel_err = 0.0;
};

KeyMatch compare_keys(const sca::KeyAttackResult& a, const sca::KeyAttackResult& b) {
  KeyMatch m;
  for (std::size_t i = 0; i < 16; ++i) {
    m.ranking_ok = m.ranking_ok && a.bytes[i].best_guess == b.bytes[i].best_guess;
    for (const auto& [x, y] : {std::pair{a.bytes[i].best_score, b.bytes[i].best_score},
                              std::pair{a.bytes[i].second_score, b.bytes[i].second_score}}) {
      const double denom = std::max({std::abs(x), std::abs(y), 1e-12});
      m.max_rel_err = std::max(m.max_rel_err, std::abs(x - y) / denom);
    }
  }
  return m;
}

void print_match(hwsec::bench::Table& t, const char* what, const KeyMatch& m, bool& all_ok) {
  const bool ok = m.ranking_ok && m.max_rel_err <= 1e-9;
  all_ok = all_ok && ok;
  std::ostringstream err;
  err << std::scientific << m.max_rel_err;
  t.print_row(what, m.ranking_ok ? "yes" : "DIVERGED", err.str(), ok ? "OK" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  using hwsec::bench::Table;
  bool all_ok = true;

  // ---- E13a: batched, merged vs. one-shot accumulation ------------------
  const std::size_t eq_traces = env_size_t("HWSEC_STREAM_EQ_TRACES", 2000);
  KeyMatch cpa_match, dpa_match, so_match;
  {
    hwsec::bench::section("E13a — batched, merged vs. one-shot accumulation");
    std::cout << "(" << eq_traces << " traces; same batched capture stream feeds both "
              << "pipelines)\n";
    Table t({"engine", "ranking identical", "max score rel err", "gate (1e-9)"},
            {24, 19, 20, 12});
    t.print_header();

    sca::RecorderConfig rec;
    rec.noise_sigma = 1.0;
    rec.seed = 71;
    const auto set = attacks::collect_aes_traces_parallel(kKey, attacks::AesVariant::kTTable,
                                                          eq_traces, rec, /*seed=*/71);
    core::BatchedCaptureConfig capture;
    capture.seed = 71;
    capture.total_traces = eq_traces;
    const auto acc =
        core::run_streaming_cpa_campaign(capture, kKey, attacks::AesVariant::kTTable, rec);

    cpa_match = compare_keys(sca::cpa_attack_key(set), acc.finalize_key());
    print_match(t, "first-order CPA", cpa_match, all_ok);
    dpa_match = compare_keys(sca::dpa_attack_key(set), acc.finalize_dpa_key());
    print_match(t, "single-bit DPA", dpa_match, all_ok);

    sca::RecorderConfig masked_rec;
    masked_rec.noise_sigma = 0.25;
    masked_rec.seed = 72;
    const auto masked = attacks::collect_aes_traces_parallel(
        kKey, attacks::AesVariant::kMasked, eq_traces, masked_rec, /*seed=*/72);
    core::BatchedCaptureConfig so_capture;
    so_capture.seed = 72;
    so_capture.total_traces = eq_traces;
    const auto so_acc = core::run_streaming_second_order_campaign(so_capture, kKey, masked_rec,
                                                                  /*mask_sample=*/1);
    so_match = compare_keys(sca::second_order_cpa_key(masked, 1), so_acc.finalize_key());
    print_match(t, "second-order CPA", so_match, all_ok);
  }

  // ---- E13b: million-trace streaming CPA under the RSS gate -------------
  const std::size_t stream_traces = env_size_t("HWSEC_STREAM_TRACES", 1'000'000);
  const double rss_limit_mib = env_double("HWSEC_STREAM_RSS_MIB", 256.0);
  double stream_seconds = 0.0;
  double stream_rss_mib = 0.0;
  std::uint32_t stream_correct = 0;
  bool rss_ok = false;
  {
    hwsec::bench::section("E13b — streaming CPA key recovery at campaign scale");
    sca::RecorderConfig rec;
    rec.noise_sigma = 1.0;
    rec.seed = 101;
    core::BatchedCaptureConfig capture;
    capture.seed = 101;
    capture.total_traces = stream_traces;
    const auto t0 = std::chrono::steady_clock::now();
    const auto acc =
        core::run_streaming_cpa_campaign(capture, kKey, attacks::AesVariant::kTTable, rec);
    const auto result = acc.finalize_key();
    stream_seconds = seconds_since(t0);
    stream_rss_mib = hwsec::bench::peak_rss_mib();
    stream_correct = result.correct_bytes(kKey);
    rss_ok = stream_rss_mib < rss_limit_mib;
    const bool recovered = stream_correct == 16;
    all_ok = all_ok && rss_ok && recovered;

    Table t({"traces", "seconds", "traces/sec", "key bytes", "peak RSS MiB", "RSS gate"},
            {12, 10, 14, 11, 14, 16});
    t.print_header();
    std::ostringstream gate;
    gate << (rss_ok ? "OK" : "FAIL") << " (< " << rss_limit_mib << ")";
    t.print_row(stream_traces, stream_seconds,
                static_cast<double>(stream_traces) / stream_seconds,
                std::to_string(stream_correct) + "/16", stream_rss_mib, gate.str());
    std::cout << "(materializing this campaign would need ~"
              << static_cast<double>(stream_traces) * attacks::kAesSamplesPerTrace * 8.0 /
                     (1024.0 * 1024.0)
              << " MiB of traces alone; the accumulator holds ~5.4 MiB)\n";
  }

  // ---- E13c: chunked trace store write/replay ---------------------------
  const std::size_t store_traces = env_size_t("HWSEC_STREAM_STORE_TRACES", 20'000);
  double store_mb = 0.0;
  double write_seconds = 0.0;
  double replay_seconds = 0.0;
  bool roundtrip_ok = false;
  {
    hwsec::bench::section("E13c — chunked trace store: append during capture, replay");
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("hwsec-stream-bench-" + std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    sca::RecorderConfig rec;
    rec.noise_sigma = 1.0;
    rec.seed = 131;
    core::BatchedCaptureConfig capture;
    capture.seed = 131;
    capture.total_traces = store_traces;

    sca::StreamingCpa direct(attacks::kAesSamplesPerTrace);
    {
      sca::TraceStoreWriter writer(dir.string(), attacks::kAesSamplesPerTrace);
      const auto t0 = std::chrono::steady_clock::now();
      core::capture_aes_power_batches(
          capture, kKey, attacks::AesVariant::kTTable, rec,
          [&](std::size_t, const sca::TraceSet& batch) {
            writer.append_batch(batch);
            direct.add_batch(batch);
          });
      writer.finalize();
      write_seconds = seconds_since(t0);
    }
    store_mb = static_cast<double>(store_traces) * (32.0 + attacks::kAesSamplesPerTrace * 8.0) /
               (1024.0 * 1024.0);

    sca::StreamingCpa replayed(attacks::kAesSamplesPerTrace);
    {
      const auto t0 = std::chrono::steady_clock::now();
      sca::TraceStoreReader reader(dir.string());
      reader.replay([&](const sca::TraceStoreReader::Record& r) {
        replayed.add(r.samples, r.plaintext);
      });
      replay_seconds = seconds_since(t0);
    }
    std::filesystem::remove_all(dir, ec);

    // Replay delivers the exact bytes capture appended, so the replayed
    // accumulator's recovered key must equal the direct one's.
    const auto direct_key = direct.finalize_key();
    const auto replayed_key = replayed.finalize_key();
    roundtrip_ok = replayed.traces() == direct.traces() &&
                   replayed_key.recovered == direct_key.recovered;
    all_ok = all_ok && roundtrip_ok;

    Table t({"traces", "store MiB", "write MiB/s", "replay MiB/s", "round-trip"},
            {12, 11, 13, 14, 12});
    t.print_header();
    t.print_row(store_traces, store_mb, store_mb / write_seconds, store_mb / replay_seconds,
                roundtrip_ok ? "EXACT" : "DIVERGED");
  }

  // ---- machine-readable record for CI -----------------------------------
  const char* json_env = std::getenv("HWSEC_STREAM_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_sca_streaming.json";
  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"sca_streaming\",\n"
       << "  \"equivalence\": {\"traces\": " << eq_traces
       << ", \"cpa_ranking_ok\": " << (cpa_match.ranking_ok ? "true" : "false")
       << ", \"cpa_max_rel_err\": " << cpa_match.max_rel_err
       << ", \"dpa_ranking_ok\": " << (dpa_match.ranking_ok ? "true" : "false")
       << ", \"dpa_max_rel_err\": " << dpa_match.max_rel_err
       << ", \"second_order_ranking_ok\": " << (so_match.ranking_ok ? "true" : "false")
       << ", \"second_order_max_rel_err\": " << so_match.max_rel_err << "},\n"
       << "  \"stream\": {\"traces\": " << stream_traces
       << ", \"seconds\": " << stream_seconds
       << ", \"traces_per_sec\": " << static_cast<double>(stream_traces) / stream_seconds
       << ", \"correct_bytes\": " << stream_correct
       << ", \"peak_rss_mib\": " << stream_rss_mib
       << ", \"rss_limit_mib\": " << rss_limit_mib
       << ", \"rss_ok\": " << (rss_ok ? "true" : "false") << "},\n"
       << "  \"store\": {\"traces\": " << store_traces << ", \"mib\": " << store_mb
       << ", \"write_mib_per_sec\": " << store_mb / write_seconds
       << ", \"replay_mib_per_sec\": " << store_mb / replay_seconds
       << ", \"roundtrip_ok\": " << (roundtrip_ok ? "true" : "false") << "},\n"
       << "  \"peak_rss_mib\": " << hwsec::bench::peak_rss_mib() << ",\n"
       << "  \"all_ok\": " << (all_ok ? "true" : "false") << "\n"
       << "}\n";
  if (core::write_file_atomic(json_path, json.str())) {
    std::cout << "\nwrote " << json_path << "\n";
  } else {
    std::cerr << "\nfailed to write " << json_path << "\n";
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!all_ok) {
    std::cerr << "E13 GATE FAILED — see the tables above\n";
  }
  return all_ok ? 0 : 1;
}
