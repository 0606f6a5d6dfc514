// SCA toolbox: statistics, recorder leakage models, and CPA/DPA engines
// on synthetic and real instrumented traces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "attacks/physical/power_analysis.h"
#include "core/capture.h"
#include "sca/cpa.h"
#include "sca/recorder.h"
#include "sca/second_order.h"
#include "sca/stats.h"
#include "sca/streaming.h"
#include "sca/trace_store.h"

namespace sca = hwsec::sca;
namespace crypto = hwsec::crypto;
namespace attacks = hwsec::attacks;

namespace {

const crypto::AesKey kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                             0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

TEST(Stats, HammingWeightAndDistance) {
  EXPECT_EQ(sca::hamming_weight(0), 0u);
  EXPECT_EQ(sca::hamming_weight(0xFFFFFFFF), 32u);
  EXPECT_EQ(sca::hamming_weight(0b1011), 3u);
  EXPECT_EQ(sca::hamming_distance(0b1100, 0b1010), 2u);
}

TEST(Stats, MeanVariance) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  const auto mv = sca::mean_variance(xs);
  EXPECT_DOUBLE_EQ(mv.mean, 5.0);
  EXPECT_NEAR(mv.variance, 4.571, 0.01);  // unbiased.
}

TEST(Stats, PearsonPerfectAndNone) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  const std::vector<double> anti = {10, 8, 6, 4, 2};
  const std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_NEAR(sca::pearson(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(sca::pearson(xs, anti), -1.0, 1e-12);
  EXPECT_EQ(sca::pearson(xs, flat), 0.0);
}

TEST(Stats, OffsetVarianceSurvivesLargeDcComponent) {
  // Regression for the naive-accumulation bug: a power trace's samples ride
  // on a huge DC baseline. At offset 1e9 with a 1e-3 signal over 1e5
  // samples, the old `sum += x` / `ss += d*d` code reported variance
  // ~1.25e-6 against a true ~1.0e-6 (25% off); the shifted, compensated
  // accumulators recover it to ~1e-7 relative.
  constexpr std::size_t kN = 100000;
  constexpr double kOffset = 1e9 + 0.7;  // non-dyadic: partial sums must round.
  constexpr double kAmplitude = 1e-3;
  std::vector<double> xs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    xs[i] = kOffset + (i < kN / 2 ? kAmplitude : -kAmplitude);
  }
  // Exact reference from the block structure: deviations are +-amplitude
  // around the (stored-value) mean, up to the rounding of the inputs.
  long double mean = 0.0L;
  for (const double x : xs) {
    mean += static_cast<long double>(x) / kN;
  }
  long double ss = 0.0L;
  for (const double x : xs) {
    const long double d = static_cast<long double>(x) - mean;
    ss += d * d;
  }
  const double expected = static_cast<double>(ss / (kN - 1));

  const auto mv = sca::mean_variance(xs);
  EXPECT_NEAR(mv.mean, static_cast<double>(mean), 1e-6);
  EXPECT_NEAR(mv.variance, expected, expected * 1e-3);  // old code: ~25% off.
}

TEST(Stats, OffsetPearsonStaysExact) {
  // Perfectly correlated series at a 1e9 baseline must still give rho = 1.
  std::vector<double> xs(5000), ys(5000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double signal = static_cast<double>(i % 17) * 1e-3;
    xs[i] = 1e9 + 0.7 + signal;
    ys[i] = 2e9 + 0.3 + 2.0 * signal;
  }
  EXPECT_NEAR(sca::pearson(xs, ys), 1.0, 1e-9);
}

TEST(Stats, CorrelateHypothesisRejectsRaggedTraces) {
  // A ragged matrix must fail fast with invalid_argument, not surface as a
  // std::out_of_range from a deep at() inside the point loop (the old
  // behavior this test pins down).
  std::vector<sca::Trace> traces = {{1.0, 2.0, 3.0}, {4.0, 5.0}, {6.0, 7.0, 8.0}};
  const std::vector<double> hypothesis = {1.0, 2.0, 3.0};
  EXPECT_THROW(sca::correlate_hypothesis(traces, hypothesis), std::invalid_argument);
}

TEST(Stats, CorrelateHypothesisMatchesPerPointPearson) {
  // The hoisted one-pass hypothesis statistics must agree with the naive
  // per-point pearson() definition.
  hwsec::sim::Rng rng(11);
  std::vector<sca::Trace> traces;
  std::vector<double> hypothesis;
  for (int t = 0; t < 40; ++t) {
    sca::Trace trace;
    for (int p = 0; p < 8; ++p) {
      trace.push_back(rng.gaussian(5.0, 2.0) + (p == 5 ? 0.8 * t : 0.0));
    }
    traces.push_back(std::move(trace));
    hypothesis.push_back(static_cast<double>(t));
  }
  const auto result = sca::correlate_hypothesis(traces, hypothesis);
  double best_rho = 0.0;
  std::size_t best_point = 0;
  std::vector<double> column(traces.size());
  for (std::size_t p = 0; p < traces.front().size(); ++p) {
    for (std::size_t t = 0; t < traces.size(); ++t) {
      column[t] = traces[t][p];
    }
    const double rho = std::abs(sca::pearson(column, hypothesis));
    if (rho > best_rho) {
      best_rho = rho;
      best_point = p;
    }
  }
  EXPECT_NEAR(result.max_abs_rho, best_rho, 1e-12);
  EXPECT_EQ(result.best_point, best_point);
  EXPECT_EQ(result.best_point, 5u);  // the planted leaky point.
}

TEST(Stats, OffsetWelchTDoesNotFalselyDetectLeakage) {
  // Identical distributions riding a 1e9 baseline: the t statistic must
  // stay far below the TVLA threshold even though every centered sum runs
  // against the DC component.
  hwsec::sim::Rng rng(9);
  std::vector<sca::Trace> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back({1e9 + 0.7 + rng.gaussian(0.0, 1e-3)});
    b.push_back({1e9 + 0.7 + rng.gaussian(0.0, 1e-3)});
  }
  EXPECT_LT(sca::max_welch_t(a, b), sca::kTvlaThreshold);
}

TEST(Stats, WelchTSeparatesShiftedPopulations) {
  hwsec::sim::Rng rng(5);
  std::vector<sca::Trace> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back({rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)});
    b.push_back({rng.gaussian(0.0, 1.0), rng.gaussian(2.0, 1.0)});
  }
  EXPECT_GT(sca::max_welch_t(a, b), sca::kTvlaThreshold);
  EXPECT_LT(sca::max_welch_t(a, a), sca::kTvlaThreshold);
}

TEST(Recorder, HammingWeightSignalPlusNoise) {
  sca::PowerTraceRecorder rec({.model = sca::LeakageModel::kHammingWeight, .amplitude = 1.0,
                               .noise_sigma = 0.0, .hiding_noise_sigma = 0.0, .max_jitter = 0,
                               .seed = 1});
  rec.begin_trace();
  rec.on_value(0xFF);       // HW 8.
  rec.on_value(0x0F0F0F0F); // HW 16.
  const auto trace = rec.end_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0], 8.0);
  EXPECT_DOUBLE_EQ(trace[1], 16.0);
}

TEST(Recorder, HammingDistanceModelUsesPreviousValue) {
  sca::PowerTraceRecorder rec({.model = sca::LeakageModel::kHammingDistance, .amplitude = 1.0,
                               .noise_sigma = 0.0, .hiding_noise_sigma = 0.0, .max_jitter = 0,
                               .seed = 1});
  rec.begin_trace();
  rec.on_value(0xFF);  // HD(0xFF, 0) = 8.
  rec.on_value(0xFE);  // HD(0xFE, 0xFF) = 1.
  const auto trace = rec.end_trace();
  EXPECT_DOUBLE_EQ(trace[0], 8.0);
  EXPECT_DOUBLE_EQ(trace[1], 1.0);
}

TEST(Recorder, JitterMisalignsAndPadsToFixedLength) {
  sca::PowerTraceRecorder rec({.model = sca::LeakageModel::kHammingWeight, .amplitude = 1.0,
                               .noise_sigma = 0.1, .hiding_noise_sigma = 0.0, .max_jitter = 3,
                               .seed = 2});
  rec.begin_trace();
  for (int i = 0; i < 10; ++i) {
    rec.on_value(0xFF);
  }
  const auto trace = rec.end_trace(40);
  EXPECT_EQ(trace.size(), 40u);
}

TEST(Cpa, RecoversKeyFromCleanTraces) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.1;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 150, rec);
  const auto result = sca::cpa_attack_key(set);
  EXPECT_EQ(result.correct_bytes(kKey), 16u);
  EXPECT_GT(result.bytes[0].margin(), 1.05);
}

TEST(Cpa, NoiseRaisesTraceRequirement) {
  sca::RecorderConfig noisy;
  noisy.noise_sigma = 4.0;
  const auto few = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 60, noisy);
  const auto many = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 1500, noisy);
  EXPECT_LT(sca::cpa_attack_key(few).correct_bytes(kKey),
            sca::cpa_attack_key(many).correct_bytes(kKey));
  EXPECT_GE(sca::cpa_attack_key(many).correct_bytes(kKey), 14u);
}

TEST(Cpa, MaskingDefeatsFirstOrderAttack) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.5;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kMasked, 800, rec);
  const auto result = sca::cpa_attack_key(set);
  EXPECT_LE(result.correct_bytes(kKey), 3u)
      << "first-order CPA against a masked implementation must be ~chance";
}

TEST(Cpa, ConstantTimeStillLeaksPower) {
  // The §4.1/§5 distinction: constant-time protects against cache/timing
  // observation, NOT against power analysis.
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.5;
  const auto set =
      attacks::collect_aes_traces(kKey, attacks::AesVariant::kConstantTime, 300, rec);
  const auto result = sca::cpa_attack_key(set);
  EXPECT_GE(result.correct_bytes(kKey), 14u);
}

TEST(SecondOrderCpa, BreaksFirstOrderMasking) {
  // The §5 escalation: first-order CPA fails against masking (test
  // above), but combining the mask-load sample with the S-box samples
  // recovers the key — masking ORDER matters.
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.25;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kMasked, 3000, rec);
  EXPECT_LE(sca::cpa_attack_key(set).correct_bytes(kKey), 3u) << "1st order stays blind";
  const auto second = sca::second_order_cpa_key(set, /*mask_sample=*/1);
  EXPECT_GE(second.correct_bytes(kKey), 14u) << "2nd order recovers the key";
}

TEST(SecondOrderCpa, NeedsTheRightCombiningPoint) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.25;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kMasked, 1500, rec);
  // Combining with an unrelated sample (a round-9 S-box output) instead
  // of the mask-load sample gives nothing.
  const auto wrong = sca::second_order_cpa_key(set, /*mask_sample=*/150);
  EXPECT_LE(wrong.correct_bytes(kKey), 3u);
}

TEST(SecondOrderCpa, UnmaskedVariantNeedsNoSecondOrder) {
  // Sanity: on the unprotected implementation the combined traces still
  // work (the channel is only weaker), and plain CPA is strictly better.
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.25;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 400, rec);
  EXPECT_EQ(sca::cpa_attack_key(set).correct_bytes(kKey), 16u);
}

TEST(Dpa, DifferenceOfMeansRecoversBytes) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.3;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 1200, rec);
  const auto result = sca::dpa_attack_key(set, /*bit=*/0);
  EXPECT_GE(result.correct_bytes(kKey), 12u);
}

TEST(Tvla, FixedVsRandomDetectsLeakyImplementation) {
  // Fixed-vs-random t-test: unprotected AES leaks, masked AES does not.
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.5;
  rec.seed = 77;
  auto make_populations = [&rec](attacks::AesVariant variant, std::uint64_t seed) {
    // "Fixed" population: constant plaintext (collect once per trace).
    sca::PowerTraceRecorder recorder({.model = sca::LeakageModel::kHammingWeight,
                                      .amplitude = 1.0, .noise_sigma = rec.noise_sigma,
                                      .hiding_noise_sigma = 0, .max_jitter = 0, .seed = seed});
    crypto::Instrumentation instr;
    instr.leak = [&recorder](std::uint32_t v) { recorder.on_value(v); };
    crypto::AesTTable ttable(kKey, instr);
    crypto::AesMasked masked(kKey, seed, instr);
    hwsec::sim::Rng rng(seed);
    std::vector<sca::Trace> fixed, random;
    const crypto::AesBlock fixed_pt{};
    for (int i = 0; i < 300; ++i) {
      crypto::AesBlock random_pt;
      for (auto& b : random_pt) {
        b = static_cast<std::uint8_t>(rng.next_u32());
      }
      recorder.begin_trace();
      if (variant == attacks::AesVariant::kTTable) {
        ttable.encrypt(fixed_pt);
      } else {
        masked.encrypt(fixed_pt);
      }
      fixed.push_back(recorder.end_trace(attacks::kAesSamplesPerTrace));
      recorder.begin_trace();
      if (variant == attacks::AesVariant::kTTable) {
        ttable.encrypt(random_pt);
      } else {
        masked.encrypt(random_pt);
      }
      random.push_back(recorder.end_trace(attacks::kAesSamplesPerTrace));
    }
    return sca::max_welch_t(fixed, random);
  };
  EXPECT_GT(make_populations(attacks::AesVariant::kTTable, 1), sca::kTvlaThreshold);
  EXPECT_LT(make_populations(attacks::AesVariant::kMasked, 2), sca::kTvlaThreshold + 2.0)
      << "masked implementation should show (near-)no first-order leakage";
}

TEST(Stats, CorrelateHypothesisRejectsEmptyTraceSet) {
  // Empty input must be a clear invalid_argument, not a division by zero
  // or an out_of_range from the first matrix access.
  const std::vector<sca::Trace> traces;
  const std::vector<double> hypothesis;
  try {
    sca::correlate_hypothesis(traces, hypothesis);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty trace set"), std::string::npos) << e.what();
  }
}

TEST(Stats, RaggedTracesRejectedByEveryEngine) {
  // A later trace shorter than the first must be rejected, not read past
  // its end: the engines size their per-point loops from the first trace.
  sca::TraceSet set;
  for (std::uint8_t t = 0; t < 8; ++t) {
    set.traces.push_back({1.0 * t, 2.0, 3.0 * t, 4.0});
    set.plaintexts.push_back({t, static_cast<std::uint8_t>(3 * t)});
  }
  set.traces[5] = sca::Trace{5.0, 2.0};  // moved in: its own two-sample buffer.
  const auto& traces = set.traces;
  EXPECT_THROW(sca::cpa_attack_key(set), std::invalid_argument);
  EXPECT_THROW(sca::dpa_attack_key(set), std::invalid_argument);
  EXPECT_THROW(sca::second_order_cpa_key(set), std::invalid_argument);
  EXPECT_THROW(sca::max_welch_t(traces, traces), std::invalid_argument);
  EXPECT_THROW(sca::max_dom(traces, traces), std::invalid_argument);
  EXPECT_THROW(sca::max_snr({traces, traces}), std::invalid_argument);
}

TEST(Recorder, ReserveHintPersistsAcrossTraces) {
  // The batched capture loop sets the hint once (to the fixed trace
  // length) and every subsequent begin_trace must reuse it instead of
  // re-growing the sample buffer from scratch.
  sca::PowerTraceRecorder rec({.model = sca::LeakageModel::kHammingWeight, .amplitude = 1.0,
                               .noise_sigma = 0.0, .hiding_noise_sigma = 0.0, .max_jitter = 0,
                               .seed = 3});
  rec.set_reserve_hint(64);
  EXPECT_EQ(rec.reserve_hint(), 64u);
  for (int t = 0; t < 3; ++t) {
    rec.begin_trace();
    rec.on_value(0xFF);
    (void)rec.end_trace();
    EXPECT_EQ(rec.reserve_hint(), 64u);
  }
}

// ---------------------------------------------------------------------------
// Streaming accumulators (sca/streaming.h): the one engine behind every
// statistic, checked against references that share none of its
// accumulation code — per-point Pearson and partition column means written
// out below, and closed-form fixtures. The contract, on all 16 key bytes:
// identical key-byte ranking, best/second scores within 1e-9 relative, at
// a zero and a 1e9 baseline and at any batch split.
// ---------------------------------------------------------------------------

constexpr double kRelTol = 1e-9;
constexpr double kDcOffset = 1e9 + 0.7;  // non-dyadic: partial sums must round.

/// Shifts every sample of a capture by a large DC baseline — the
/// adversarial numeric fixture every Offset* regression test uses.
sca::TraceSet with_offset(sca::TraceSet set, double offset) {
  for (auto& trace : set.traces) {
    for (double& x : trace) {
      x += offset;
    }
  }
  return set;
}

void expect_byte_results_close(const sca::ByteAttackResult& expected,
                               const sca::ByteAttackResult& actual, std::size_t byte) {
  EXPECT_EQ(expected.best_guess, actual.best_guess) << "byte " << byte;
  // Near-zero wrong-guess correlations are cancellation-dominated, so the
  // relative bound is asserted where it is well-conditioned: on the
  // ranking-relevant best/second scores.
  EXPECT_NEAR(expected.best_score, actual.best_score,
              kRelTol * std::max(1.0, std::abs(expected.best_score)))
      << "byte " << byte;
  EXPECT_NEAR(expected.second_score, actual.second_score,
              kRelTol * std::max(1.0, std::abs(expected.second_score)))
      << "byte " << byte;
}

void expect_key_results_close(const sca::KeyAttackResult& expected,
                              const sca::KeyAttackResult& actual) {
  EXPECT_EQ(expected.recovered, actual.recovered);
  for (std::size_t i = 0; i < 16; ++i) {
    expect_byte_results_close(expected.bytes[i], actual.bytes[i], i);
  }
}

/// Ranks `score` for `guess` into `result` the way the engines do.
void rank_guess(sca::ByteAttackResult& result, std::uint32_t guess, double score) {
  result.score_per_guess[guess] = score;
  if (score > result.best_score) {
    result.second_score = result.best_score;
    result.best_score = score;
    result.best_guess = static_cast<std::uint8_t>(guess);
  } else if (score > result.second_score) {
    result.second_score = score;
  }
}

/// The samples relative to the first trace, one row per trace. Two samples
/// on the same baseline subtract exactly, and Pearson correlation and the
/// difference of means are both shift-invariant.
std::vector<std::vector<double>> relative_samples(const sca::TraceSet& set) {
  std::vector<std::vector<double>> rows(set.size());
  for (std::size_t t = 0; t < set.size(); ++t) {
    rows[t].resize(set.samples_per_trace());
    for (std::size_t p = 0; p < rows[t].size(); ++p) {
      rows[t][p] = set.traces[t][p] - set.traces[0][p];
    }
  }
  return rows;
}

/// Reference CPA without class sums: per guess, the per-point Pearson
/// correlation of HW(S[pt ⊕ k]) with the samples. Every column is centred
/// and its sum of squares taken once per fixture, so a guess costs one
/// hypothesis dot product per point and all 16 bytes stay affordable.
sca::KeyAttackResult reference_cpa_key(const sca::TraceSet& set) {
  const auto& sbox = crypto::aes_sbox();
  const std::size_t n = set.size();
  auto dev = relative_samples(set);
  const std::size_t points = set.samples_per_trace();
  std::vector<double> sxx(points, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    double sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      sum += dev[t][p];
    }
    const double mean = sum / static_cast<double>(n);
    for (std::size_t t = 0; t < n; ++t) {
      dev[t][p] -= mean;
      sxx[p] += dev[t][p] * dev[t][p];
    }
  }
  sca::KeyAttackResult key;
  std::vector<double> h(n), sxy(points);
  for (std::size_t byte = 0; byte < 16; ++byte) {
    auto& result = key.bytes[byte];
    for (std::uint32_t guess = 0; guess < 256; ++guess) {
      double h_sum = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        h[t] = sca::hamming_weight(sbox[set.plaintexts[t][byte] ^ guess]);
        h_sum += h[t];
      }
      const double h_mean = h_sum / static_cast<double>(n);
      double shh = 0.0;
      std::fill(sxy.begin(), sxy.end(), 0.0);
      for (std::size_t t = 0; t < n; ++t) {
        const double hd = h[t] - h_mean;
        shh += hd * hd;
        for (std::size_t p = 0; p < points; ++p) {
          sxy[p] += hd * dev[t][p];
        }
      }
      double score = 0.0;
      for (std::size_t p = 0; p < points; ++p) {
        if (sxx[p] > 0.0 && shh > 0.0) {
          score = std::max(score, std::abs(sxy[p]) / std::sqrt(sxx[p] * shh));
        }
      }
      rank_guess(result, guess, score);
    }
    key.recovered[byte] = result.best_guess;
  }
  return key;
}

/// Reference single-bit DPA without class sums: per guess and point, the
/// difference of the column means of the traces whose predicted bit is 1
/// and of those whose bit is 0.
sca::KeyAttackResult reference_dpa_key(const sca::TraceSet& set, std::uint32_t bit) {
  const auto& sbox = crypto::aes_sbox();
  const auto rows = relative_samples(set);
  const std::size_t points = set.samples_per_trace();
  sca::KeyAttackResult key;
  std::vector<double> ones(points), zeros(points);
  for (std::size_t byte = 0; byte < 16; ++byte) {
    auto& result = key.bytes[byte];
    for (std::uint32_t guess = 0; guess < 256; ++guess) {
      std::fill(ones.begin(), ones.end(), 0.0);
      std::fill(zeros.begin(), zeros.end(), 0.0);
      std::size_t n_ones = 0;
      for (std::size_t t = 0; t < rows.size(); ++t) {
        const bool one = (sbox[set.plaintexts[t][byte] ^ guess] >> bit) & 1;
        n_ones += one ? 1 : 0;
        auto& sums = one ? ones : zeros;
        for (std::size_t p = 0; p < points; ++p) {
          sums[p] += rows[t][p];
        }
      }
      const std::size_t n_zeros = rows.size() - n_ones;
      double score = 0.0;
      for (std::size_t p = 0; p < points && n_ones > 0 && n_zeros > 0; ++p) {
        score = std::max(score, std::abs(ones[p] / static_cast<double>(n_ones) -
                                         zeros[p] / static_cast<double>(n_zeros)));
      }
      rank_guess(result, guess, score);
    }
    key.recovered[byte] = result.best_guess;
  }
  return key;
}

TEST(StreamingEquivalence, CpaMatchesMaterialized) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = 21;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 600, rec, 21);
  for (const double offset : {0.0, kDcOffset}) {
    const auto fixture = offset == 0.0 ? set : with_offset(set, offset);
    sca::StreamingCpa acc(fixture.samples_per_trace());
    acc.add_batch(fixture);
    EXPECT_EQ(acc.traces(), fixture.size());
    const auto reference = reference_cpa_key(fixture);
    EXPECT_EQ(reference.recovered, kKey);
    expect_key_results_close(reference, acc.finalize_key());
    expect_key_results_close(reference, sca::cpa_attack_key(fixture));
  }
}

TEST(StreamingEquivalence, DpaMatchesMaterialized) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.3;
  rec.seed = 22;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 800, rec, 22);
  for (const double offset : {0.0, kDcOffset}) {
    const auto fixture = offset == 0.0 ? set : with_offset(set, offset);
    sca::StreamingCpa acc(fixture.samples_per_trace());
    acc.add_batch(fixture);
    const auto reference = reference_dpa_key(fixture, 0);
    EXPECT_EQ(reference.recovered, kKey);
    expect_key_results_close(reference, acc.finalize_dpa_key(0));
    expect_key_results_close(reference, sca::dpa_attack_key(fixture, 0));
  }
}

TEST(StreamingEquivalence, SecondOrderMatchesMaterialized) {
  // The reference builds the centered-product traces explicitly and runs
  // per-point Pearson CPA on them; the accumulator never builds them.
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.25;
  rec.seed = 23;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kMasked, 1200, rec, 23);
  for (const double offset : {0.0, kDcOffset}) {
    const auto fixture = offset == 0.0 ? set : with_offset(set, offset);
    sca::StreamingSecondOrderCpa acc(fixture.samples_per_trace(), /*mask_sample=*/1);
    acc.add_batch(fixture);
    const auto reference = reference_cpa_key(sca::centered_product_traces(fixture, 1));
    EXPECT_EQ(reference.recovered, kKey);
    expect_key_results_close(reference, acc.finalize_key());
    expect_key_results_close(reference, sca::second_order_cpa_key(fixture, 1));
  }
}

TEST(StreamingEquivalence, WelchTAndDomMatchMaterialized) {
  // Closed form. Point 0 is the same in both populations (t = DoM = 0).
  // At point 1 population a alternates 0, 2 and b alternates 5, 7: each
  // has unbiased variance n/(n−1), so DoM = 5 and t = 5 / sqrt(2/(n−1)).
  // Small integers on the baseline are exact doubles, so these values are
  // exact on the stored samples at both baselines.
  constexpr int kN = 50;
  const double expected_t = 5.0 / std::sqrt(2.0 / (kN - 1));
  for (const double offset : {0.0, kDcOffset}) {
    std::vector<sca::Trace> a, b;
    sca::StreamingWelchT wt(2);
    for (int i = 0; i < kN; ++i) {
      const double wobble = i % 2 == 0 ? 0.0 : 2.0;
      a.push_back({offset + wobble, offset + wobble});
      b.push_back({offset + wobble, offset + 5.0 + wobble});
      wt.add(0, a.back());
      wt.add(1, b.back());
    }
    for (const double t : {wt.max_t(), sca::max_welch_t(a, b)}) {
      EXPECT_NEAR(t, expected_t, kRelTol * expected_t) << "offset " << offset;
    }
    for (const double dom : {wt.max_dom(), sca::max_dom(a, b)}) {
      EXPECT_NEAR(dom, 5.0, kRelTol * 5.0) << "offset " << offset;
    }
  }
}

TEST(StreamingEquivalence, SnrMatchesMaterialized) {
  // Closed form. Class c sits at c ± 1/2 at point 0 and at ± 1/2 at
  // point 1, alternating. Every class has unbiased variance
  // (n/4)/(n−1); the class means 0..K−1 have unbiased variance
  // K(K+1)/12 at point 0 and none at point 1.
  constexpr std::size_t kClasses = 8;
  constexpr int kN = 60;
  const double noise = (kN / 4.0) / (kN - 1);
  const double expected = (kClasses * (kClasses + 1) / 12.0) / noise;
  for (const double offset : {0.0, kDcOffset}) {
    std::vector<std::vector<sca::Trace>> classes(kClasses);
    sca::StreamingSnr snr(kClasses, 2);
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (int i = 0; i < kN; ++i) {
        const double wobble = i % 2 == 0 ? -0.5 : 0.5;
        const sca::Trace t = {offset + static_cast<double>(c) + wobble, offset + wobble};
        classes[c].push_back(t);
        snr.add(c, t);
      }
    }
    for (const double value : {snr.max_snr(), sca::max_snr(classes)}) {
      EXPECT_NEAR(value, expected, kRelTol * expected) << "offset " << offset;
    }
  }
}

// ---------------------------------------------------------------------------
// merge(): worker-count independence and determinism.
// ---------------------------------------------------------------------------

TEST(StreamingMerge, CpaWorkerSplitsAgree) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = 41;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, 512, rec, 41);
  const auto offset_set = with_offset(set, kDcOffset);
  const std::size_t points = set.samples_per_trace();
  constexpr std::size_t kBatch = 64;  // 8 batches.

  auto batch_partial = [&](const sca::TraceSet& fixture, std::size_t b) {
    sca::StreamingCpa acc(points);
    for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      acc.add(fixture.traces[i], fixture.plaintexts[i]);
    }
    return acc;
  };
  for (const auto* fixture : {&set, &offset_set}) {
    // workers=1: in-order single accumulator — the reference, and
    // bit-deterministic across repeats.
    sca::StreamingCpa one(points);
    one.add_batch(*fixture);
    sca::StreamingCpa one_again(points);
    one_again.add_batch(*fixture);
    const auto ref = one.finalize_key();
    {
      const auto again = one_again.finalize_key();
      for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(ref.bytes[i].best_score, again.bytes[i].best_score) << "not bit-deterministic";
      }
    }
    // workers=2 and workers=8: merge partials in batch-index order.
    for (const std::size_t workers : {2u, 8u}) {
      sca::StreamingCpa merged(points);
      const std::size_t per_worker = 8 / workers;
      for (std::size_t w = 0; w < workers; ++w) {
        sca::StreamingCpa partial(points);
        for (std::size_t b = w * per_worker; b < (w + 1) * per_worker; ++b) {
          partial.merge(batch_partial(*fixture, b));
        }
        merged.merge(partial);
      }
      EXPECT_EQ(merged.traces(), fixture->size());
      expect_key_results_close(ref, merged.finalize_key());
    }
  }
}

TEST(StreamingMerge, SecondOrderWorkerSplitsAgree) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.25;
  rec.seed = 42;
  const auto set = attacks::collect_aes_traces(kKey, attacks::AesVariant::kMasked, 512, rec, 42);
  const auto offset_set = with_offset(set, kDcOffset);
  const std::size_t points = set.samples_per_trace();
  constexpr std::size_t kBatch = 64;

  for (const auto* fixture : {&set, &offset_set}) {
    sca::StreamingSecondOrderCpa ref_acc(points, 1);
    ref_acc.add_batch(*fixture);
    const auto ref = ref_acc.finalize_key();
    for (const std::size_t workers : {2u, 8u}) {
      sca::StreamingSecondOrderCpa merged(points, 1);
      const std::size_t per_worker = 8 / workers;
      for (std::size_t w = 0; w < workers; ++w) {
        sca::StreamingSecondOrderCpa partial(points, 1);
        for (std::size_t b = w * per_worker; b < (w + 1) * per_worker; ++b) {
          for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
            partial.add(fixture->traces[i], fixture->plaintexts[i]);
          }
        }
        merged.merge(partial);
      }
      expect_key_results_close(ref, merged.finalize_key());
    }
  }
}

TEST(StreamingMerge, PopulationMergeIsAssociative) {
  // (a ⊕ b) ⊕ c vs. a ⊕ (b ⊕ c), different shift bases on every partial
  // (offset fixture), must agree to 1e-9 relative on mean and variance.
  hwsec::sim::Rng rng(43);
  std::vector<sca::Trace> chunks[3];
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 50; ++i) {
      chunks[c].push_back({kDcOffset + rng.gaussian(static_cast<double>(c), 1.0)});
    }
  }
  auto accumulate = [](const std::vector<sca::Trace>& traces) {
    sca::PopulationAccumulator acc(1);
    for (const auto& t : traces) {
      acc.add(t);
    }
    return acc;
  };
  sca::PopulationAccumulator left = accumulate(chunks[0]);
  left.merge(accumulate(chunks[1]));
  left.merge(accumulate(chunks[2]));
  sca::PopulationAccumulator bc = accumulate(chunks[1]);
  bc.merge(accumulate(chunks[2]));
  sca::PopulationAccumulator right = accumulate(chunks[0]);
  right.merge(bc);
  ASSERT_EQ(left.traces(), 150u);
  ASSERT_EQ(right.traces(), 150u);
  EXPECT_NEAR(left.mean(0), right.mean(0), kRelTol * std::abs(left.mean(0)));
  EXPECT_NEAR(left.variance(0), right.variance(0), kRelTol * std::max(1.0, left.variance(0)));
}

TEST(StreamingMerge, MismatchedGeometryThrows) {
  sca::StreamingCpa a(4), b(8);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  sca::StreamingCpa acc(4);
  const std::array<std::uint8_t, 16> pt{};
  const std::vector<double> wrong(5, 0.0);
  EXPECT_THROW(acc.add(wrong, pt), std::invalid_argument);
  EXPECT_THROW(acc.finalize_byte(0), std::invalid_argument);  // < 4 traces.
  sca::StreamingSecondOrderCpa so_a(4, 1), so_b(4, 2);
  EXPECT_THROW(so_a.merge(so_b), std::invalid_argument);  // mask sample differs.
}

// ---------------------------------------------------------------------------
// Batched capture (core/capture.h): the delivered stream must be the
// materialized parallel collector's, batch for batch.
// ---------------------------------------------------------------------------

TEST(BatchedCapture, StreamMatchesParallelCollector) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = 51;
  constexpr std::size_t kTotal = 300;  // ragged tail: 4 full batches + 44.
  const auto reference = attacks::collect_aes_traces_parallel(
      kKey, attacks::AesVariant::kTTable, kTotal, rec, /*seed=*/51, /*batch=*/64);
  for (const unsigned workers : {1u, 2u}) {
    hwsec::core::BatchedCaptureConfig config;
    config.seed = 51;
    config.total_traces = kTotal;
    config.workers = workers;
    sca::TraceSet assembled;
    std::size_t last_batch = 0;
    bool in_order = true;
    const std::size_t captured = hwsec::core::capture_aes_power_batches(
        config, kKey, attacks::AesVariant::kTTable, rec,
        [&](std::size_t batch_index, const sca::TraceSet& batch) {
          in_order = in_order && (assembled.traces.empty() || batch_index == last_batch + 1);
          last_batch = batch_index;
          for (std::size_t i = 0; i < batch.size(); ++i) {
            assembled.traces.push_back(batch.traces[i]);
            assembled.plaintexts.push_back(batch.plaintexts[i]);
            assembled.ciphertexts.push_back(batch.ciphertexts[i]);
          }
        });
    EXPECT_EQ(captured, kTotal);
    EXPECT_TRUE(in_order);
    EXPECT_EQ(assembled.traces, reference.traces) << "workers=" << workers;
    EXPECT_EQ(assembled.plaintexts, reference.plaintexts);
    EXPECT_EQ(assembled.ciphertexts, reference.ciphertexts);
  }
}

TEST(BatchedCapture, StreamingCampaignMatchesMaterializedCpa) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 1.0;
  rec.seed = 52;
  constexpr std::size_t kTotal = 400;
  const auto set = attacks::collect_aes_traces_parallel(kKey, attacks::AesVariant::kTTable,
                                                        kTotal, rec, /*seed=*/52);
  hwsec::core::BatchedCaptureConfig config;
  config.seed = 52;
  config.total_traces = kTotal;
  const auto acc =
      hwsec::core::run_streaming_cpa_campaign(config, kKey, attacks::AesVariant::kTTable, rec);
  EXPECT_EQ(acc.traces(), kTotal);
  expect_key_results_close(sca::cpa_attack_key(set), acc.finalize_key());
}

// ---------------------------------------------------------------------------
// Chunked trace store (sca/trace_store.h): exact round-trip, corruption
// rejected with a clear error instead of a crash or a silent short read.
// ---------------------------------------------------------------------------

/// Scratch store directory, removed on scope exit.
struct TempStoreDir {
  std::filesystem::path path;
  explicit TempStoreDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             (name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempStoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

sca::TraceSet small_capture(std::uint64_t seed, std::size_t count = 50) {
  sca::RecorderConfig rec;
  rec.noise_sigma = 0.5;
  rec.seed = seed;
  return attacks::collect_aes_traces(kKey, attacks::AesVariant::kTTable, count, rec, seed);
}

TEST(TraceStore, RoundTripIsExact) {
  TempStoreDir dir("hwsec-store-roundtrip");
  const auto set = small_capture(61);
  {
    // Small chunks so the round-trip crosses several chunk boundaries.
    sca::TraceStoreWriter writer(dir.str(), set.samples_per_trace(), /*traces_per_chunk=*/16);
    writer.append_batch(set);
    writer.finalize();
  }
  const auto loaded = sca::load_trace_set(dir.str());
  EXPECT_EQ(loaded.traces, set.traces);  // doubles survive bit for bit.
  EXPECT_EQ(loaded.plaintexts, set.plaintexts);
  EXPECT_EQ(loaded.ciphertexts, set.ciphertexts);

  sca::TraceStoreReader reader(dir.str());
  EXPECT_EQ(reader.size(), set.size());
  EXPECT_EQ(reader.samples_per_trace(), set.samples_per_trace());
  std::size_t visited = 0;
  reader.replay([&](const sca::TraceStoreReader::Record& r) {
    EXPECT_EQ(r.index, visited);
    ++visited;
  });
  EXPECT_EQ(visited, set.size());
}

TEST(TraceStore, ReplayFeedsStreamingCpaIdentically) {
  TempStoreDir dir("hwsec-store-replay");
  const auto set = small_capture(62, 200);
  sca::StreamingCpa direct(set.samples_per_trace());
  direct.add_batch(set);
  {
    sca::TraceStoreWriter writer(dir.str(), set.samples_per_trace());
    writer.append_batch(set);
    writer.finalize();
  }
  sca::StreamingCpa replayed(set.samples_per_trace());
  sca::TraceStoreReader reader(dir.str());
  reader.replay([&](const sca::TraceStoreReader::Record& r) {
    replayed.add(r.samples, r.plaintext);
  });
  // Same bytes in the same order: the finalized scores are bit-equal.
  const auto a = direct.finalize_key();
  const auto b = replayed.finalize_key();
  EXPECT_EQ(a.recovered, b.recovered);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.bytes[i].best_score, b.bytes[i].best_score);
  }
}

TEST(TraceStore, MissingManifestReadsAsNotAStore) {
  TempStoreDir dir("hwsec-store-missing");
  std::filesystem::create_directories(dir.path);
  EXPECT_THROW(sca::TraceStoreReader reader(dir.str()), std::runtime_error);
}

TEST(TraceStore, TruncatedChunkIsRejected) {
  TempStoreDir dir("hwsec-store-truncated");
  const auto set = small_capture(63);
  {
    sca::TraceStoreWriter writer(dir.str(), set.samples_per_trace(), 16);
    writer.append_batch(set);
    writer.finalize();
  }
  const auto chunk = dir.path / "chunk-000001.hwt";
  ASSERT_TRUE(std::filesystem::exists(chunk));
  std::filesystem::resize_file(chunk, std::filesystem::file_size(chunk) / 2);
  sca::TraceStoreReader reader(dir.str());  // manifest itself is intact.
  EXPECT_THROW(reader.replay([](const sca::TraceStoreReader::Record&) {}), std::runtime_error);
}

TEST(TraceStore, BitFlippedChunkFailsChecksum) {
  TempStoreDir dir("hwsec-store-corrupt");
  const auto set = small_capture(64);
  {
    sca::TraceStoreWriter writer(dir.str(), set.samples_per_trace(), 16);
    writer.append_batch(set);
    writer.finalize();
  }
  const auto chunk = dir.path / "chunk-000000.hwt";
  {
    std::fstream f(chunk, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(chunk)) - 9);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  sca::TraceStoreReader reader(dir.str());
  EXPECT_THROW(reader.replay([](const sca::TraceStoreReader::Record&) {}), std::runtime_error);
}

TEST(TraceStore, CorruptManifestIsRejected) {
  TempStoreDir dir("hwsec-store-badmanifest");
  const auto set = small_capture(65);
  {
    sca::TraceStoreWriter writer(dir.str(), set.samples_per_trace());
    writer.append_batch(set);
    writer.finalize();
  }
  {
    std::fstream f(dir.path / "manifest", std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.write("XXXX", 4);  // clobber the magic.
  }
  EXPECT_THROW(sca::TraceStoreReader reader(dir.str()), std::runtime_error);
}

}  // namespace
