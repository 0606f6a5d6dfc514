// Campaign service (hwsecd) suite: the JSON utilities and their metrics
// regression, the versioned spec codec, the service payload codecs, the
// tenant-scoped checkpoint identity, SIGTERM escalation, and the daemon
// itself — scheduling, bit-identity against direct runs, and the
// disconnect/reattach contract.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/obs/metrics.h"
#include "core/resilience/checkpoint.h"
#include "core/resilience/resilient.h"
#include "core/service/catalog.h"
#include "core/service/client.h"
#include "core/service/daemon.h"
#include "core/service/protocol.h"
#include "core/service/spec.h"
#include "core/shard/wire.h"
#include "core/shutdown.h"
#include "sim/thread_pool.h"

namespace core = hwsec::core;
namespace service = hwsec::core::service;
namespace shard = hwsec::core::shard;
namespace obs = hwsec::obs;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HWSEC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HWSEC_SANITIZED 1
#endif
#endif

namespace {

std::string temp_path(const std::string& name, const std::string& suffix) {
  const char* dir = std::getenv("HWSEC_CHECKPOINT_DIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  return base + "/" + name + "." + std::to_string(::getpid()) + suffix;
}

/// Unix socket paths have a ~107-byte limit, so always anchor in /tmp.
std::string socket_path(const std::string& name) {
  return "/tmp/hwsec_" + name + "." + std::to_string(::getpid()) + ".sock";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- json_escape + parser ----------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(core::json_escape("plain"), "plain");
  EXPECT_EQ(core::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(core::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(core::json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(core::json_escape(std::string("a\x01z")), "a\\u0001z");
}

// Satellite #1 regression: MetricsRegistry::to_json once interpolated
// metric names verbatim, so a name holding a quote or newline produced an
// invalid JSON document. Hostile names must now come out escaped and the
// whole scrape must parse.
TEST(JsonEscape, HostileMetricNamesProduceParseableScrape) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("evil\"quote").add(3);
  registry.counter("evil\nnewline").add(1);
  registry.gauge("evil\\backslash\tgauge").set(-7);
  const std::string json = registry.to_json();
  core::JsonValue doc;
  std::string error;
  ASSERT_TRUE(core::parse_json(json, doc, &error)) << error << "\n" << json;
  const core::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const core::JsonValue* quoted = counters->find("evil\"quote");
  ASSERT_NE(quoted, nullptr) << "escaped name must decode back to the original";
  std::uint64_t value = 0;
  ASSERT_TRUE(quoted->as_u64(value));
  EXPECT_EQ(value, 3u);
  ASSERT_NE(counters->find("evil\nnewline"), nullptr);
  const core::JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("evil\\backslash\tgauge"), nullptr);
}

TEST(JsonParser, U64ValuesRoundTripExactly) {
  core::JsonValue doc;
  ASSERT_TRUE(core::parse_json("{\"seed\": 18446744073709551615}", doc));
  std::uint64_t seed = 0;
  ASSERT_TRUE(doc.find("seed")->as_u64(seed));
  EXPECT_EQ(seed, 18446744073709551615ull);  // a double would mangle this.
}

TEST(JsonParser, RejectsMalformedInput) {
  core::JsonValue doc;
  std::string error;
  EXPECT_FALSE(core::parse_json("{\"a\": }", doc, &error));
  EXPECT_FALSE(core::parse_json("{} trailing", doc, &error));
  EXPECT_FALSE(core::parse_json("{\"a\": \"\\x\"}", doc, &error));
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  EXPECT_FALSE(core::parse_json(deep, doc, &error));
  EXPECT_TRUE(contains(error, "deep")) << error;
}

// ---- spec codec --------------------------------------------------------

TEST(SpecCodec, EncodeDecodeRoundTrip) {
  service::CampaignSpec spec;
  spec.tenant = "alice";
  spec.name = "nightly.sweep-1";
  spec.kind = "mix";
  spec.seed = 0xFFFFFFFFFFFFFFF5ull;
  spec.trials = 123;
  spec.workers = 4;
  spec.processes = 2;
  spec.policy = core::FailurePolicy::kRetry;
  spec.max_attempts = 5;
  spec.trial_cycle_budget = 9999;
  spec.trial_delay_us = 7;
  spec.priority = -3;
  service::CampaignSpec decoded;
  std::string error;
  ASSERT_TRUE(service::decode_spec(service::encode_spec(spec), decoded, error)) << error;
  EXPECT_EQ(decoded.tenant, spec.tenant);
  EXPECT_EQ(decoded.name, spec.name);
  EXPECT_EQ(decoded.kind, spec.kind);
  EXPECT_EQ(decoded.seed, spec.seed);  // u64-exact through JSON.
  EXPECT_EQ(decoded.trials, spec.trials);
  EXPECT_EQ(decoded.workers, spec.workers);
  EXPECT_EQ(decoded.processes, spec.processes);
  EXPECT_EQ(decoded.policy, spec.policy);
  EXPECT_EQ(decoded.max_attempts, spec.max_attempts);
  EXPECT_EQ(decoded.trial_cycle_budget, spec.trial_cycle_budget);
  EXPECT_EQ(decoded.trial_delay_us, spec.trial_delay_us);
  EXPECT_EQ(decoded.priority, spec.priority);
}

TEST(SpecCodec, UnknownVersionRejectedNamingBoth) {
  service::CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(service::decode_spec(
      "{\"hwsec_spec_version\": 99, \"tenant\": \"a\", \"kind\": \"mix\", \"trials\": 1}",
      spec, error));
  EXPECT_TRUE(contains(error, "99")) << error;
  EXPECT_TRUE(contains(error, "1")) << error;
}

TEST(SpecCodec, UnknownKeysAreIgnoredForwardCompatibly) {
  service::CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(service::decode_spec(
      "{\"hwsec_spec_version\": 1, \"tenant\": \"a\", \"kind\": \"mix\", \"trials\": 2, "
      "\"future_knob\": {\"nested\": [1, 2]}}",
      spec, error))
      << error;
  EXPECT_EQ(spec.trials, 2u);
}

TEST(SpecCodec, HostileIdentifiersRejected) {
  service::CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(service::decode_spec(
      "{\"hwsec_spec_version\": 1, \"tenant\": \"../../etc\", \"kind\": \"mix\", "
      "\"trials\": 1}",
      spec, error));
  EXPECT_FALSE(service::decode_spec(
      "{\"hwsec_spec_version\": 1, \"tenant\": \"\", \"kind\": \"mix\", \"trials\": 1}",
      spec, error));
  EXPECT_FALSE(service::valid_identifier("a b"));
  EXPECT_FALSE(service::valid_identifier(std::string(65, 'a')));
  EXPECT_TRUE(service::valid_identifier("team-7.nightly_run"));
}

// ---- service payload codecs --------------------------------------------

TEST(ProtocolCodec, PayloadRoundTrips) {
  service::SubmittedPayload ack{true, "alice-7", "ok"};
  service::SubmittedPayload ack2;
  ASSERT_TRUE(service::decode_submitted(service::encode_submitted(ack), ack2));
  EXPECT_EQ(ack2.accepted, true);
  EXPECT_EQ(ack2.job_id, "alice-7");
  EXPECT_EQ(ack2.message, "ok");

  service::JobUpdatePayload up{"alice-7", service::JobState::kRunning, 3, 10};
  service::JobUpdatePayload up2;
  ASSERT_TRUE(service::decode_job_update(service::encode_job_update(up), up2));
  EXPECT_EQ(up2.job_id, "alice-7");
  EXPECT_EQ(up2.state, service::JobState::kRunning);
  EXPECT_EQ(up2.done, 3u);
  EXPECT_EQ(up2.total, 10u);

  service::JobResultPayload res{"alice-7", service::JobState::kDone, 0xDEADBEEF, "blob", ""};
  service::JobResultPayload res2;
  ASSERT_TRUE(service::decode_job_result(service::encode_job_result(res), res2));
  EXPECT_EQ(res2.digest, 0xDEADBEEFu);
  EXPECT_EQ(res2.records, "blob");

  // Truncated payloads must fail cleanly, never over-read.
  const std::string enc = service::encode_job_update(up);
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(service::decode_job_update(enc.substr(0, cut), up2)) << "cut=" << cut;
  }
}

TEST(ProtocolCodec, OutcomeStreamRoundTripsAndResumeKeepsBytes) {
  service::CampaignSpec spec;
  spec.tenant = "alice";
  spec.kind = "mix";
  spec.seed = 77;
  spec.trials = 12;
  spec.workers = 2;
  const std::string path = temp_path("svc_wire", ".ckpt");
  std::remove(path.c_str());
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  res.checkpoint_every = 1;
  const auto first = service::run_spec(spec, res);
  const std::string blob = service::encode_outcomes(first);
  std::vector<service::OutcomeRecord> decoded;
  ASSERT_TRUE(service::decode_outcomes(blob, decoded));
  ASSERT_EQ(decoded.size(), 12u);
  for (const auto& rec : decoded) {
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.payload.size(), sizeof(service::ServiceTrialResult));
  }
  // A fully restored re-run must encode to the same bytes: from_checkpoint
  // is execution history, not part of the result.
  const auto resumed = service::run_spec(spec, res);
  EXPECT_TRUE(resumed[0].from_checkpoint);
  EXPECT_EQ(service::encode_outcomes(resumed), blob);
  EXPECT_EQ(service::fnv1a64(service::encode_outcomes(resumed)), service::fnv1a64(blob));
  std::remove(path.c_str());
}

// The result blob is what hwsecd clients digest and compare across
// machines and builds, so its bytes are pinned: any change to the record
// layout (or to how an outcome becomes a record) fails here first.
TEST(ProtocolCodec, OutcomeBlobBytesArePinned) {
  service::ServiceOutcomes outcomes(3);
  outcomes[0].result = service::ServiceTrialResult{0x1122334455667788ull, 0x99};
  outcomes[0].attempts = 2;
  outcomes[1].error = hwsec::SimError(hwsec::ErrorKind::kTimedOut,
                                      "cycle budget of 5000 exhausted");
  outcomes[1].error->with_machine("embedded");
  outcomes[2].skipped = true;
  const std::string blob = service::encode_outcomes(outcomes);
  EXPECT_EQ(blob.size(), 123u);
  EXPECT_EQ(service::fnv1a64(blob), 0xc72bfc9d1b03afa0ull);

  std::vector<service::OutcomeRecord> decoded;
  ASSERT_TRUE(service::decode_outcomes(blob, decoded));
  ASSERT_EQ(decoded.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].index, i);
    EXPECT_EQ(decoded[i].skipped, i == 2);
  }
  EXPECT_TRUE(decoded[0].ok);
  EXPECT_EQ(decoded[0].attempts, 2u);
  service::ServiceTrialResult r0;
  ASSERT_EQ(decoded[0].payload.size(), sizeof(r0));
  std::memcpy(&r0, decoded[0].payload.data(), sizeof(r0));
  EXPECT_EQ(r0.lo, 0x1122334455667788ull);
  EXPECT_EQ(r0.hi, 0x99u);
  EXPECT_FALSE(decoded[1].ok);
  EXPECT_EQ(decoded[1].attempts, 1u);
  EXPECT_EQ(static_cast<hwsec::ErrorKind>(decoded[1].kind), hwsec::ErrorKind::kTimedOut);
  EXPECT_EQ(decoded[1].detail, "cycle budget of 5000 exhausted");
  EXPECT_EQ(decoded[1].machine, "embedded");
  EXPECT_FALSE(decoded[2].ok);
  EXPECT_EQ(decoded[2].attempts, 1u);
  EXPECT_EQ(decoded[2].kind, 0u);
  EXPECT_TRUE(decoded[2].payload.empty());
  EXPECT_TRUE(decoded[2].detail.empty());
  EXPECT_TRUE(decoded[2].machine.empty());
}

// A corrupt/hostile result blob claiming 2^32 records in a handful of
// bytes must be rejected up front, not turned into a hundreds-of-GB
// reserve() in the client.
TEST(ProtocolCodec, OutcomeCountBeyondBlobSizeRejected) {
  std::vector<service::OutcomeRecord> out;
  for (const std::uint64_t count :
       {std::uint64_t{1} << 32, std::uint64_t{0xFFFFFFFFFFFFFFFFull}, std::uint64_t{3}}) {
    std::string blob;
    shard::put_u64(blob, count);
    blob.append(16, '\0');  // far too few bytes for even `3` records.
    EXPECT_FALSE(service::decode_outcomes(blob, out)) << "count=" << count;
  }
}

// ---- frame payload caps (untrusted transports) --------------------------

namespace {

std::string frame_header(std::uint32_t payload_length) {
  std::string header;
  shard::put_u32(header, shard::kWireMagic);
  shard::put_u16(header, shard::kWireVersion);
  shard::put_u16(header, static_cast<std::uint16_t>(shard::FrameType::kSubmit));
  shard::put_u32(header, payload_length);
  return header;
}

}  // namespace

// A 12-byte header claiming a 4 GiB payload must be rejected before any
// payload allocation — this is what a hostile client aims at the daemon.
TEST(WireGuards, OversizedFrameHeaderRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string header = frame_header(0xFFFFFFFFu);
  ASSERT_EQ(::write(fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  shard::Frame frame;
  // Returns immediately (no payload bytes were ever written): the length
  // check precedes the payload read, both at the daemon's request cap and
  // at the codec-level default.
  EXPECT_FALSE(shard::read_frame(fds[0], frame, service::kMaxRequestPayload));
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  EXPECT_FALSE(shard::read_frame(fds[0], frame));
  ::close(fds[0]);
  ::close(fds[1]);

  // Control: a payload at the cap still round-trips.
  ASSERT_EQ(::pipe(fds), 0);
  shard::Frame small;
  small.type = shard::FrameType::kSubmit;
  small.payload = "spec";
  ASSERT_TRUE(shard::write_frame(fds[1], small));
  EXPECT_TRUE(shard::read_frame(fds[0], frame, 4));
  EXPECT_EQ(frame.payload, "spec");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireGuards, FrameBufferPoisonsOnOversizedLength) {
  shard::FrameBuffer buf(16);
  const std::string header = frame_header(17);
  buf.append(header.data(), header.size());
  shard::Frame out;
  EXPECT_FALSE(buf.next(out));
  EXPECT_TRUE(buf.corrupt());

  shard::FrameBuffer ok(16);
  shard::Frame inbound;
  inbound.type = shard::FrameType::kSubmit;
  inbound.payload = "0123456789abcdef";  // exactly the cap.
  const std::string at_cap = frame_header(16) + inbound.payload;
  ok.append(at_cap.data(), at_cap.size());
  EXPECT_TRUE(ok.next(out));
  EXPECT_EQ(out.payload, inbound.payload);
  EXPECT_FALSE(ok.corrupt());
}

// ---- ThreadPool constructor exception safety ----------------------------

// A spec-driven worker count that exhausts the host must surface as an
// exception, not a std::terminate from destroying joinable threads
// mid-construction (the daemon shares one process across every tenant).
TEST(ThreadPoolGuard, ConstructorFailureThrowsInsteadOfTerminating) {
#ifdef HWSEC_SANITIZED
  GTEST_SKIP() << "rlimit-based thread exhaustion is unreliable under sanitizers";
#else
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // ~8 MiB of reserved stack per thread: 100k threads cannot fit in a
    // 1 GiB address space, so pthread_create fails partway through.
    struct rlimit lim{};
    lim.rlim_cur = lim.rlim_max = 1ull << 30;
    ::setrlimit(RLIMIT_AS, &lim);
    try {
      hwsec::sim::ThreadPool pool(100000);
    } catch (const std::exception&) {
      _exit(0);  // clean throw; spawned threads were joined.
    }
    _exit(1);  // construction unexpectedly succeeded.
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "ThreadPool constructor crashed (std::terminate?)";
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

// ---- checkpoint scope (satellite #2) -----------------------------------

TEST(CheckpointScope, DifferentScopeRejectsSameConfigFile) {
  const std::string path = temp_path("scope_reject", ".ckpt");
  std::remove(path.c_str());
  core::CheckpointFile alice(42, 8, 16, "alice/j1");
  core::CheckpointRecord rec;
  rec.ok = true;
  rec.payload.assign(16, '\x5a');
  alice.record(0, rec);
  ASSERT_TRUE(alice.save(path));

  core::CheckpointFile bob(42, 8, 16, "bob/j2");  // identical config, other owner.
  EXPECT_FALSE(bob.load(path)) << "cross-tenant checkpoint must be rejected";
  EXPECT_EQ(bob.size(), 0u);

  core::CheckpointFile alice2(42, 8, 16, "alice/j1");
  EXPECT_TRUE(alice2.load(path));
  EXPECT_EQ(alice2.size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointScope, EmptyScopeKeepsLegacyHeader) {
  const std::string path = temp_path("scope_legacy", ".ckpt");
  core::CheckpointFile file(7, 3, 8);
  core::CheckpointRecord rec;
  rec.ok = true;
  rec.payload.assign(8, '\x11');
  file.record(2, rec);
  ASSERT_TRUE(file.save(path));
  // The empty scope is the config-only identity: it reloads unscoped, and
  // a scoped owner of the same config never picks it up.
  core::CheckpointFile reload(7, 3, 8);
  EXPECT_TRUE(reload.load(path));
  EXPECT_EQ(reload.size(), 1u);
  core::CheckpointFile scoped(7, 3, 8, "alice/j1");
  EXPECT_FALSE(scoped.load(path));
  EXPECT_EQ(scoped.size(), 0u);
  // A valid v2 text checkpoint left behind by an older build is discarded
  // (with a warning), never misparsed: its trials re-run from zero.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "hwsec-checkpoint v2 seed=7 trials=3 result_bytes=8\nend 0 8c76a367e962392a\n";
  }
  core::CheckpointFile legacy(7, 3, 8);
  EXPECT_FALSE(legacy.load(path));
  EXPECT_EQ(legacy.size(), 0u);
  std::remove(path.c_str());
}

// The full-stack collision regression: two tenants running byte-identical
// specs against the same checkpoint path must never cross-resume — tenant
// B re-executes every trial instead of inheriting tenant A's slots.
TEST(CheckpointScope, IdenticalSpecsFromTwoTenantsNeverCrossResume) {
  const std::string path = temp_path("scope_tenants", ".ckpt");
  std::remove(path.c_str());
  const core::CampaignConfig cfg{.seed = 99, .trials = 10, .workers = 2};
  std::atomic<int> executed{0};
  const std::function<std::uint64_t(const core::TrialContext&)> body =
      [&executed](const core::TrialContext& ctx) {
        executed.fetch_add(1);
        return ctx.seed ^ 0xABCD;
      };
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  res.checkpoint_scope = "alice/job-1";
  const auto first = core::run_campaign_resilient<std::uint64_t>(cfg, res, body);
  EXPECT_EQ(executed.load(), 10);

  executed.store(0);
  res.checkpoint_scope = "bob/job-2";
  const auto second = core::run_campaign_resilient<std::uint64_t>(cfg, res, body);
  EXPECT_EQ(executed.load(), 10) << "tenant B resumed tenant A's checkpoint";
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_FALSE(second[i].from_checkpoint) << "slot " << i;
    EXPECT_EQ(second[i].value(), first[i].value()) << "slot " << i;
  }
  std::remove(path.c_str());
}

// ---- shutdown escalation (satellite #3) --------------------------------

TEST(ShutdownEscalation, FirstSignalOnlySetsTheFlag) {
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    core::install_graceful_shutdown();
    raise(SIGTERM);
    // Still alive: the first signal must only set the flag.
    _exit(core::shutdown_requested() && core::shutdown_signal() == SIGTERM &&
                  core::shutdown_exit_code() == 128 + SIGTERM
              ? 0
              : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child must survive the first SIGTERM";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ShutdownEscalation, SecondSignalAbortsImmediatelyWith128PlusSig) {
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    core::install_graceful_shutdown();
    raise(SIGTERM);  // drain request: flag only.
    raise(SIGTERM);  // escalation: _exit(143) straight from the handler.
    _exit(7);        // must be unreachable.
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM) << "second signal must abort immediately";
}

TEST(ShutdownEscalation, SecondSignalMayDifferFromTheFirst) {
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    core::install_graceful_shutdown();
    raise(SIGTERM);
    raise(SIGINT);  // operator mashing Ctrl-C after a SIGTERM drain.
    _exit(7);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);
}

// ---- the daemon itself -------------------------------------------------

class DaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(service::ServiceConfig config = {}) {
    socket_ = socket_path(::testing::UnitTest::GetInstance()->current_test_info()->name());
    config.unix_socket = socket_;
    if (config.progress_interval.count() == 50) {
      config.progress_interval = std::chrono::milliseconds(10);
    }
    daemon_ = std::make_unique<service::Daemon>(config);
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      daemon_->stop();
    }
    if (!socket_.empty()) {
      std::remove(socket_.c_str());
    }
  }

  service::ServiceClient MakeClient() {
    service::ClientConfig config;
    config.unix_socket = socket_;
    return service::ServiceClient(config);
  }

  static std::string SpecJson(const std::string& tenant, const std::string& kind,
                              std::uint64_t seed, std::uint64_t trials,
                              std::uint64_t delay_us = 0, std::uint32_t processes = 0) {
    service::CampaignSpec spec;
    spec.tenant = tenant;
    spec.kind = kind;
    spec.seed = seed;
    spec.trials = trials;
    spec.workers = 2;
    spec.trial_delay_us = delay_us;
    spec.processes = processes;
    return service::encode_spec(spec);
  }

  static std::string DirectRecords(const std::string& spec_json) {
    service::CampaignSpec spec;
    std::string error;
    EXPECT_TRUE(service::decode_spec(spec_json, spec, error)) << error;
    // Daemon-side sharded execution is asserted against the plain
    // in-process engine: the shard layer's own contract is that both are
    // bit-identical.
    spec.processes = 0;
    return service::encode_outcomes(service::run_spec(spec, core::ResilienceConfig{}));
  }

  std::string socket_;
  std::unique_ptr<service::Daemon> daemon_;
};

// Acceptance criterion: two concurrent tenant campaigns, each bit-identical
// to a direct run_campaign_resilient invocation at the same seed.
TEST_F(DaemonTest, TwoConcurrentTenantsMatchDirectRunsBitForBit) {
  StartDaemon();
  const std::string spec_a = SpecJson("alice", "mix", 42, 30);
  const std::string spec_b = SpecJson("bob", "mix", 43, 30);

  auto client_a = MakeClient();
  auto client_b = MakeClient();
  service::SubmittedPayload ack_a, ack_b;
  std::string error;
  ASSERT_TRUE(client_a.submit(spec_a, ack_a, error)) << error;
  ASSERT_TRUE(ack_a.accepted) << ack_a.message;
  ASSERT_TRUE(client_b.submit(spec_b, ack_b, error)) << error;
  ASSERT_TRUE(ack_b.accepted) << ack_b.message;
  EXPECT_NE(ack_a.job_id, ack_b.job_id);

  service::JobResultPayload result_a, result_b;
  ASSERT_TRUE(client_a.wait_result(result_a, error)) << error;
  ASSERT_TRUE(client_b.wait_result(result_b, error)) << error;
  EXPECT_EQ(result_a.state, service::JobState::kDone);
  EXPECT_EQ(result_b.state, service::JobState::kDone);

  const std::string direct_a = DirectRecords(spec_a);
  const std::string direct_b = DirectRecords(spec_b);
  EXPECT_EQ(result_a.records, direct_a) << "daemon result diverged from direct run";
  EXPECT_EQ(result_b.records, direct_b);
  EXPECT_EQ(result_a.digest, service::fnv1a64(direct_a));
  EXPECT_EQ(result_b.digest, service::fnv1a64(direct_b));
}

// Acceptance criterion (satellite #4): a client disconnect mid-run must
// not kill the job; a later attach by job id receives the terminal result,
// bit-identical to an uninterrupted direct run.
TEST_F(DaemonTest, DisconnectMidRunThenReattachByJobId) {
  StartDaemon();
  // ~2 ms per trial on 2 workers => ~60 ms of runtime to disconnect into.
  const std::string spec = SpecJson("alice", "mix", 777, 60, 2000);

  std::string job_id;
  {
    auto client = MakeClient();
    service::SubmittedPayload ack;
    std::string error;
    ASSERT_TRUE(client.submit(spec, ack, error)) << error;
    ASSERT_TRUE(ack.accepted) << ack.message;
    job_id = ack.job_id;
    client.disconnect();  // the client "crashes" while the job runs.
  }

  auto client = MakeClient();
  service::SubmittedPayload ack;
  service::JobResultPayload result;
  std::string error;
  ASSERT_TRUE(client.attach(job_id, ack, error)) << error;
  ASSERT_TRUE(ack.accepted) << ack.message;
  EXPECT_EQ(ack.job_id, job_id);
  ASSERT_TRUE(client.wait_result(result, error)) << error;
  EXPECT_EQ(result.state, service::JobState::kDone);
  EXPECT_EQ(result.records, DirectRecords(spec))
      << "post-disconnect result diverged from a direct uninterrupted run";

  // Attaching again after completion replays the same terminal result.
  auto late = MakeClient();
  service::JobResultPayload replay;
  ASSERT_TRUE(late.attach(job_id, ack, error)) << error;
  ASSERT_TRUE(late.wait_result(replay, error)) << error;
  EXPECT_EQ(replay.records, result.records);
  EXPECT_EQ(replay.digest, result.digest);
}

TEST_F(DaemonTest, ShardedSpecThroughDaemonMatchesInProcessRun) {
  StartDaemon();
  const std::string spec = SpecJson("carol", "mix", 4242, 16, 0, 2);
  auto client = MakeClient();
  service::SubmittedPayload ack;
  service::JobResultPayload result;
  std::string error;
  ASSERT_TRUE(client.submit(spec, ack, error)) << error;
  ASSERT_TRUE(ack.accepted) << ack.message;
  ASSERT_TRUE(client.wait_result(result, error)) << error;
  EXPECT_EQ(result.state, service::JobState::kDone);
  EXPECT_EQ(result.records, DirectRecords(spec));
}

TEST_F(DaemonTest, RejectsBadSpecsAndUnknownJobs) {
  StartDaemon();
  auto client = MakeClient();
  service::SubmittedPayload ack;
  std::string error;

  ASSERT_TRUE(client.submit("{not json", ack, error)) << error;
  EXPECT_FALSE(ack.accepted);

  ASSERT_TRUE(client.submit(SpecJson("alice", "no_such_kind", 1, 5), ack, error)) << error;
  EXPECT_FALSE(ack.accepted);
  EXPECT_TRUE(contains(ack.message, "no_such_kind")) << ack.message;

  service::CampaignSpec huge;
  huge.tenant = "alice";
  huge.kind = "mix";
  huge.trials = 1;
  service::ServiceConfig defaults;
  huge.trials = defaults.max_trials + 1;
  ASSERT_TRUE(client.submit(service::encode_spec(huge), ack, error)) << error;
  EXPECT_FALSE(ack.accepted);
  EXPECT_TRUE(contains(ack.message, "cap")) << ack.message;

  ASSERT_TRUE(client.attach("ghost-99", ack, error)) << error;
  EXPECT_FALSE(ack.accepted);
  EXPECT_TRUE(contains(ack.message, "ghost-99")) << ack.message;
}

TEST_F(DaemonTest, TenantAdmissionQuotaIsEnforced) {
  service::ServiceConfig config;
  config.max_queued_per_tenant = 1;
  StartDaemon(config);
  // Job 1 occupies alice's whole admission quota while it runs...
  const std::string slow = SpecJson("alice", "mix", 5, 50, 3000);
  auto client1 = MakeClient();
  service::SubmittedPayload ack;
  std::string error;
  ASSERT_TRUE(client1.submit(slow, ack, error)) << error;
  ASSERT_TRUE(ack.accepted) << ack.message;

  // ...so a second alice submit bounces, while bob still gets in.
  auto client2 = MakeClient();
  ASSERT_TRUE(client2.submit(SpecJson("alice", "mix", 6, 5), ack, error)) << error;
  EXPECT_FALSE(ack.accepted);
  EXPECT_TRUE(contains(ack.message, "quota")) << ack.message;

  auto client3 = MakeClient();
  ASSERT_TRUE(client3.submit(SpecJson("bob", "mix", 7, 5), ack, error)) << error;
  EXPECT_TRUE(ack.accepted) << ack.message;

  service::JobResultPayload result;
  ASSERT_TRUE(client3.wait_result(result, error)) << error;
  ASSERT_TRUE(client1.wait_result(result, error)) << error;
}

// A hostile or fat-fingered {"workers": 1000000} / {"processes": 1000000}
// spec must bounce at admission, never reach ThreadPool/fork.
TEST_F(DaemonTest, RejectsOverCapWorkersAndProcesses) {
  StartDaemon();
  auto client = MakeClient();
  service::SubmittedPayload ack;
  std::string error;
  service::ServiceConfig defaults;

  service::CampaignSpec fat;
  fat.tenant = "alice";
  fat.kind = "mix";
  fat.trials = 1;
  fat.workers = defaults.max_workers + 1;
  ASSERT_TRUE(client.submit(service::encode_spec(fat), ack, error)) << error;
  EXPECT_FALSE(ack.accepted);
  EXPECT_TRUE(contains(ack.message, "workers")) << ack.message;

  fat.workers = 1;
  fat.processes = defaults.max_processes + 1;
  ASSERT_TRUE(client.submit(service::encode_spec(fat), ack, error)) << error;
  EXPECT_FALSE(ack.accepted);
  EXPECT_TRUE(contains(ack.message, "processes")) << ack.message;

  // Control: at-cap values are admitted (workers is only a thread count
  // request; the 1-trial job finishes instantly).
  fat.processes = 0;
  fat.workers = defaults.max_workers;
  ASSERT_TRUE(client.submit(service::encode_spec(fat), ack, error)) << error;
  EXPECT_TRUE(ack.accepted) << ack.message;
  service::JobResultPayload result;
  ASSERT_TRUE(client.wait_result(result, error)) << error;
}

// Retention: terminal jobs beyond max_finished_per_tenant are evicted
// (oldest first), so daemon memory does not grow without bound while the
// newest results stay attachable.
TEST_F(DaemonTest, FinishedJobsBeyondRetentionCapAreEvicted) {
  service::ServiceConfig config;
  config.max_finished_per_tenant = 2;
  StartDaemon(config);
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    auto client = MakeClient();
    service::SubmittedPayload ack;
    service::JobResultPayload result;
    std::string error;
    ASSERT_TRUE(client.submit(SpecJson("alice", "mix", 100 + i, 4), ack, error)) << error;
    ASSERT_TRUE(ack.accepted) << ack.message;
    ids.push_back(ack.job_id);
    ASSERT_TRUE(client.wait_result(result, error)) << error;
    EXPECT_EQ(result.state, service::JobState::kDone);
  }
  // Eviction runs on the executor thread just after the terminal result is
  // streamed; give it a bounded moment to settle.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon_->jobs().size() > 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon_->jobs().size(), 2u);

  auto client = MakeClient();
  service::SubmittedPayload ack;
  std::string error;
  ASSERT_TRUE(client.attach(ids[0], ack, error)) << error;
  EXPECT_FALSE(ack.accepted) << "oldest job should have been evicted";
  ASSERT_TRUE(client.attach(ids[3], ack, error)) << error;
  EXPECT_TRUE(ack.accepted) << ack.message;
  service::JobResultPayload replay;
  ASSERT_TRUE(client.wait_result(replay, error)) << error;
  EXPECT_EQ(replay.state, service::JobState::kDone);
}

TEST_F(DaemonTest, StatusScrapeIsValidJsonWithJobsAndMetrics) {
  StartDaemon();
  auto client = MakeClient();
  service::SubmittedPayload ack;
  service::JobResultPayload result;
  std::string error;
  ASSERT_TRUE(client.submit(SpecJson("alice", "mix", 11, 8), ack, error)) << error;
  ASSERT_TRUE(ack.accepted);
  ASSERT_TRUE(client.wait_result(result, error)) << error;

  auto scraper = MakeClient();
  std::string json;
  ASSERT_TRUE(scraper.status(json, error)) << error;
  core::JsonValue doc;
  ASSERT_TRUE(core::parse_json(json, doc, &error)) << error << "\n" << json;
  const core::JsonValue* svc = doc.find("service");
  ASSERT_NE(svc, nullptr);
  std::uint64_t total = 0;
  ASSERT_TRUE(svc->find("jobs_total")->as_u64(total));
  EXPECT_GE(total, 1u);
  const core::JsonValue* jobs = doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_TRUE(jobs->is_array());
  ASSERT_FALSE(jobs->array.empty());
  EXPECT_NE(jobs->array[0].find("tenant"), nullptr);
  // The embedded metrics scrape must survive the hostile names registered
  // earlier in this binary — the end-to-end form of the escaping fix.
  const core::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters"), nullptr);
}

TEST_F(DaemonTest, ClientStopDrainsAndServeReturnsZero) {
  socket_ = socket_path("client_stop");
  service::ServiceConfig config;
  config.unix_socket = socket_;
  config.progress_interval = std::chrono::milliseconds(10);
  daemon_ = std::make_unique<service::Daemon>(config);
  std::thread server([&] { EXPECT_EQ(daemon_->serve(), 0); });

  for (int i = 0; i < 100 && !std::ifstream(socket_).good(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto client = MakeClient();
  service::SubmittedPayload ack;
  service::JobResultPayload result;
  std::string error;
  ASSERT_TRUE(client.submit(SpecJson("alice", "mix", 3, 10), ack, error)) << error;
  ASSERT_TRUE(ack.accepted);
  ASSERT_TRUE(client.wait_result(result, error)) << error;

  auto stopper = MakeClient();
  ASSERT_TRUE(stopper.stop_daemon(error)) << error;
  server.join();

  // Post-drain: the daemon is gone, new submits fail at the transport.
  auto late = MakeClient();
  EXPECT_FALSE(late.submit(SpecJson("alice", "mix", 4, 5), ack, error));
}

TEST_F(DaemonTest, SpectreWorkloadLeaksDeterministically) {
  StartDaemon();
  const std::string spec = SpecJson("lab", "spectre_leak", 2026, 4);
  auto client = MakeClient();
  service::SubmittedPayload ack;
  service::JobResultPayload result;
  std::string error;
  ASSERT_TRUE(client.submit(spec, ack, error)) << error;
  ASSERT_TRUE(ack.accepted) << ack.message;
  ASSERT_TRUE(client.wait_result(result, error)) << error;
  ASSERT_EQ(result.state, service::JobState::kDone);
  std::vector<service::OutcomeRecord> records;
  ASSERT_TRUE(service::decode_outcomes(result.records, records));
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    ASSERT_TRUE(rec.ok);
    service::ServiceTrialResult r;
    std::memcpy(&r, rec.payload.data(), sizeof(r));
    EXPECT_EQ(r.lo, 1u) << "spectre_leak trial failed to leak";
    EXPECT_EQ(r.hi, static_cast<std::uint64_t>('K'));
  }
  EXPECT_EQ(result.records, DirectRecords(spec));
}

}  // namespace
