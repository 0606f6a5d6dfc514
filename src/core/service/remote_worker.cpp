#include "core/service/remote_worker.h"

#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "core/resilience/resilient.h"
#include "core/service/catalog.h"
#include "core/service/spec.h"
#include "core/shard/worker.h"
#include "core/shutdown.h"

namespace hwsec::core::service {

bool serve_supervisor(shard::Transport& transport, const shard::HelloPayload& hello,
                      std::chrono::milliseconds handshake_timeout, std::string& error) {
  shard::WelcomePayload welcome;
  if (!shard::handshake_connect(transport, hello, handshake_timeout, welcome, error)) {
    return false;
  }
  CampaignSpec spec;
  if (!decode_spec(welcome.spec_json, spec, error)) {
    error = "welcome spec rejected: " + error;
    return false;
  }

  // Rebuild the exact execution environment a forked local worker gets, so
  // trial i is bit-identical regardless of which host computes it: the
  // trial body and retry knobs come from the spec, the chaos plan and
  // wall-clock cap from the welcome (they are supervisor-side settings
  // that never appear in the spec).
  std::function<ServiceTrialResult(const TrialContext&)> body;
  try {
    body = make_trial_body(spec);
  } catch (const SimError& e) {
    error = e.what();
    return false;
  }
  ResilienceConfig res;
  res.policy = spec.policy;
  res.max_attempts = spec.max_attempts;
  res.trial_cycle_budget = spec.trial_cycle_budget;
  res.wall_clock_timeout = std::chrono::milliseconds(welcome.wall_clock_timeout_ms);
  res.chaos = welcome.chaos;

  // The same record runner run_campaign_sharded hands its local workers,
  // so a record computed here is byte-identical to a forked worker's.
  const shard::TrialRunner runner =
      detail::record_runner<ServiceTrialResult>(spec.seed, res, std::move(body));

  shard::WorkerEnv env;
  env.heartbeat_interval = std::chrono::milliseconds(welcome.heartbeat_ms);
  env.chaos = welcome.chaos;
  const int code = shard::worker_loop(transport, env, runner);
  if (code != 0) {
    error = "worker loop exited with code " + std::to_string(code);
    return false;
  }
  return true;
}

namespace {

int serve_connect(const RemoteWorkerOptions& options, const shard::HelloPayload& hello) {
  const shard::HostSpec host{options.connect_host, options.connect_port};
  std::string error;
  for (unsigned attempt = 0; attempt < std::max(1u, options.connect_retries); ++attempt) {
    if (attempt > 0) {
      const auto shift = std::min<unsigned>(attempt - 1, 4);
      std::this_thread::sleep_for(options.connect_backoff * (1u << shift));
    }
    if (shutdown_requested()) {
      return 0;
    }
    const int fd = shard::tcp_connect(host, std::chrono::milliseconds(2000), error);
    if (fd < 0) {
      continue;  // supervisor not up yet; back off and retry.
    }
    shard::FdTransport transport(fd, fd);
    transport.set_label("tcp:" + host.host + ":" + std::to_string(host.port));
    if (!serve_supervisor(transport, hello, options.handshake_timeout, error)) {
      std::fprintf(stderr, "hwsec-shard-worker: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "hwsec-shard-worker: %s\n", error.c_str());
  return 1;
}

int serve_listen(const RemoteWorkerOptions& options, const shard::HelloPayload& hello) {
  std::string error;
  const int listen_fd = shard::tcp_listen(options.listen_address, options.listen_port, error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "hwsec-shard-worker: %s\n", error.c_str());
    return 1;
  }
  if (options.on_listening) {
    options.on_listening(shard::tcp_local_port(listen_fd));
  }
  int code = 0;
  while (!shutdown_requested()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    const int fd = shard::tcp_accept(listen_fd);
    if (fd < 0) {
      continue;
    }
    shard::FdTransport transport(fd, fd);
    transport.set_label("tcp-accepted");
    if (!serve_supervisor(transport, hello, options.handshake_timeout, error)) {
      std::fprintf(stderr, "hwsec-shard-worker: %s\n", error.c_str());
      code = 1;
    }
    if (!options.serve_forever) {
      break;
    }
  }
  ::close(listen_fd);
  return options.serve_forever ? 0 : code;
}

}  // namespace

int run_remote_worker(const RemoteWorkerOptions& options) {
  shard::HelloPayload hello;
  hello.expect_digest = options.expect_digest;
  hello.worker_name = options.worker_name;
  if (!options.connect_host.empty()) {
    return serve_connect(options, hello);
  }
  return serve_listen(options, hello);
}

}  // namespace hwsec::core::service
