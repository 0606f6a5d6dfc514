#include "core/service/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "core/json.h"
#include "core/obs/metrics.h"
#include "core/service/catalog.h"
#include "core/shutdown.h"

namespace hwsec::core::service {

namespace {

/// Waits for POLLIN on `fd`, polling `stop` between slices so a wedged or
/// silent client cannot pin a connection thread past daemon shutdown.
bool wait_readable(int fd, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc > 0) {
      return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    }
  }
  return false;
}

int errno_error(int fd, const std::string& what) {
  const std::string detail = what + ": " + std::strerror(errno);
  if (fd >= 0) ::close(fd);
  throw SimError(ErrorKind::kConfigError, detail);
}

}  // namespace

Daemon::Daemon(ServiceConfig config) : config_(std::move(config)) {
  if (config_.executors == 0) config_.executors = 1;
  if (config_.progress_interval.count() <= 0) {
    config_.progress_interval = std::chrono::milliseconds(50);
  }
}

Daemon::~Daemon() { stop(); }

int Daemon::bind_unix() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.unix_socket.size() >= sizeof(addr.sun_path)) {
    throw SimError(ErrorKind::kConfigError,
                   "unix socket path too long: " + config_.unix_socket);
  }
  std::memcpy(addr.sun_path, config_.unix_socket.c_str(), config_.unix_socket.size() + 1);
  ::unlink(config_.unix_socket.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) errno_error(-1, "socket(AF_UNIX)");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    errno_error(fd, "bind(" + config_.unix_socket + ")");
  }
  if (::listen(fd, 64) != 0) errno_error(fd, "listen(" + config_.unix_socket + ")");
  return fd;
}

int Daemon::bind_tcp() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) errno_error(-1, "socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only.
  addr.sin_port = htons(config_.tcp_port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    errno_error(fd, "bind(127.0.0.1:" + std::to_string(config_.tcp_port) + ")");
  }
  if (::listen(fd, 64) != 0) errno_error(fd, "listen(tcp)");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_tcp_port_ = ntohs(bound.sin_port);
  }
  return fd;
}

void Daemon::start() {
  if (started_.exchange(true)) return;
  sigpipe_guard_ = std::make_unique<shard::SigpipeIgnore>();
  if (!config_.unix_socket.empty()) unix_fd_ = bind_unix();
  if (config_.tcp_enabled) tcp_fd_ = bind_tcp();
  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    throw SimError(ErrorKind::kConfigError,
                   "hwsecd: no listener configured (set unix_socket and/or tcp)");
  }
  executor_threads_.reserve(config_.executors);
  for (unsigned i = 0; i < config_.executors; ++i) {
    executor_threads_.emplace_back([this] { executor_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

int Daemon::serve() {
  start();
  while (!shutdown_requested() && !stop_requested_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // 128+signal after a signal-initiated drain, 0 after a client stop.
  const int code = shutdown_exit_code();
  stop();
  return code;
}

void Daemon::request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }

void Daemon::stop() {
  if (!started_.load(std::memory_order_relaxed) || closing_.load(std::memory_order_relaxed)) {
    return;
  }
  draining_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    fail_queued_jobs_locked("daemon draining");
  }
  executors_cv_.notify_all();
  // Running jobs finish on their own terms: fully on a client stop, cut
  // short (skipped slots + final checkpoint) when the global shutdown flag
  // is up. Either way the executor returns and its job goes terminal.
  for (auto& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
  executor_threads_.clear();
  // Grace: streaming subscriptions notice terminal state within one
  // progress tick and flush the final kJobResult before we cut them off.
  std::this_thread::sleep_for(
      std::min<std::chrono::milliseconds>(2 * config_.progress_interval +
                                              std::chrono::milliseconds(50),
                                          std::chrono::milliseconds(1000)));
  closing_.store(true, std::memory_order_relaxed);
  executors_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(config_.unix_socket.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) {
      if (!conn.finished.load(std::memory_order_relaxed)) {
        ::shutdown(conn.fd, SHUT_RDWR);
      }
    }
  }
  for (auto& conn : connections_) {
    if (conn.thread.joinable()) conn.thread.join();
    if (conn.fd >= 0) ::close(conn.fd);
  }
  connections_.clear();
  sigpipe_guard_.reset();
}

// ---- accept path -------------------------------------------------------

void Daemon::accept_loop() {
  while (!closing_.load(std::memory_order_relaxed)) {
    struct pollfd fds[2];
    int nfds = 0;
    if (unix_fd_ >= 0) fds[nfds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = {tcp_fd_, POLLIN, 0};
    const int rc = ::poll(fds, static_cast<nfds_t>(nfds), 100);
    if (rc <= 0) continue;  // timeout or EINTR: re-check closing_.
    for (int i = 0; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int conn = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn < 0) continue;
      std::lock_guard<std::mutex> lock(connections_mutex_);
      reap_finished_connections_locked();
      connections_.emplace_back();
      Connection& entry = connections_.back();  // std::list: reference is stable.
      entry.fd = conn;
      entry.thread = std::thread([this, conn, &entry] {
        connection_loop(conn);
        entry.finished.store(true, std::memory_order_relaxed);
      });
    }
  }
}

void Daemon::reap_finished_connections_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->finished.load(std::memory_order_relaxed)) {
      if (it->thread.joinable()) it->thread.join();
      if (it->fd >= 0) ::close(it->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---- connection protocol -----------------------------------------------

bool Daemon::send_service_frame(int fd, shard::FrameType type, const std::string& payload) {
  shard::Frame frame;
  frame.type = type;
  frame.payload = payload;
  return shard::write_frame(fd, frame);
}

void Daemon::connection_loop(int fd) {
  // One port, two dialects: sniff the first four bytes. Frame clients
  // always lead with the wire magic ("HWSC" on the wire); an HTTP scrape
  // leads with "GET ".
  char head[4] = {};
  while (true) {
    if (!wait_readable(fd, closing_)) return;
    const ssize_t n = ::recv(fd, head, sizeof(head), MSG_PEEK);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer vanished before saying anything.
    if (n >= 4) break;
    if (std::memcmp(head, "GET ", static_cast<std::size_t>(n)) != 0) break;
  }
  if (std::memcmp(head, "GET ", 4) == 0) {
    handle_http(fd);
    return;
  }
  shard::Frame frame;
  // Untrusted peer: request frames are tiny, so cap the payload length a
  // client header can demand before any allocation happens.
  if (!shard::read_frame(fd, frame, kMaxRequestPayload)) return;
  switch (frame.type) {
    case shard::FrameType::kSubmit:
      handle_submit(fd, frame.payload);
      break;
    case shard::FrameType::kAttach:
      handle_attach(fd, frame.payload);
      break;
    case shard::FrameType::kStatusRequest: {
      static const obs::Counter kScrapes = obs::counter("service_status_requests");
      kScrapes.add(1);
      send_service_frame(fd, shard::FrameType::kStatusReply, status_json());
      break;
    }
    case shard::FrameType::kStopDaemon: {
      SubmittedPayload ack;
      ack.accepted = true;
      ack.message = "draining";
      send_service_frame(fd, shard::FrameType::kSubmitted, encode_submitted(ack));
      request_stop();
      break;
    }
    default:
      send_service_frame(fd, shard::FrameType::kServiceError,
                         "unexpected frame type " +
                             std::to_string(static_cast<unsigned>(frame.type)));
      break;
  }
}

void Daemon::handle_http(int fd) {
  static const obs::Counter kScrapes = obs::counter("service_status_requests");
  std::string request;
  char buf[512];
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 8192) {
    if (!wait_readable(fd, closing_)) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const bool status_path = request.rfind("GET /status", 0) == 0 ||
                           request.rfind("GET / ", 0) == 0;
  std::string body;
  const char* status_line;
  if (status_path) {
    kScrapes.add(1);
    status_line = "HTTP/1.0 200 OK\r\n";
    body = status_json();
  } else {
    status_line = "HTTP/1.0 404 Not Found\r\n";
    body = "{\"error\": \"unknown path (try /status)\"}";
  }
  body += "\n";
  std::ostringstream response;
  response << status_line << "Content-Type: application/json\r\nContent-Length: "
           << body.size() << "\r\nConnection: close\r\n\r\n"
           << body;
  const std::string bytes = response.str();
  shard::write_all_fd(fd, bytes.data(), bytes.size());
}

void Daemon::handle_submit(int fd, const std::string& payload) {
  static const obs::Counter kSubmitted = obs::counter("service_jobs_submitted");
  static const obs::Counter kRejected = obs::counter("service_jobs_rejected");
  SubmittedPayload ack;
  CampaignSpec spec;
  std::string error;
  std::shared_ptr<Job> job;
  if (!decode_spec(payload, spec, error)) {
    ack.message = error;
  } else if (!known_kind(spec.kind)) {
    ack.message = "unknown campaign kind \"" + spec.kind + "\"";
  } else if (spec.trials == 0) {
    ack.message = "trials must be >= 1";
  } else if (spec.trials > config_.max_trials) {
    ack.message = "trials " + std::to_string(spec.trials) + " exceeds service cap " +
                  std::to_string(config_.max_trials);
  } else if (spec.workers > config_.max_workers) {
    ack.message = "workers " + std::to_string(spec.workers) + " exceeds service cap " +
                  std::to_string(config_.max_workers);
  } else if (spec.processes > config_.max_processes) {
    ack.message = "processes " + std::to_string(spec.processes) +
                  " exceeds service cap " + std::to_string(config_.max_processes);
  } else if (spec.hosts.size() > config_.max_hosts) {
    ack.message = "hosts " + std::to_string(spec.hosts.size()) +
                  " exceeds service cap " + std::to_string(config_.max_hosts);
  } else {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (draining_.load(std::memory_order_relaxed)) {
      ack.message = "daemon draining";
    } else if (admitted_per_tenant_[spec.tenant] >= config_.max_queued_per_tenant) {
      ack.message = "tenant \"" + spec.tenant + "\" is over its quota of " +
                    std::to_string(config_.max_queued_per_tenant) + " admitted jobs";
    } else {
      job = std::make_shared<Job>();
      job->seq = next_seq_++;
      job->id = spec.tenant + "-" + std::to_string(job->seq);
      job->spec = spec;
      job->total = spec.trials;
      jobs_[job->id] = job;
      queue_.push_back(job);
      ++admitted_per_tenant_[spec.tenant];
      ack.accepted = true;
      ack.job_id = job->id;
    }
  }
  if (ack.accepted) {
    kSubmitted.add(1);
    executors_cv_.notify_all();
  } else {
    kRejected.add(1);
  }
  if (!send_service_frame(fd, shard::FrameType::kSubmitted, encode_submitted(ack))) {
    return;  // client already gone; the job (if admitted) runs regardless.
  }
  if (job != nullptr) {
    stream_job(fd, job);
  }
}

void Daemon::handle_attach(int fd, const std::string& payload) {
  static const obs::Counter kReattaches = obs::counter("service_reattaches");
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(payload);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) {
    send_service_frame(fd, shard::FrameType::kServiceError,
                       "unknown job id \"" + payload + "\"");
    return;
  }
  kReattaches.add(1);
  SubmittedPayload ack;
  ack.accepted = true;
  ack.job_id = job->id;
  ack.message = "attached";
  if (!send_service_frame(fd, shard::FrameType::kSubmitted, encode_submitted(ack))) {
    return;
  }
  stream_job(fd, job);
}

void Daemon::stream_job(int fd, const std::shared_ptr<Job>& job) {
  static const obs::Counter kDetached = obs::counter("service_detached_streams");
  while (true) {
    const JobState state = job->state.load(std::memory_order_acquire);
    if (state == JobState::kDone || state == JobState::kFailed) break;
    JobUpdatePayload update;
    update.job_id = job->id;
    update.state = state;
    update.done = job->done.load(std::memory_order_relaxed);
    update.total = job->total;
    if (!send_service_frame(fd, shard::FrameType::kJobUpdate, encode_job_update(update))) {
      // The subscription died, the job did not: it keeps running and any
      // later kAttach by job id picks the result up.
      kDetached.add(1);
      return;
    }
    if (closing_.load(std::memory_order_relaxed)) return;
    std::this_thread::sleep_for(config_.progress_interval);
  }
  JobResultPayload result;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    result.job_id = job->id;
    result.state = job->state.load(std::memory_order_relaxed);
    result.digest = job->digest;
    result.records = job->records;
    result.error = job->error;
  }
  if (!send_service_frame(fd, shard::FrameType::kJobResult, encode_job_result(result))) {
    kDetached.add(1);
  }
}

// ---- scheduling / execution --------------------------------------------

std::shared_ptr<Daemon::Job> Daemon::pick_job_locked() {
  if (draining_.load(std::memory_order_relaxed)) return nullptr;
  std::size_t best = queue_.size();
  unsigned best_running = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const auto& candidate = queue_[i];
    const unsigned running = running_per_tenant_[candidate->spec.tenant];
    if (running >= config_.max_running_per_tenant) continue;
    // Fair share first (tenant with the least running), then priority,
    // then arrival order (queue_ is FIFO, so the first win sticks).
    if (best == queue_.size() || running < best_running ||
        (running == best_running &&
         candidate->spec.priority > queue_[best]->spec.priority)) {
      best = i;
      best_running = running;
    }
  }
  if (best == queue_.size()) return nullptr;
  const std::shared_ptr<Job> job = queue_[best];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return job;
}

void Daemon::executor_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      executors_cv_.wait(lock, [&] {
        if (closing_.load(std::memory_order_relaxed) ||
            draining_.load(std::memory_order_relaxed)) {
          return true;
        }
        job = pick_job_locked();
        return job != nullptr;
      });
      if (job == nullptr) return;
      job->state.store(JobState::kRunning, std::memory_order_release);
      ++running_per_tenant_[job->spec.tenant];
    }
    run_job(job);
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      --running_per_tenant_[job->spec.tenant];
      --admitted_per_tenant_[job->spec.tenant];
      evict_finished_locked(job->spec.tenant);
    }
    executors_cv_.notify_all();
  }
}

void Daemon::run_job(const std::shared_ptr<Job>& job) {
  static const obs::Counter kCompleted = obs::counter("service_jobs_completed");
  static const obs::Counter kFailedJobs = obs::counter("service_jobs_failed");
  ResilienceConfig res;
  res.machines = &machines_;
  res.heartbeat = std::chrono::milliseconds(0);  // the daemon streams its own progress.
  if (!config_.checkpoint_dir.empty()) {
    res.checkpoint_path = config_.checkpoint_dir + "/" + job->id + ".ckpt";
    // Satellite #2: identity is (config, owner), not config alone — two
    // tenants submitting byte-identical specs can never cross-resume.
    res.checkpoint_scope = job->spec.tenant + "/" + job->id;
  }
  JobState final_state = JobState::kDone;
  std::string records;
  std::string error;
  try {
    const ServiceOutcomes outcomes = run_spec(
        job->spec, res, [&job] { job->done.fetch_add(1, std::memory_order_relaxed); });
    std::size_t skipped = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.skipped) ++skipped;
    }
    records = encode_outcomes(outcomes);
    if (skipped != 0) {
      // Only the shutdown drain leaves skipped slots without throwing
      // (fail-fast throws). Partial results are not "done": fail the job
      // but keep the records — the checkpoint already holds every
      // completed slot for a later resume.
      final_state = JobState::kFailed;
      error = "drained mid-run: " + std::to_string(skipped) + " of " +
              std::to_string(outcomes.size()) + " trials skipped (checkpoint saved)";
    }
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->records = std::move(records);
    job->digest = job->records.empty() ? 0 : fnv1a64(job->records);
    job->error = std::move(error);
    job->state.store(final_state, std::memory_order_release);
  }
  (final_state == JobState::kDone ? kCompleted : kFailedJobs).add(1);
}

void Daemon::evict_finished_locked(const std::string& tenant) {
  static const obs::Counter kEvicted = obs::counter("service_jobs_evicted");
  // Retention: keep the newest max_finished_per_tenant terminal jobs of
  // this tenant attachable; drop the rest (records blobs included). An
  // attach for an evicted id gets "unknown job id" — same answer as a
  // daemon restart would give.
  std::vector<std::pair<std::uint64_t, std::string>> terminal;  // (seq, id)
  for (const auto& [id, job] : jobs_) {
    if (job->spec.tenant != tenant) continue;
    const JobState state = job->state.load(std::memory_order_acquire);
    if (state == JobState::kDone || state == JobState::kFailed) {
      terminal.emplace_back(job->seq, id);
    }
  }
  if (terminal.size() <= config_.max_finished_per_tenant) return;
  std::sort(terminal.begin(), terminal.end());
  const std::size_t excess = terminal.size() - config_.max_finished_per_tenant;
  for (std::size_t i = 0; i < excess; ++i) {
    jobs_.erase(terminal[i].second);  // streams hold shared_ptrs; they finish fine.
    kEvicted.add(1);
  }
}

void Daemon::fail_queued_jobs_locked(const std::string& reason) {
  for (const auto& job : queue_) {
    job->error = reason;
    job->state.store(JobState::kFailed, std::memory_order_release);
    --admitted_per_tenant_[job->spec.tenant];
  }
  queue_.clear();
}

// ---- introspection -----------------------------------------------------

std::vector<JobInfo> Daemon::jobs() const {
  std::vector<JobInfo> out;
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    JobInfo info;
    info.id = id;
    info.tenant = job->spec.tenant;
    info.name = job->spec.name;
    info.kind = job->spec.kind;
    info.state = job->state.load(std::memory_order_acquire);
    info.done = job->done.load(std::memory_order_relaxed);
    info.total = job->total;
    info.digest = job->digest;
    out.push_back(std::move(info));
  }
  return out;
}

std::string Daemon::status_json() const {
  const std::vector<JobInfo> infos = jobs();
  std::size_t queued = 0, running = 0, done = 0, failed = 0;
  for (const auto& info : infos) {
    switch (info.state) {
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; break;
      case JobState::kDone: ++done; break;
      case JobState::kFailed: ++failed; break;
    }
  }
  std::ostringstream out;
  out << "{\n  \"service\": {\"draining\": "
      << (draining_.load(std::memory_order_relaxed) ? "true" : "false")
      << ", \"jobs_total\": " << infos.size() << ", \"jobs_queued\": " << queued
      << ", \"jobs_running\": " << running << ", \"jobs_done\": " << done
      << ", \"jobs_failed\": " << failed << "},\n  \"jobs\": [";
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const JobInfo& info = infos[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": \"" << json_escape(info.id)
        << "\", \"tenant\": \"" << json_escape(info.tenant) << "\", \"name\": \""
        << json_escape(info.name) << "\", \"kind\": \"" << json_escape(info.kind)
        << "\", \"state\": \"" << job_state_name(info.state) << "\", \"done\": " << info.done
        << ", \"total\": " << info.total << ", \"digest\": " << info.digest << "}";
  }
  out << (infos.empty() ? "]" : "\n  ]") << ",\n  \"metrics\": ";
  std::string metrics = obs::MetricsRegistry::instance().to_json();
  while (!metrics.empty() && (metrics.back() == '\n' || metrics.back() == ' ')) {
    metrics.pop_back();
  }
  out << metrics << "\n}";
  return out.str();
}

}  // namespace hwsec::core::service
