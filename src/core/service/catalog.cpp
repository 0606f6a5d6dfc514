#include "core/service/catalog.h"

#include <chrono>
#include <thread>

#include "attacks/transient/spectre.h"
#include "core/machine_pool.h"
#include "core/shard/net.h"
#include "core/shard/supervisor.h"
#include "core/service/spec.h"
#include "sim/machine.h"

namespace hwsec::core::service {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

ServiceTrialResult mix_trial(const TrialContext& ctx, std::uint64_t delay_us) {
  if (delay_us != 0) {
    // Pacing only: wall time stretches, the result below depends on
    // nothing but the trial seed.
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  ServiceTrialResult r;
  r.lo = splitmix64(ctx.seed);
  r.hi = splitmix64(r.lo ^ 0xA5A5A5A55A5A5A5Aull);
  return r;
}

ServiceTrialResult spectre_trial(const TrialContext& ctx) {
  // Built once: the profile's strings and DVFS table are per-call heap work.
  static const sim::MachineProfile kMobile = sim::MachineProfile::mobile();
  auto machine_lease = acquire_machine(ctx.machines, kMobile, ctx.seed);
  hwsec::attacks::SpectreV1 spectre(*machine_lease, 0);
  const sim::Word index = spectre.plant_secret("K");
  const auto byte = spectre.leak_byte(index);
  ServiceTrialResult r;
  r.lo = byte.has_value() && *byte == 'K' ? 1 : 0;
  r.hi = byte.value_or(0xFFFF);
  return r;
}

}  // namespace

std::vector<std::string> catalog_kinds() { return {"mix", "spectre_leak"}; }

bool known_kind(const std::string& kind) {
  for (const auto& k : catalog_kinds()) {
    if (k == kind) {
      return true;
    }
  }
  return false;
}

std::function<ServiceTrialResult(const TrialContext&)> make_trial_body(
    const CampaignSpec& spec) {
  if (spec.kind == "mix") {
    const std::uint64_t delay_us = spec.trial_delay_us;
    return [delay_us](const TrialContext& ctx) { return mix_trial(ctx, delay_us); };
  }
  if (spec.kind == "spectre_leak") {
    const std::uint64_t delay_us = spec.trial_delay_us;
    return [delay_us](const TrialContext& ctx) {
      if (delay_us != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
      return spectre_trial(ctx);
    };
  }
  throw SimError(ErrorKind::kConfigError,
                 "unknown campaign kind \"" + spec.kind + "\" (known: mix, spectre_leak)");
}

ServiceOutcomes run_spec(const CampaignSpec& spec, ResilienceConfig res,
                         const std::function<void()>& on_trial) {
  std::function<ServiceTrialResult(const TrialContext&)> body = make_trial_body(spec);
  CampaignConfig config;
  config.seed = spec.seed;
  config.trials = static_cast<std::size_t>(spec.trials);
  config.workers = spec.workers;
  res.policy = spec.policy;
  res.max_attempts = spec.max_attempts;
  res.trial_cycle_budget = spec.trial_cycle_budget;

  // Host discovery: the spec's host list wins; with none listed, the
  // HWSEC_SHARD_HOSTS environment (comma-separated host:port) applies.
  // Either routes the campaign through the sharded supervisor — remote
  // workers are just more shard workers, and the outcome vector stays
  // bit-identical to the local run.
  std::vector<shard::HostSpec> hosts;
  if (!spec.hosts.empty()) {
    for (const auto& element : spec.hosts) {
      shard::HostSpec parsed;
      std::string error;
      if (!shard::parse_host(element, parsed, error)) {
        throw SimError(ErrorKind::kConfigError, "spec hosts: " + error);
      }
      hosts.push_back(parsed);
    }
  } else {
    std::string error;
    hosts = shard::hosts_from_env(error);
    if (!error.empty()) {
      throw SimError(ErrorKind::kConfigError, error);
    }
  }

  if (spec.processes == 0 && hosts.empty()) {
    if (on_trial) {
      body = [inner = std::move(body), &on_trial](const TrialContext& ctx) {
        const ServiceTrialResult r = inner(ctx);
        on_trial();
        return r;
      };
    }
    return run_campaign_resilient<ServiceTrialResult>(config, res, body);
  }
  shard::ShardConfig shard_cfg;
  shard_cfg.processes = spec.processes;
  shard_cfg.hosts = std::move(hosts);
  if (!shard_cfg.hosts.empty()) {
    // The spec is the campaign identity the handshake pins: remote workers
    // verify fnv1a64(spec_json) before accepting a single assignment.
    shard_cfg.remote_spec_json = encode_spec(spec);
  }
  return shard::run_campaign_sharded<ServiceTrialResult>(config, res, shard_cfg, body);
}

}  // namespace hwsec::core::service
