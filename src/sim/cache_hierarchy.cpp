#include "sim/cache_hierarchy.h"

#include <cassert>

#include "sim/sim_error.h"

namespace hwsec::sim {

CacheHierarchy::CacheHierarchy(HierarchyConfig config) : config_(std::move(config)) {
  if (config_.num_cores == 0) {
    throw SimError(ErrorKind::kConfigError, "hierarchy needs at least one core");
  }
  if (config_.has_l1) {
    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
      CacheConfig d = config_.l1d;
      CacheConfig i = config_.l1i;
      const std::string suffix = std::to_string(c);
      d.name.append("[").append(suffix).append("]");
      i.name.append("[").append(suffix).append("]");
      l1d_.push_back(std::make_unique<Cache>(d, config_.rng_seed + 2 * c));
      l1i_.push_back(std::make_unique<Cache>(i, config_.rng_seed + 2 * c + 1));
    }
  }
  if (config_.has_llc) {
    llc_ = std::make_unique<Cache>(config_.llc, config_.rng_seed + 1000);
  }
}

void CacheHierarchy::throw_bad_core(CoreId core) const {
  throw SimError(ErrorKind::kConfigError, "core " + std::to_string(core) +
                                              " out of range: the hierarchy has " +
                                              std::to_string(config_.num_cores) + " core(s)");
}

bool CacheHierarchy::excluded(PhysAddr addr, Exclusion scope_at_least) const {
  if (uncacheable_.empty()) {
    return false;
  }
  for (const auto& range : uncacheable_) {
    if (addr >= range.start && addr < range.end) {
      if (scope_at_least == Exclusion::kSharedOnly) {
        return true;  // any exclusion covers at least the shared level.
      }
      if (range.scope == Exclusion::kAllLevels) {
        return true;
      }
    }
  }
  return false;
}

MemoryAccessOutcome CacheHierarchy::access_through(Cache* l1, CoreId core, DomainId domain,
                                                   PhysAddr addr, AccessType type) {
  (void)core;
  Cycle latency = 0;
  const bool skip_all = excluded(addr, Exclusion::kAllLevels);
  const bool skip_shared = excluded(addr, Exclusion::kSharedOnly);

  if (l1 != nullptr && !skip_all) {
    latency += l1->config().hit_latency;
    const auto r = l1->access(addr, domain, type);
    if (r.hit) {
      return {ServiceLevel::kL1, latency};
    }
  }
  if (llc_ != nullptr && !skip_all && !skip_shared) {
    latency += llc_->config().hit_latency;
    const auto r = llc_->access(addr, domain, type);
    if (!r.hit && config_.inclusive_llc && r.evicted) {
      back_invalidate(r.evicted_line);
    }
    if (r.hit) {
      return {ServiceLevel::kLlc, latency};
    }
  }
  latency += config_.dram_latency;
  const bool fully_uncached =
      skip_all || (l1 == nullptr && (llc_ == nullptr || skip_shared));
  return {fully_uncached ? ServiceLevel::kUncached : ServiceLevel::kDram, latency};
}

MemoryAccessOutcome CacheHierarchy::access(CoreId core, DomainId domain, PhysAddr addr,
                                           AccessType type) {
  check_core(core);
  Cache* l1 = config_.has_l1 ? l1d_[core].get() : nullptr;
  return access_through(l1, core, domain, addr, type);
}

MemoryAccessOutcome CacheHierarchy::fetch(CoreId core, DomainId domain, PhysAddr addr) {
  check_core(core);
  Cache* l1 = config_.has_l1 ? l1i_[core].get() : nullptr;
  return access_through(l1, core, domain, addr, AccessType::kExecute);
}

bool CacheHierarchy::in_l1d(CoreId core, PhysAddr addr) const {
  check_core(core);
  return config_.has_l1 && l1d_[core]->probe(addr);
}

bool CacheHierarchy::in_llc(PhysAddr addr) const {
  return llc_ != nullptr && llc_->probe(addr);
}

void CacheHierarchy::flush_line(PhysAddr addr) {
  for (auto& c : l1d_) {
    c->flush_line(addr);
  }
  for (auto& c : l1i_) {
    c->flush_line(addr);
  }
  if (llc_ != nullptr) {
    llc_->flush_line(addr);
  }
}

void CacheHierarchy::flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count) {
  for (auto& c : l1d_) {
    c->flush_lines(base, stride, count);
  }
  for (auto& c : l1i_) {
    c->flush_lines(base, stride, count);
  }
  if (llc_ != nullptr) {
    llc_->flush_lines(base, stride, count);
  }
}

void CacheHierarchy::flush_core_private(CoreId core) {
  check_core(core);
  if (!config_.has_l1) {
    return;
  }
  l1d_[core]->flush_all();
  l1i_[core]->flush_all();
}

void CacheHierarchy::flush_all() {
  for (auto& c : l1d_) {
    c->flush_all();
  }
  for (auto& c : l1i_) {
    c->flush_all();
  }
  if (llc_ != nullptr) {
    llc_->flush_all();
  }
}

void CacheHierarchy::flush_domain(DomainId domain) {
  for (auto& c : l1d_) {
    c->flush_domain(domain);
  }
  for (auto& c : l1i_) {
    c->flush_domain(domain);
  }
  if (llc_ != nullptr) {
    llc_->flush_domain(domain);
  }
}

void CacheHierarchy::add_uncacheable(PhysAddr start, std::uint32_t len, Exclusion scope) {
  ++exclusion_epoch_;
  uncacheable_.push_back({start, start + len, scope});
  // Drop already-cached copies: an exclusion that leaves stale lines
  // behind would still be probeable.
  for (PhysAddr a = start & ~(config_.llc.line_size - 1); a < start + len;
       a += config_.llc.line_size) {
    flush_line(a);
  }
}

void CacheHierarchy::clear_uncacheable() {
  ++exclusion_epoch_;
  uncacheable_.clear();
}

Cache& CacheHierarchy::llc() {
  if (llc_ == nullptr) {
    throw SimError(ErrorKind::kConfigError, "hierarchy has no LLC");
  }
  return *llc_;
}

const Cache& CacheHierarchy::llc() const {
  if (llc_ == nullptr) {
    throw SimError(ErrorKind::kConfigError, "hierarchy has no LLC");
  }
  return *llc_;
}

Cache& CacheHierarchy::l1d(CoreId core) { return *l1d_.at(core); }
const Cache& CacheHierarchy::l1d(CoreId core) const { return *l1d_.at(core); }
Cache& CacheHierarchy::l1i(CoreId core) { return *l1i_.at(core); }
const Cache& CacheHierarchy::l1i(CoreId core) const { return *l1i_.at(core); }

void CacheHierarchy::reset_stats() {
  for (auto& c : l1d_) {
    c->reset_stats();
  }
  for (auto& c : l1i_) {
    c->reset_stats();
  }
  if (llc_ != nullptr) {
    llc_->reset_stats();
  }
}

CacheHierarchy::Snapshot CacheHierarchy::snapshot() {
  Snapshot snap;
  snap.l1d.reserve(l1d_.size());
  snap.l1i.reserve(l1i_.size());
  // Arm each journal *before* copying, so the copies carry a clean, armed
  // journal and a full-copy restore re-arms for free.
  for (const auto& c : l1d_) {
    c->begin_set_tracking();
    snap.l1d.push_back(*c);
  }
  for (const auto& c : l1i_) {
    c->begin_set_tracking();
    snap.l1i.push_back(*c);
  }
  if (llc_ != nullptr) {
    llc_->begin_set_tracking();
    snap.llc.push_back(*llc_);
  }
  snap.uncacheable = uncacheable_;
  return snap;
}

void CacheHierarchy::restore(const Snapshot& snap) {
  assert(snap.l1d.size() == l1d_.size() && snap.l1i.size() == l1i_.size() &&
         snap.llc.size() == (llc_ != nullptr ? 1u : 0u));
  for (std::size_t i = 0; i < l1d_.size(); ++i) {
    l1d_[i]->restore_from(snap.l1d[i]);
  }
  for (std::size_t i = 0; i < l1i_.size(); ++i) {
    l1i_[i]->restore_from(snap.l1i[i]);
  }
  if (llc_ != nullptr) {
    llc_->restore_from(snap.llc.front());
  }
  uncacheable_ = snap.uncacheable;
  ++exclusion_epoch_;  // monotonic: invalidates memos armed pre-restore.
}

void CacheHierarchy::back_invalidate(PhysAddr line_base) {
  for (auto& c : l1d_) {
    c->flush_line(line_base);
  }
  for (auto& c : l1i_) {
    c->flush_line(line_base);
  }
}

}  // namespace hwsec::sim
