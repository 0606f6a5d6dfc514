#include "attacks/transient/environment.h"

namespace hwsec::attacks {

namespace sim = hwsec::sim;

UserProcess::UserProcess(sim::Machine& machine, sim::CoreId core, sim::DomainId domain)
    : machine_(&machine),
      core_(core),
      domain_(domain),
      asid_(machine.allocate_asid()),
      aspace_(machine.create_address_space()) {}

sim::PhysAddr UserProcess::map_new(sim::VirtAddr va, std::uint32_t pages, sim::Word flags) {
  const sim::PhysAddr base = machine_->alloc_frames(pages);
  for (std::uint32_t p = 0; p < pages; ++p) {
    aspace_.map(va + p * sim::kPageSize, base + p * sim::kPageSize, flags);
  }
  return base;
}

void UserProcess::map(sim::VirtAddr va, sim::PhysAddr pa, sim::Word flags) {
  aspace_.map(va, pa, flags);
}

void UserProcess::load_program(const sim::Program& program) {
  const sim::VirtAddr first = sim::page_base(program.base);
  const sim::VirtAddr last = sim::page_base(program.end() - 1);
  const std::uint32_t pages = (last - first) / sim::kPageSize + 1;
  map_new(first, pages, sim::pte::kUser | sim::pte::kExecutable);
  cpu().load_program(program, asid_);
}

void UserProcess::activate(sim::Privilege priv) {
  cpu().switch_context(domain_, priv, aspace_.root(), asid_);
}

void UserProcess::setup_probe_array() {
  if (probe_phys_ != 0) {
    return;
  }
  const std::uint32_t bytes = 256 * kProbeStride;
  const std::uint32_t pages = (bytes + sim::kPageSize - 1) / sim::kPageSize;
  probe_phys_ = map_new(kProbeBase, pages, sim::pte::kUser | sim::pte::kWritable);
}

void UserProcess::flush_probe() {
  machine_->flush_lines(probe_phys_, kProbeStride, 256);
}

std::optional<std::uint8_t> UserProcess::hottest_probe_line(sim::Cycle hit_threshold) {
  std::optional<std::uint8_t> hot;
  bool garbage = false;
  std::uint32_t i = 0;
  machine_->probe_lines(core_, domain_, probe_phys_, kProbeStride, 256, [&](sim::Cycle latency) {
    if (latency < hit_threshold) {
      if (hot.has_value()) {
        garbage = true;  // more than one hot line: stop the scan here.
        return false;
      }
      hot = static_cast<std::uint8_t>(i);
    }
    ++i;
    return true;
  });
  return garbage ? std::nullopt : hot;
}

}  // namespace hwsec::attacks
