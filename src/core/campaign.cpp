#include "core/campaign.h"

#include <algorithm>

namespace hwsec::core {

CampaignSummary summarize(const std::vector<double>& outcomes) {
  CampaignSummary s;
  s.trials = outcomes.size();
  if (outcomes.empty()) {
    return s;
  }
  s.min = outcomes.front();
  s.max = outcomes.front();
  for (const double v : outcomes) {
    s.sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = s.sum / static_cast<double>(outcomes.size());
  return s;
}

}  // namespace hwsec::core
