#include "cloudprov/frontend/capacity.hpp"

#include <algorithm>

namespace provcloud::cloudprov {

namespace {

double refilled(double tokens, const TenantQuota& quota, sim::SimTime from,
                sim::SimTime to) {
  if (to > from && quota.rate_per_sec > 0.0) {
    tokens += static_cast<double>(to - from) * quota.rate_per_sec /
              static_cast<double>(sim::kSecond);
  }
  return std::min(tokens, quota.burst);
}

}  // namespace

bool TokenBucket::try_consume(double cost, sim::SimTime now,
                              sim::SimTime* retry_after) {
  tokens_ = refilled(tokens_, quota_, last_, now);
  last_ = std::max(last_, now);
  // A close dearer than the burst waits for a full bucket, then leaves it
  // in debt.
  const double needed = std::min(cost, quota_.burst);
  if (tokens_ >= needed) {
    tokens_ -= cost;
    return true;
  }
  if (retry_after != nullptr) {
    if (quota_.rate_per_sec <= 0.0) {
      *retry_after = 0;  // never refills; no honest estimate exists
    } else {
      const double deficit = needed - tokens_;
      *retry_after = static_cast<sim::SimTime>(
                         deficit * static_cast<double>(sim::kSecond) /
                         quota_.rate_per_sec) +
                     1;
    }
  }
  return false;
}

double TokenBucket::available(sim::SimTime now) const {
  return refilled(tokens_, quota_, last_, now);
}

}  // namespace provcloud::cloudprov
