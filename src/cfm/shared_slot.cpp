#include "cfm/shared_slot.hpp"

#include <algorithm>
#include <stdexcept>

namespace cfm::core {

SharedSlotFabric::SharedSlotFabric(std::uint32_t processors,
                                   std::uint32_t slots, std::uint32_t beta)
    : n_(processors), s_(slots), beta_(beta), busy_until_(slots, 0) {
  if (slots == 0 || processors % slots != 0) {
    throw std::invalid_argument("slots must divide processors");
  }
  if (beta == 0) throw std::invalid_argument("beta must be nonzero");
}

sim::Cycle SharedSlotFabric::try_access(std::uint32_t p, sim::Cycle now) {
  auto& until = busy_until_.at(slot_of(p));
  if (now < until) {
    ++conflicts_;
    return sim::kNeverCycle;
  }
  until = now + beta_;
  ++started_;
  busy_cycles_ += beta_;
  return until;
}

double SharedSlotFabric::utilization(sim::Cycle elapsed) const noexcept {
  if (elapsed == 0) return 0.0;
  return static_cast<double>(busy_cycles_) /
         (static_cast<double>(elapsed) * static_cast<double>(s_));
}

double SharedSlotModel::conflict_probability(double rate) const noexcept {
  const double k = static_cast<double>(processors) / slots;
  return std::clamp((k - 1.0) * rate * beta, 0.0, 1.0);
}

double SharedSlotModel::efficiency(double rate) const noexcept {
  const double p = conflict_probability(rate);
  return (2.0 - 2.0 * p) / (2.0 - p);
}

double SharedSlotModel::slot_utilization(double rate) const noexcept {
  const double k = static_cast<double>(processors) / slots;
  return std::min(1.0, k * rate * beta);
}

}  // namespace cfm::core
