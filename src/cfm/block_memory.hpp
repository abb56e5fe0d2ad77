// BlockMemory — the surface a block-access memory backend offers to the
// drivers that feed it (DESIGN.md §4c).
//
// CfmMemory and CodedMemory are the two implementations, and
// workload::PortDriver the one driver; its request sources are ClosedLoop,
// serve::ServeDriver and trace replay.  A driver issues one block
// operation per processor port, polls take_result at its Issue phase,
// sleeps until next_completion_hint, and reacts to one of three outcomes:
//
//   Completed   done;
//   Superseded  a plain write met a later same-address write and let it
//               land (§4.1): final, never retried;
//   Aborted     a fault abort (watchdog, unserviceable coded stall,
//               dropped link), which the driver may retry.
//
// The concept is checked at compile time (each memory static_asserts it),
// so drivers are templates over it and the per-port path makes no virtual
// call.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>

#include "cfm/block_engine.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::core {

template <class M>
concept BlockMemory = requires(M& m, const M& cm, sim::Cycle now,
                               sim::ProcessorId p, sim::BlockAddr block,
                               std::span<const sim::Word> data,
                               typename M::OpToken token, sim::Engine& engine,
                               sim::DomainId domain,
                               sim::ConflictAuditor& auditor,
                               const sim::FaultInjector& injector) {
  { M::kNoOp } -> std::convertible_to<typename M::OpToken>;
  { cm.config().processors } -> std::convertible_to<std::uint32_t>;
  { cm.config().block_access_time() } -> std::convertible_to<sim::Cycle>;
  { cm.block_words() } -> std::convertible_to<std::uint32_t>;
  { m.issue(now, p, BlockOpKind::Read, block, data) }
      -> std::same_as<typename M::OpToken>;
  { m.take_result(token) } -> std::same_as<std::optional<BlockOpResult>>;
  { cm.next_completion_hint(now) } -> std::same_as<sim::Cycle>;
  m.attach(engine, domain);
  { cm.counters() } -> std::same_as<const sim::CounterSet&>;
  { cm.live_banks() } -> std::convertible_to<std::uint32_t>;
  m.set_audit(auditor);
  m.set_fault_injector(injector);
  { cm.fault_injector() } -> std::same_as<const sim::FaultInjector*>;
};

}  // namespace cfm::core
