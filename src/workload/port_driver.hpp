// PortDriver — the one request driver over a BlockMemory (DESIGN.md §4c).
//
// A driver serves the memory's c processor ports, one block operation per
// port at a time.  Every Phase::Issue it harvests finished operations,
// retries fault aborts, hands idle ports to its request source, and
// publishes the Issue-phase wake hint.  The retry policy lives here and
// nowhere else.  A Completed or Superseded result is final (a superseded
// write let a later same-address write land, §4.1).  A fault abort is
// retried up to kMaxRetries times, each after a back-off of
// 1 + Uniform[0, 2β) cycles, and its latency keeps counting from its
// original issue (or arrival); after the last retry it counts as failed.
// With the memory's fault watchdog, every access therefore resolves
// within a bounded number of fault windows (DESIGN.md §10).
//
// The request source is a template parameter, so the per-port loop makes
// no virtual call.  A Source provides:
//
//   using Kind = ...;                       per-request payload in the slot
//   void admit(sim::Cycle now);             once per tick, before the ports
//   bool next(Memory&, sim::Cycle now, sim::ProcessorId, Slot&, sim::Rng&);
//       an idle port's next request: fills block, kind and issued (the
//       latency origin) and returns true, or returns false to stay idle;
//       draws come from the driver's one Rng, in port order
//   typename Memory::OpToken start(Memory&, sim::Cycle now,
//                                  sim::ProcessorId, const Slot&);
//       issues the slot's request (first attempt and every retry)
//   void resolved(const Slot&, const core::BlockOpResult&, Outcome);
//   sim::Cycle wake(bool port_idle) const;  the source's own wake cycle
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cfm/block_memory.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

/// Retries an aborted access gets before it counts as failed.
inline constexpr std::uint32_t kMaxRetries = 8;

/// What became of a harvested operation.  Completed, Superseded and
/// Failed are final; Retried means the access goes round again.
enum class Outcome : std::uint8_t { Completed, Superseded, Retried, Failed };

/// One processor port's request in flight.
template <core::BlockMemory Memory, class Kind>
struct PortSlot {
  typename Memory::OpToken op = Memory::kNoOp;
  sim::Cycle issued = 0;  ///< latency origin: first issue, or arrival
  sim::Cycle retry_at = 0;
  std::uint32_t retries = 0;
  bool pending_retry = false;
  sim::BlockAddr block = 0;
  Kind kind{};
};

template <core::BlockMemory Memory, class Source>
class PortDriver final : public sim::Component {
 public:
  using Slot = PortSlot<Memory, typename Source::Kind>;

  /// Joins `memory`'s tick domain (the driver ticks in Phase::Issue, the
  /// memory in Phase::Memory: issue-then-tick within one cycle), so the
  /// pair is a self-contained domain the fast path may span-fuse.
  PortDriver(std::string name, sim::DomainId domain, Memory& memory,
             std::uint64_t seed, Source source)
      : sim::Component(std::move(name), domain,
                       sim::phase_bit(sim::Phase::Issue)),
        mem_(memory),
        source_(std::move(source)),
        rng_(seed),
        beta_(memory.config().block_access_time()),
        slots_(memory.config().processors) {}

  [[nodiscard]] Source& source() noexcept { return source_; }
  [[nodiscard]] const Source& source() const noexcept { return source_; }

  [[nodiscard]] std::uint32_t ports() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  /// Ports with an operation in the memory.
  [[nodiscard]] std::uint32_t busy_ports() const noexcept {
    std::uint32_t n = 0;
    for (const auto& slot : slots_) n += slot.op != Memory::kNoOp ? 1 : 0;
    return n;
  }
  /// Accesses still outstanding (issued or awaiting a retry slot) — the
  /// population a fixed cycle budget cuts off mid-flight.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    std::uint64_t n = 0;
    for (const auto& slot : slots_) n += outstanding(slot) ? 1 : 0;
    return n;
  }
  /// Retries already accumulated by the in-flight accesses.  They are not
  /// yet in any finished population, so retry exports add them to avoid
  /// the survivorship bias the completion side fixes with `unfinished`.
  [[nodiscard]] std::uint64_t in_flight_retries() const noexcept {
    std::uint64_t n = 0;
    for (const auto& slot : slots_) n += outstanding(slot) ? slot.retries : 0;
    return n;
  }

  /// One pass over the ports: harvest, retry or refill each, and fold its
  /// end-of-tick state into the wake hint.  Sleeps until the earliest
  /// retry slot, the source's own wake cycle, or the memory's completion
  /// lower bound.  Skipped cycles make no RNG draws on the reference path
  /// either, so the random stream — and therefore the workload — is
  /// bit-identical under the fast path.
  void tick_phase(sim::Phase, sim::Cycle now) override {
    source_.admit(now);
    sim::Cycle wake = sim::kNeverCycle;
    bool any_inflight = false;
    bool any_idle = false;
    for (sim::ProcessorId p = 0; p < slots_.size(); ++p) {
      auto& slot = slots_[p];
      if (slot.op != Memory::kNoOp) {
        auto result = mem_.take_result(slot.op);
        if (!result) {
          any_inflight = true;
          continue;
        }
        slot.op = Memory::kNoOp;
        harvest(now, slot, *result);
      }
      if (slot.pending_retry) {
        if (now < slot.retry_at) {
          wake = std::min(wake, slot.retry_at);
          continue;
        }
        slot.pending_retry = false;
      } else if (!source_.next(mem_, now, p, slot, rng_)) {
        any_idle = true;
        continue;
      }
      slot.op = source_.start(mem_, now, p, slot);
      any_inflight = true;
    }
    wake = std::min(wake, source_.wake(any_idle));
    if (any_inflight && wake != sim::Component::kAlways) {
      wake = std::min(wake, mem_.next_completion_hint(now));
    }
    set_next_event(wake);
  }

 private:
  [[nodiscard]] static bool outstanding(const Slot& slot) noexcept {
    return slot.op != Memory::kNoOp || slot.pending_retry;
  }

  void harvest(sim::Cycle now, Slot& slot, const core::BlockOpResult& r) {
    const auto outcome = r.status == core::OpStatus::Completed
                             ? Outcome::Completed
                         : r.status == core::OpStatus::Superseded
                             ? Outcome::Superseded
                         : slot.retries < kMaxRetries ? Outcome::Retried
                                                      : Outcome::Failed;
    if (outcome != Outcome::Retried) {
      source_.resolved(slot, r, outcome);
      slot.retries = 0;
      return;
    }
    ++slot.retries;
    source_.resolved(slot, r, outcome);
    slot.pending_retry = true;
    slot.retry_at = now + 1 + rng_.below(2 * beta_);
  }

  Memory& mem_;
  Source source_;
  sim::Rng rng_;
  sim::Cycle beta_;
  std::vector<Slot> slots_;
};

}  // namespace cfm::workload
