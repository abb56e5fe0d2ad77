// Synthetic shared-memory access workloads and the efficiency experiments
// behind Figs 3.13 / 3.14 / 3.15.
//
// Open-loop model matching §3.4.1: every cycle, every processor generates
// a block access with probability r; the target module is uniform
// (conventional) or home-cluster with probability lambda (partially
// conflict-free).  The baselines run on the contention loop
// (contention.hpp): a conflicting access backs off Uniform[1, beta]
// cycles and retries — the analytic model's mean-beta/2 assumption.  The
// CFM and coded memories run on PortDriver.  Efficiency is measured as
// beta / mean(completion - first attempt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "sim/component.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"
#include "workload/port_driver.hpp"

namespace cfm::workload {

/// Closed-loop Bernoulli request source for PortDriver: every cycle, each
/// idle port issues a fresh access with probability `rate` — a block
/// write with probability `write_fraction` of those, else a read.  Blocks
/// are distinct per processor: the efficiency experiments are about bank
/// traffic, not same-address races.  Completions and access times go to
/// the domain's statistics shard ("ops_completed" / "ops_retried" /
/// "ops_failed" counters, "access_time" running stat), merged by
/// Engine::merged_stats.
class ClosedLoop {
 public:
  using Kind = core::BlockOpKind;

  ClosedLoop(double rate, sim::StatShard& shard, double write_fraction = 0.0)
      : rate_(rate),
        write_fraction_(write_fraction),
        shard_(&shard),
        access_time_(&shard.stat("access_time")) {}

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Accesses that exhausted the bounded retry budget (only possible when
  /// the memory runs with a fault injector).
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  void admit(sim::Cycle) noexcept {}

  template <class Memory, class Slot>
  bool next(Memory& mem, sim::Cycle now, sim::ProcessorId p, Slot& slot,
            sim::Rng& rng) {
    if (!rng.chance(rate_)) return false;
    if constexpr (requires { mem.txn_tracer(); }) {
      // Generated and issued in the same cycle: the queue hint records a
      // zero wait — the driver never holds work back, which the txn
      // trace then shows explicitly.
      if (auto* tracer = mem.txn_tracer()) {
        tracer->queued_since(mem.txn_unit(), p, now);
      }
    }
    slot.issued = now;
    slot.kind = write_fraction_ > 0.0 && rng.chance(write_fraction_)
                    ? Kind::Write
                    : Kind::Read;
    slot.block = 1000 + p * 7919 + (now % 97);
    return true;
  }

  template <class Memory, class Slot>
  typename Memory::OpToken start(Memory& mem, sim::Cycle now,
                                 sim::ProcessorId p, const Slot& slot) {
    if (slot.kind == Kind::Read) {
      return mem.issue(now, p, Kind::Read, slot.block);
    }
    // Deterministic payload: a pure function of (block, word, issue
    // slot), so replays write the same bits without extra RNG draws.
    scratch_.resize(mem.block_words());
    for (std::uint32_t w = 0; w < scratch_.size(); ++w) {
      scratch_[w] = (slot.block * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<sim::Word>(w) << 32) ^ slot.issued;
    }
    return mem.issue(now, p, Kind::Write, slot.block, scratch_);
  }

  template <class Slot>
  void resolved(const Slot& slot, const core::BlockOpResult& r, Outcome o) {
    switch (o) {
      case Outcome::Completed:
      case Outcome::Superseded:  // the write's tour ended; a later one landed
        access_time_->add(static_cast<double>(r.completed - slot.issued));
        ++completed_;
        shard_->counters.inc("ops_completed");
        break;
      case Outcome::Retried:
        shard_->counters.inc("ops_retried");
        break;
      case Outcome::Failed:
        ++failed_;
        shard_->counters.inc("ops_failed");
        break;
    }
  }

  /// An idle port rolls the Bernoulli draw every cycle, so the driver can
  /// never be skipped then (skipping would desynchronise the stream).
  [[nodiscard]] sim::Cycle wake(bool port_idle) const noexcept {
    return port_idle ? sim::Component::kAlways : sim::kNeverCycle;
  }

 private:
  double rate_;
  double write_fraction_;
  sim::StatShard* shard_;
  sim::RunningStat* access_time_;
  std::vector<sim::Word> scratch_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

template <core::BlockMemory Memory>
using ClosedLoopDriver = PortDriver<Memory, ClosedLoop>;

struct EfficiencyResult {
  double efficiency = 1.0;        ///< beta / mean access time
  double mean_access_time = 0.0;  ///< cycles, first attempt -> completion
  /// Mean retries per access, *including* accesses still retrying at the
  /// budget cutoff (their retry counts are facts even though their final
  /// access times are not — excluding them biased the mean low, since the
  /// cutoff preferentially catches the most-retried accesses).
  double mean_retries = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t conflicts = 0;
  /// Accesses still in flight when the cycle budget ran out.  Their
  /// access times are *not* in mean_access_time: a fixed budget
  /// preferentially cuts off the longest-waiting accesses, so a large
  /// unfinished count flags a survivorship-biased (optimistic)
  /// mean_access_time.
  std::uint64_t unfinished = 0;
  /// Retries already accumulated by those unfinished accesses (folded
  /// into mean_retries; broken out so callers can see the cutoff bias).
  std::uint64_t unfinished_retries = 0;
  /// Accesses that exhausted the fault-retry budget (zero without faults).
  std::uint64_t failed = 0;
};

/// Conventional interleaved memory: n processors, m modules, beta-cycle
/// block accesses, uniform module targets (§3.4.1 baseline).
[[nodiscard]] EfficiencyResult measure_conventional(
    std::uint32_t processors, std::uint32_t modules, std::uint32_t beta,
    double rate, sim::Cycle cycles, std::uint64_t seed);

/// Partially conflict-free machine: n processors in m clusters, locality
/// lambda = probability the access targets the home module (§3.4.2).
[[nodiscard]] EfficiencyResult measure_partial_cfm(
    std::uint32_t processors, std::uint32_t modules, std::uint32_t beta,
    double rate, double locality, sim::Cycle cycles, std::uint64_t seed);

/// Slot oversubscription (§7.2): v processors sharing s AT-space slots
/// (core::SharedSlotFabric) under the same Bernoulli traffic.
struct SharedSlotResult {
  double efficiency = 1.0;
  double utilization = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t completed = 0;
};

[[nodiscard]] SharedSlotResult measure_shared_slots(std::uint32_t processors,
                                                    std::uint32_t slots,
                                                    std::uint32_t beta,
                                                    double rate,
                                                    sim::Cycle cycles,
                                                    std::uint64_t seed);

/// Fully conflict-free machine, run on the *real* cycle-level CfmMemory:
/// every access must complete in exactly beta with zero conflicts —
/// the measured efficiency validates the paper's "~100%" claim.
[[nodiscard]] EfficiencyResult measure_cfm(std::uint32_t processors,
                                           std::uint32_t bank_cycle,
                                           double rate, sim::Cycle cycles,
                                           std::uint64_t seed);

/// Optional instrumentation for measure_closed_loop; null everything is a
/// bare run.  The auditor and fault injector are attached to the memory
/// by the caller, who builds it.
struct RunHooks {
  /// Merged driver-shard counters (ops_completed / ops_retried /
  /// ops_failed) plus the memory's own counters, written on return.
  sim::CounterSet* counters_out = nullptr;
  /// The full access_time RunningStat (count/mean/min/max/stddev/sum),
  /// richer than EfficiencyResult's mean — campaign reports merge these
  /// across grid points.
  sim::RunningStat* access_time_out = nullptr;
  /// Time-series telemetry: with `telemetry_window` > 0 and
  /// `timeseries_out` non-null, a TelemetrySampler rides the run
  /// (ops/retries/failures per window, memory fault counters, in-flight
  /// and bank-health gauges) and its exported series — horizon = the
  /// cycle budget — is written to *timeseries_out on return.
  sim::Cycle telemetry_window = 0;
  std::size_t telemetry_capacity = 0;  ///< 0 = sampler default
  sim::Json* timeseries_out = nullptr;
};

/// The one machine builder benches and the campaign runner share: attaches
/// `memory` (CfmMemory or CodedMemory, fresh) to `engine` (fresh, declared
/// before the memory so it outlives it) and runs the closed-loop workload
/// for `cycles` cycles.  `efficiency` is measured against the memory's own
/// stall-free block time, so 1.0 means "as good as its banks allow".
template <core::BlockMemory Memory>
[[nodiscard]] EfficiencyResult measure_closed_loop(
    sim::Engine& engine, Memory& memory, double rate, double write_fraction,
    sim::Cycle cycles, std::uint64_t seed, const RunHooks& hooks = {});

}  // namespace cfm::workload
