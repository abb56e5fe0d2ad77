#include "workload/access_gen.hpp"

#include <array>
#include <concepts>
#include <optional>

#include "cfm/cfm_memory.hpp"
#include "cfm/shared_slot.hpp"
#include "mem/coded/coded_memory.hpp"
#include "mem/conventional.hpp"
#include "net/partial_omega.hpp"
#include "workload/contention.hpp"

namespace cfm::workload {
namespace {

/// Efficiency of a contention-loop run against block time `beta`.
EfficiencyResult efficiency_of(const ContentionStats& s, std::uint32_t beta) {
  EfficiencyResult out;
  out.completed = s.access_time.count();
  out.conflicts = s.conflicts;
  out.mean_access_time = s.access_time.mean();
  out.efficiency = s.access_time.count() == 0
                       ? 1.0
                       : static_cast<double>(beta) / s.access_time.mean();
  out.mean_retries = s.retries.mean();
  out.unfinished = s.unfinished;
  out.unfinished_retries = s.unfinished_retries;
  return out;
}

}  // namespace

EfficiencyResult measure_conventional(std::uint32_t processors,
                                      std::uint32_t modules,
                                      std::uint32_t beta, double rate,
                                      sim::Cycle cycles, std::uint64_t seed) {
  mem::ConventionalMemory memory(modules, beta);
  BernoulliArrivals source{rate, [modules](sim::ProcessorId, sim::Rng& rng) {
                             return static_cast<std::uint32_t>(
                                 rng.below(modules));
                           }};
  return efficiency_of(
      run_contention(processors, beta, cycles, cycles / 10, seed, source,
                     [&memory](sim::ProcessorId, std::uint32_t module,
                               sim::Cycle now) {
                       return memory.try_start(module, now);
                     }),
      beta);
}

EfficiencyResult measure_partial_cfm(std::uint32_t processors,
                                     std::uint32_t modules, std::uint32_t beta,
                                     double rate, double locality,
                                     sim::Cycle cycles, std::uint64_t seed) {
  net::PartialCfmFabric fabric(processors, modules, beta);
  BernoulliArrivals source{
      rate, [&fabric, modules, locality](sim::ProcessorId p, sim::Rng& rng) {
        const auto home = fabric.home_module(p);
        if (modules == 1 || rng.chance(locality)) return home;
        // Uniform over the other m-1 modules.
        auto pick = static_cast<std::uint32_t>(rng.below(modules - 1));
        return pick >= home ? pick + 1 : pick;
      }};
  return efficiency_of(
      run_contention(processors, beta, cycles, cycles / 10, seed, source,
                     [&fabric](sim::ProcessorId p, std::uint32_t module,
                               sim::Cycle now) {
                       return fabric.try_access(p, module, now);
                     }),
      beta);
}

SharedSlotResult measure_shared_slots(std::uint32_t processors,
                                      std::uint32_t slots, std::uint32_t beta,
                                      double rate, sim::Cycle cycles,
                                      std::uint64_t seed) {
  core::SharedSlotFabric fabric(processors, slots, beta);
  BernoulliArrivals source{
      rate, [](sim::ProcessorId, sim::Rng&) { return std::uint32_t{0}; }};
  const auto stats = run_contention(
      processors, beta, cycles, cycles / 10, seed, source,
      [&fabric](sim::ProcessorId p, std::uint32_t, sim::Cycle now) {
        return fabric.try_access(p, now);
      });
  SharedSlotResult out;
  out.completed = stats.access_time.count();
  out.conflicts = fabric.conflicts();
  out.efficiency = efficiency_of(stats, beta).efficiency;
  out.utilization = fabric.utilization(cycles);
  return out;
}

EfficiencyResult measure_cfm(std::uint32_t processors, std::uint32_t bank_cycle,
                             double rate, sim::Cycle cycles,
                             std::uint64_t seed) {
  sim::Engine engine;
  core::CfmMemory memory(core::CfmConfig::make(processors, bank_cycle));
  return measure_closed_loop(engine, memory, rate, 0.0, cycles, seed);
}

template <core::BlockMemory Memory>
EfficiencyResult measure_closed_loop(sim::Engine& engine, Memory& memory,
                                     double rate, double write_fraction,
                                     sim::Cycle cycles, std::uint64_t seed,
                                     const RunHooks& hooks) {
  constexpr bool kCoded = std::same_as<Memory, mem::coded::CodedMemory>;
  const auto domain = engine.allocate_domain();
  auto& shard = engine.shard(domain);
  memory.attach(engine, domain);
  ClosedLoopDriver<Memory> driver(
      kCoded ? "workload.coded_driver" : "workload.cfm_driver", domain, memory,
      seed, ClosedLoop(rate, shard, write_fraction));
  engine.add(driver);
  std::optional<sim::TelemetrySampler> telemetry;
  if (hooks.telemetry_window > 0 && hooks.timeseries_out != nullptr) {
    telemetry.emplace(
        kCoded ? "workload.coded_telemetry" : "workload.telemetry",
        hooks.telemetry_window,
        hooks.telemetry_capacity != 0
            ? hooks.telemetry_capacity
            : sim::TelemetrySampler::kDefaultCapacity);
    for (const char* name : {"ops_completed", "ops_retried", "ops_failed"}) {
      telemetry->add_counter(
          name, [&shard, name] { return shard.counters.get(name); });
    }
    constexpr std::array<const char*, 5> kMemoryCounters =
        kCoded ? std::array<const char*, 5>{"word_reads_decoded",
                                            "word_writes_decoded",
                                            "parity_updates", "bank_failures",
                                            "fault_aborts"}
               : std::array<const char*, 5>{"fault_restarts", "bank_failures",
                                            "bank_remaps", "brownouts",
                                            "fault_aborts"};
    for (const char* name : kMemoryCounters) {
      telemetry->add_counter(std::string("mem.") + name, [&memory, name] {
        return memory.counters().get(name);
      });
    }
    telemetry->add_gauge("in_flight", [&driver](sim::Cycle) {
      return static_cast<double>(driver.in_flight());
    });
    telemetry->add_gauge("live_banks", [&memory](sim::Cycle) {
      return static_cast<double>(memory.live_banks());
    });
    if constexpr (kCoded) {
      telemetry->add_gauge("stripe_queue_depth", [&memory](sim::Cycle) {
        return static_cast<double>(memory.pending_parity());
      });
    }
    if (const auto* inj = memory.fault_injector()) {
      telemetry->add_gauge("active_faults", [inj](sim::Cycle now) {
        return static_cast<double>(inj->active_count(now));
      });
    }
    engine.add(*telemetry);
  }
  engine.run_for(cycles);
  if (telemetry) *hooks.timeseries_out = telemetry->to_json(cycles);
  if (hooks.counters_out != nullptr) {
    hooks.counters_out->merge(shard.counters);
    hooks.counters_out->merge(memory.counters());
  }
  const auto it = shard.running.find("access_time");
  if (hooks.access_time_out != nullptr && it != shard.running.end()) {
    hooks.access_time_out->merge(it->second);
  }

  const auto completed = driver.source().completed();
  const auto failed = driver.source().failed();
  const double mean_time = it == shard.running.end() ? 0.0 : it->second.mean();
  EfficiencyResult out;
  out.completed = completed;
  out.conflicts = 0;
  out.mean_access_time = mean_time;
  out.efficiency =
      completed == 0
          ? 1.0
          : static_cast<double>(memory.config().block_access_time()) /
                mean_time;
  out.unfinished = driver.in_flight();
  out.unfinished_retries = driver.in_flight_retries();
  out.failed = failed;
  // Retry accounting over the whole issued population — resolved *and*
  // in flight.  ops_retried counts every retry event (fault path), so
  // dividing by finished accesses alone would overstate the mean exactly
  // when the budget cut off the most-retried accesses.
  const auto issued_population = completed + failed + driver.in_flight();
  out.mean_retries =
      issued_population == 0
          ? 0.0
          : static_cast<double>(shard.counters.get("ops_retried")) /
                static_cast<double>(issued_population);
  return out;
}

template EfficiencyResult measure_closed_loop(sim::Engine&, core::CfmMemory&,
                                              double, double, sim::Cycle,
                                              std::uint64_t, const RunHooks&);
template EfficiencyResult measure_closed_loop(sim::Engine&,
                                              mem::coded::CodedMemory&, double,
                                              double, sim::Cycle,
                                              std::uint64_t, const RunHooks&);

}  // namespace cfm::workload
