#include "workload/access_gen.hpp"

#include <array>
#include <concepts>
#include <optional>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "mem/coded/coded_memory.hpp"
#include "mem/conventional.hpp"
#include "net/partial_omega.hpp"
#include "sim/rng.hpp"

namespace cfm::workload {
namespace {

struct Access {
  sim::Cycle first_attempt = 0;
  sim::Cycle next_try = 0;
  std::uint32_t module = 0;
  std::uint32_t retries = 0;
};

/// Closed-loop driver: each processor has at most one outstanding block
/// access (it owns exactly one AT path / port), generates a fresh one
/// with probability `rate` per idle cycle, and backs off Uniform[1, beta]
/// after a conflict.  Matching the analytic model, conflicts can only be
/// caused by the *other* processors.
template <typename TryStart, typename PickModule>
EfficiencyResult run_closed_loop(std::uint32_t processors, std::uint32_t beta,
                                 double rate, sim::Cycle cycles,
                                 std::uint64_t seed, TryStart&& try_start,
                                 PickModule&& pick_module) {
  sim::Rng rng(seed);

  struct Proc {
    std::optional<Access> access;  // in flight (retrying)
    sim::Cycle busy_until = 0;     // completion of the started access
    sim::Cycle done_stat_at = 0;
    bool counting = false;
  };
  std::vector<Proc> procs(processors);
  sim::RunningStat access_time;
  sim::RunningStat retry_count;
  std::uint64_t conflicts = 0;
  const sim::Cycle warmup = cycles / 10;

  for (sim::Cycle now = 0; now < cycles; ++now) {
    for (std::uint32_t p = 0; p < processors; ++p) {
      auto& st = procs[p];
      if (st.access.has_value()) {
        auto& a = *st.access;
        if (a.next_try > now) continue;
        const auto done = try_start(p, a, now);
        if (done == sim::kNeverCycle) {
          ++conflicts;
          ++a.retries;
          a.next_try = now + rng.between(1, beta);
        } else {
          if (a.first_attempt >= warmup) {
            access_time.add(static_cast<double>(done - a.first_attempt));
            retry_count.add(static_cast<double>(a.retries));
          }
          st.busy_until = done;
          st.access.reset();
        }
        continue;
      }
      if (now < st.busy_until) continue;  // data still streaming
      if (!rng.chance(rate)) continue;
      Access a;
      a.first_attempt = now;
      a.next_try = now;
      a.module = pick_module(p, rng);
      const auto done = try_start(p, a, now);
      if (done == sim::kNeverCycle) {
        ++conflicts;
        ++a.retries;
        a.next_try = now + rng.between(1, beta);
        st.access = a;
      } else {
        if (a.first_attempt >= warmup) {
          access_time.add(static_cast<double>(done - a.first_attempt));
          retry_count.add(0.0);
        }
        st.busy_until = done;
      }
    }
  }

  EfficiencyResult out;
  out.completed = access_time.count();
  out.conflicts = conflicts;
  out.mean_access_time = access_time.mean();
  out.efficiency = access_time.count() == 0
                       ? 1.0
                       : static_cast<double>(beta) / access_time.mean();
  // Accesses still retrying when the budget ran out are cut off exactly
  // because they retried the longest, so a finished-only mean_retries is
  // survivorship-biased low — the retry-side twin of the completion-side
  // `unfinished` fix.  Their access *times* stay excluded (an unfinished
  // access has no completion to measure; `unfinished` bounds that bias),
  // but their retry counts are facts and fold into the statistic under
  // the same warmup filter the finished samples use.
  for (const auto& st : procs) {
    if (!st.access.has_value()) continue;
    ++out.unfinished;
    out.unfinished_retries += st.access->retries;
    if (st.access->first_attempt >= warmup) {
      retry_count.add(static_cast<double>(st.access->retries));
    }
  }
  out.mean_retries = retry_count.mean();
  return out;
}

}  // namespace

EfficiencyResult measure_conventional(std::uint32_t processors,
                                      std::uint32_t modules,
                                      std::uint32_t beta, double rate,
                                      sim::Cycle cycles, std::uint64_t seed) {
  mem::ConventionalMemory memory(modules, beta);
  return run_closed_loop(
      processors, beta, rate, cycles, seed,
      [&](std::uint32_t, const Access& a, sim::Cycle now) {
        return memory.try_start(a.module, now);
      },
      [&](std::uint32_t, sim::Rng& rng) {
        return static_cast<std::uint32_t>(rng.below(modules));
      });
}

EfficiencyResult measure_partial_cfm(std::uint32_t processors,
                                     std::uint32_t modules, std::uint32_t beta,
                                     double rate, double locality,
                                     sim::Cycle cycles, std::uint64_t seed) {
  net::PartialCfmFabric fabric(processors, modules, beta);
  return run_closed_loop(
      processors, beta, rate, cycles, seed,
      [&](std::uint32_t p, const Access& a, sim::Cycle now) {
        return fabric.try_access(p, a.module, now);
      },
      [&](std::uint32_t p, sim::Rng& rng) {
        const auto home = fabric.home_module(p);
        if (modules == 1 || rng.chance(locality)) return home;
        // Uniform over the other m-1 modules.
        auto pick = static_cast<std::uint32_t>(rng.below(modules - 1));
        return pick >= home ? pick + 1 : pick;
      });
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
