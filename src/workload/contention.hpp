// The synchronous contention loop behind every try_start baseline
// (DESIGN.md §4c): the conventional memory (Fig 2.1, §3.4.1), the
// partially conflict-free fabric (§3.4.2) and shared AT slots (§7.2).
//
// Each processor has at most one access outstanding and offers nothing
// new until it completes, so its conflicts come only from the others.  A
// conflicting access backs off Uniform[1, β] cycles and tries again
// without bound (the analytic model's mean-β/2 assumption); this loop is
// the only place that back-off is drawn.  try_start(p, module, now)
// returns the completion cycle or sim::kNeverCycle.  The request source
// is a template parameter, as in PortDriver, and provides
//
//   bool next(sim::ProcessorId, sim::Cycle now, sim::Rng&,
//             std::uint32_t& module);  an idle processor's next access,
//                                      drawn from the loop's one Rng
//   bool drained() const;              nothing left to offer
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

struct ContentionStats {
  /// First attempt -> completion, of accesses first tried from warmup on.
  sim::RunningStat access_time;
  /// Retries per sampled access, those still backing off included (the
  /// cutoff catches exactly the most-retried ones).
  sim::RunningStat retries;
  std::uint64_t conflicts = 0;
  std::uint64_t unfinished = 0;  ///< accesses backing off at the end
  std::uint64_t unfinished_retries = 0;
  /// One past the latest completion, or the cycle the loop stopped at if
  /// that is later (a cutoff).
  sim::Cycle makespan = 0;
};

/// Every cycle, each idle processor offers an access with probability
/// `rate`, to the module `pick(p, rng)` chooses.
template <class Pick>
struct BernoulliArrivals {
  double rate;
  Pick pick;

  bool next(sim::ProcessorId p, sim::Cycle, sim::Rng& rng,
            std::uint32_t& module) {
    if (!rng.chance(rate)) return false;
    module = pick(p, rng);
    return true;
  }
  [[nodiscard]] static constexpr bool drained() noexcept { return false; }
};

/// Runs for `cycles` cycles, or until the source is drained and every
/// access has started.
template <class Source, class TryStart>
ContentionStats run_contention(std::uint32_t processors, std::uint32_t beta,
                               sim::Cycle cycles, sim::Cycle warmup,
                               std::uint64_t seed, Source& source,
                               TryStart&& try_start) {
  struct Port {
    sim::Cycle first_attempt = 0;
    sim::Cycle next_try = 0;
    sim::Cycle busy_until = 0;  ///< completion of the started access
    std::uint32_t module = 0;
    std::uint32_t retries = 0;
    bool backing_off = false;
  };
  std::vector<Port> ports(processors);
  sim::Rng rng(seed);
  ContentionStats out;
  std::uint64_t backing_off = 0;
  sim::Cycle now = 0;
  // Starts the port's access, or schedules its next try.
  const auto attempt = [&](sim::ProcessorId p, Port& port) {
    const auto done = try_start(p, port.module, now);
    if (done == sim::kNeverCycle) {
      ++out.conflicts;
      ++port.retries;
      port.next_try = now + rng.between(1, beta);
      return false;
    }
    if (port.first_attempt >= warmup) {
      out.access_time.add(static_cast<double>(done - port.first_attempt));
      out.retries.add(static_cast<double>(port.retries));
    }
    port.busy_until = done;
    out.makespan = std::max(out.makespan, done + 1);
    return true;
  };

  for (; now < cycles && (backing_off > 0 || !source.drained()); ++now) {
    for (sim::ProcessorId p = 0; p < processors; ++p) {
      auto& port = ports[p];
      if (port.backing_off) {
        if (port.next_try <= now && attempt(p, port)) {
          port.backing_off = false;
          --backing_off;
        }
      } else if (now >= port.busy_until &&
                 source.next(p, now, rng, port.module)) {
        port.first_attempt = now;
        port.retries = 0;
        port.backing_off = !attempt(p, port);
        backing_off += port.backing_off ? 1 : 0;
      }
    }
  }
  out.makespan = std::max(out.makespan, now);
  for (const auto& port : ports) {
    if (!port.backing_off) continue;
    ++out.unfinished;
    out.unfinished_retries += port.retries;
    if (port.first_attempt >= warmup) {
      out.retries.add(static_cast<double>(port.retries));
    }
  }
  return out;
}

}  // namespace cfm::workload
