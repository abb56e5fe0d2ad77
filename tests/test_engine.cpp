// Tests for the tick engine: the phase-order contract, determinism of the
// 64-processor hierarchical machine on the reference and fast paths, and
// the wall-clock profiler (phase and domain timings, reset, the Chrome
// trace sink, and that profiling never changes results).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchical.hpp"
#include "cfm/cfm_memory.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm;
using sim::Cycle;
using sim::Engine;
using sim::EngineConfig;
using sim::Phase;
using sim::StatShard;

// -------------------------------------------------------- phase order --

// Work done by the independent domains in phase k must be visible to the
// shared-domain components of phase k+1, every cycle, on the reference
// path and on the fast path alike.
TEST(Engine, PhaseOrderMakesDomainWritesVisible) {
  constexpr std::size_t kDomains = 32;
  for (const bool fast : {false, true}) {
    Engine engine(EngineConfig{.fast_path = fast});
    std::vector<std::uint64_t> slots(kDomains, 0);
    for (std::size_t i = 0; i < kDomains; ++i) {
      const auto d = engine.allocate_domain();
      engine.add(std::make_shared<sim::LambdaComponent>(
          "writer#" + std::to_string(i), d, Phase::Issue,
          [&slots, i](Cycle now) { slots[i] = now + 1; }));
    }
    std::uint64_t mismatches = 0;
    engine.on(Phase::Network, [&slots, &mismatches](Cycle now) {
      for (auto v : slots) {
        if (v != now + 1) ++mismatches;
      }
    });
    engine.run_for(500);
    EXPECT_EQ(mismatches, 0u) << "fast_path=" << fast;
  }
}

// ------------------------------------------------------------- helpers --

void expect_same_stats(const StatShard& a, const StatShard& b) {
  EXPECT_EQ(a.counters.all(), b.counters.all());
  ASSERT_EQ(a.running.size(), b.running.size());
  auto ib = b.running.begin();
  for (const auto& [name, stat] : a.running) {
    EXPECT_EQ(name, ib->first);
    EXPECT_EQ(stat.count(), ib->second.count()) << name;
    EXPECT_EQ(stat.mean(), ib->second.mean()) << name;
    EXPECT_EQ(stat.min(), ib->second.min()) << name;
    EXPECT_EQ(stat.max(), ib->second.max()) << name;
    EXPECT_EQ(stat.variance(), ib->second.variance()) << name;
    ++ib;
  }
}

// A multi-module machine: independent CfmMemory instances, each with its
// own closed-loop driver in its own tick domain.
struct ModuleFarm {
  std::vector<std::unique_ptr<core::CfmMemory>> mems;
  std::vector<std::unique_ptr<workload::ClosedLoopDriver<core::CfmMemory>>>
      drivers;

  void build(Engine& engine, std::uint32_t modules, std::uint32_t procs) {
    for (std::uint32_t m = 0; m < modules; ++m) {
      mems.push_back(std::make_unique<core::CfmMemory>(
          core::CfmConfig::make(procs, 2)));
      const auto domain = engine.allocate_domain();
      mems.back()->attach(engine, domain);
      drivers.push_back(
          std::make_unique<workload::ClosedLoopDriver<core::CfmMemory>>(
              "driver#" + std::to_string(m), domain, *mems.back(),
              /*seed=*/0xfeedULL + m,
              workload::ClosedLoop(0.7, engine.shard(domain))));
      engine.add(*drivers.back());
    }
  }
};

// ----------------------------------------- hierarchical acceptance test --

// Shared-domain request generator for a HierarchicalCfm: issues reads and
// writes from 64 processors over a small shared block set (so lines
// migrate between clusters and the dirty-remote chains exercise the
// cross-domain controller) and records every outcome in processor order.
class HierDriver final : public sim::Component {
 public:
  struct Record {
    sim::ProcessorId proc;
    cache::HierarchicalCfm::AccessClass cls;
    bool is_write;
    Cycle issued;
    Cycle completed;
    std::uint32_t invalidations;
    bool operator==(const Record&) const = default;
  };

  HierDriver(cache::HierarchicalCfm& sys, std::uint64_t seed)
      : Component("test.hier_driver", sim::kSharedDomain,
                  sim::phase_bit(Phase::Issue)),
        sys_(sys),
        rng_(seed),
        pending_(sys.processor_count(), 0) {}

  void tick_phase(Phase, Cycle now) override {
    const auto n = static_cast<sim::ProcessorId>(pending_.size());
    for (sim::ProcessorId p = 0; p < n; ++p) {
      if (pending_[p] != 0) {
        if (auto r = sys_.take_result(pending_[p])) {
          outcomes.push_back({p, r->cls, r->is_write, r->issued, r->completed,
                              r->invalidations});
          pending_[p] = 0;
        }
      }
      if (pending_[p] == 0 && sys_.processor_idle(p) && rng_.chance(0.3)) {
        const auto offset = static_cast<sim::BlockAddr>(rng_.below(24));
        if (rng_.chance(0.25)) {
          pending_[p] = sys_.write(now, p, offset, /*word_index=*/0,
                                   static_cast<sim::Word>(now & 0xff));
        } else {
          pending_[p] = sys_.read(now, p, offset);
        }
      }
    }
  }

  std::vector<Record> outcomes;

 private:
  cache::HierarchicalCfm& sys_;
  sim::Rng rng_;
  std::vector<cache::HierarchicalCfm::ReqId> pending_;
};

struct HierRig {
  cache::HierarchicalCfm sys;
  HierDriver driver;
  std::vector<std::vector<std::string>> traces;  // one per cluster

  explicit HierRig(Engine& engine)
      : sys({.clusters = 8, .procs_per_cluster = 8}), driver(sys, 0xc0ffee) {
    sys.attach(engine);
    engine.add(driver);
    traces.resize(8);
    for (std::uint32_t c = 0; c < 8; ++c) {
      auto* sink = &traces[c];
      sys.cluster_memory(c).set_trace(
          [sink](std::string_view line) { sink->emplace_back(line); });
    }
  }
};

// The reference path and the fast path produce identical counters, op
// results, and per-domain trace event sequences on a 64-processor
// hierarchical workload.
TEST(Engine, HierarchicalWorkloadIsDeterministic) {
  constexpr Cycle kCycles = 4000;

  Engine reference(EngineConfig{.fast_path = false});
  HierRig a(reference);
  reference.run_for(kCycles);

  Engine fast;
  HierRig b(fast);
  fast.run_for(kCycles);

  // Each cluster memory became its own tick domain, plus shared.
  EXPECT_EQ(fast.domain_count(), 9u);

  // Op results, in the deterministic harvest order.
  ASSERT_GT(a.driver.outcomes.size(), 100u);
  EXPECT_EQ(a.driver.outcomes, b.driver.outcomes);

  // Protocol and per-memory counters.
  EXPECT_EQ(a.sys.counters().all(), b.sys.counters().all());
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(a.sys.cluster_memory(c).counters().all(),
              b.sys.cluster_memory(c).counters().all());
  }
  EXPECT_EQ(a.sys.global_memory().counters().all(),
            b.sys.global_memory().counters().all());

  // Per-domain trace event sequences (bank accesses, restarts,
  // completions inside each cluster's tick domain).
  bool any_trace = false;
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(a.traces[c], b.traces[c]) << "cluster " << c;
    any_trace = any_trace || !a.traces[c].empty();
  }
  EXPECT_TRUE(any_trace);

  // Both machines end in a coherent state.
  EXPECT_TRUE(a.sys.check_state_coupling());
  EXPECT_TRUE(b.sys.check_state_coupling());
}

// ------------------------------------------------------------ profiler --

// The profiler reports per-phase and per-domain wall times.
TEST(Engine, ProfilerReportsPhaseAndDomainTimings) {
  constexpr std::uint32_t kModules = 8;
  constexpr Cycle kCycles = 400;

  Engine engine;
  ModuleFarm farm;
  farm.build(engine, kModules, 8);
  engine.enable_profiling();
  engine.run_for(kCycles);

  const auto& prof = engine.profile();
  EXPECT_EQ(prof.cycles, kCycles);

  // One sample per cycle, every phase, and nonzero accumulated time.
  double total = 0.0;
  for (const auto& phase : prof.phases) {
    EXPECT_EQ(phase.total_us.count(), kCycles);
    EXPECT_EQ(phase.shared_us.count(), kCycles);
    EXPECT_EQ(phase.domains_us.count(), kCycles);
    total += phase.total_us.sum();
  }
  EXPECT_GT(total, 0.0);

  // Every independent domain ticked and accrued time.
  ASSERT_EQ(prof.domain_us.size(), kModules + 1);
  EXPECT_EQ(prof.domain_us[sim::kSharedDomain], 0.0);
  double domain_total = 0.0;
  for (std::size_t d = 1; d < prof.domain_us.size(); ++d) {
    domain_total += prof.domain_us[d];
  }
  EXPECT_GT(domain_total, 0.0);

  // The profile serializes into the report schema's section shape:
  // cycles, per-phase {total,shared,domains}_us, per-domain totals.
  const auto j = prof.to_json();
  EXPECT_EQ(j.at("cycles").as_uint(), kCycles);
  EXPECT_EQ(j.at("domains").size(), kModules);
  const auto& issue = j.at("phases").at("issue");
  for (const char* key : {"total_us", "shared_us", "domains_us"}) {
    EXPECT_TRUE(issue.at(key).is_object()) << key;
  }
  EXPECT_EQ(issue.size(), 3u);
  EXPECT_EQ(j.size(), 3u);
}

TEST(Engine, ResetProfileClearsCollectedSamples) {
  Engine engine;
  engine.on(Phase::Memory, [](Cycle) {});
  engine.enable_profiling();
  engine.run_for(10);
  EXPECT_EQ(engine.profile().cycles, 10u);
  engine.reset_profile();
  EXPECT_EQ(engine.profile().cycles, 0u);
  engine.run_for(5);
  EXPECT_EQ(engine.profile().cycles, 5u);
}

// Results are identical WITH profiling enabled — the profiler only reads
// clocks.  (Profiling runs the reference schedule, so this also holds the
// unprofiled fast path to it.)
TEST(Engine, ProfilingDoesNotPerturbResults) {
  constexpr std::uint32_t kModules = 8;
  constexpr std::uint32_t kProcs = 8;
  constexpr Cycle kCycles = 800;

  Engine plain;  // profiling off
  ModuleFarm a;
  a.build(plain, kModules, kProcs);
  plain.run_for(kCycles);

  Engine profiled;
  ModuleFarm b;
  b.build(profiled, kModules, kProcs);
  profiled.enable_profiling();
  profiled.run_for(kCycles);

  expect_same_stats(plain.merged_stats(), profiled.merged_stats());
  for (std::uint32_t m = 0; m < kModules; ++m) {
    EXPECT_GT(a.drivers[m]->source().completed(), 0u);
    EXPECT_EQ(a.drivers[m]->source().completed(),
              b.drivers[m]->source().completed());
    EXPECT_EQ(a.mems[m]->counters().all(), b.mems[m]->counters().all());
    for (std::uint32_t p = 0; p < kProcs; ++p) {
      const sim::BlockAddr addr = 1000 + p * 7919;
      EXPECT_EQ(a.mems[m]->peek_block(addr), b.mems[m]->peek_block(addr));
    }
  }
}

TEST(Engine, ChromeTraceSinkRecordsPhaseEvents) {
  Engine engine;
  ModuleFarm farm;
  farm.build(engine, 2, 4);
  sim::ChromeTrace trace;
  engine.set_chrome_trace(&trace);
  engine.enable_profiling();
  engine.run_for(3);
  // At least one duration event per phase per cycle while profiling.
  EXPECT_GE(trace.event_count(), 3 * sim::kPhaseCount);
}

}  // namespace
