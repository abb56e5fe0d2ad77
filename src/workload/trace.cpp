#include "workload/trace.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "mem/conventional.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "workload/contention.hpp"
#include "workload/port_driver.hpp"

namespace cfm::workload {

void Trace::save(std::ostream& os) const {
  for (const auto& r : records_) {
    os << r.issue << ' ' << r.proc << ' ' << (r.is_write ? 1 : 0) << ' '
       << r.module << ' ' << r.offset << '\n';
  }
}

Trace Trace::load(std::istream& is) {
  Trace t;
  TraceRecord r;
  int rw = 0;
  while (is >> r.issue >> r.proc >> rw >> r.module >> r.offset) {
    r.is_write = rw != 0;
    t.add(r);
  }
  // The loop also stops on a malformed field; distinguish that from a
  // clean end of input so corrupted traces fail loudly instead of being
  // silently truncated.
  if (is.fail() && !is.eof()) {
    throw std::invalid_argument(
        "Trace::load: malformed record after " +
        std::to_string(t.size()) + " record(s)");
  }
  return t;
}

void Trace::validate(std::uint32_t processors, std::uint32_t modules) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    if (r.proc >= processors) {
      throw std::invalid_argument(
          "Trace: record " + std::to_string(i) + " has processor id " +
          std::to_string(r.proc) + " >= " + std::to_string(processors));
    }
    if (modules != 0 && r.module >= modules) {
      throw std::invalid_argument(
          "Trace: record " + std::to_string(i) + " has module id " +
          std::to_string(r.module) + " >= " + std::to_string(modules));
    }
  }
}

Trace Trace::uniform(std::uint32_t processors, std::uint32_t modules,
                     sim::BlockAddr blocks, std::size_t accesses,
                     sim::Cycle cycles, double write_fraction,
                     std::uint64_t seed) {
  sim::Rng rng(seed);
  Trace t;
  for (std::size_t i = 0; i < accesses; ++i) {
    TraceRecord r;
    r.issue = rng.below(cycles);
    r.proc = static_cast<sim::ProcessorId>(rng.below(processors));
    r.is_write = rng.chance(write_fraction);
    r.module = static_cast<std::uint32_t>(rng.below(modules));
    r.offset = rng.below(blocks);
    t.add(r);
  }
  auto recs = t.records_;
  // stable_sort: equal-issue records keep generation order.  A non-stable
  // sort leaves the tie order stdlib-dependent, breaking the hard
  // cross-platform reproducibility requirement (see sim/rng.hpp).
  std::stable_sort(recs.begin(), recs.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.issue < b.issue;
                   });
  t.records_ = std::move(recs);
  return t;
}

namespace {

/// Each processor's records in trace order, handed out once due.  It is
/// also the contention loop's source for replay on a try_start baseline.
class TraceQueues {
 public:
  TraceQueues(const Trace& trace, std::uint32_t processors)
      : queues_(processors), queued_(trace.size()) {
    for (const auto& r : trace.records()) queues_[r.proc].push_back(r);
    for (auto& q : queues_) std::reverse(q.begin(), q.end());  // pop_back
  }

  /// Processor p's next record, if it is due at `now`.
  std::optional<TraceRecord> pop(sim::ProcessorId p, sim::Cycle now) {
    auto& q = queues_[p];
    if (q.empty() || q.back().issue > now) return std::nullopt;
    const auto rec = q.back();
    q.pop_back();
    --queued_;
    return rec;
  }
  bool next(sim::ProcessorId p, sim::Cycle now, sim::Rng&,
            std::uint32_t& module) {
    const auto rec = pop(p, now);
    if (rec) module = rec->module;
    return rec.has_value();
  }
  [[nodiscard]] bool drained() const noexcept { return queued_ == 0; }

  /// The earliest record due after `now`.
  [[nodiscard]] sim::Cycle due_after(sim::Cycle now) const noexcept {
    sim::Cycle at = sim::kNeverCycle;
    for (const auto& q : queues_) {
      if (!q.empty() && q.back().issue > now) {
        at = std::min(at, q.back().issue);
      }
    }
    return at;
  }

 private:
  std::vector<std::vector<TraceRecord>> queues_;
  std::size_t queued_;
};

/// PortDriver source for trace replay on the CFM.  Resolved records are
/// final: a superseded write counts as an aborted write, and the replay
/// has no faults, so nothing is retried.
struct TraceSource {
  using Kind = core::BlockOpKind;

  TraceQueues queues;
  std::size_t unresolved;
  sim::RunningStat latency{};
  ReplayResult out{};
  sim::Cycle now = 0;
  std::vector<sim::Word> data{};

  void admit(sim::Cycle cycle) noexcept { now = cycle; }

  template <class Slot>
  bool next(core::CfmMemory& mem, sim::Cycle cycle, sim::ProcessorId p,
            Slot& slot, sim::Rng&) {
    const auto rec = queues.pop(p, cycle);
    if (!rec) return false;
    if (auto* tracer = mem.txn_tracer()) {
      // The record could have started at rec->issue; any gap until now
      // was spent behind this processor's previous access.
      tracer->queued_since(mem.txn_unit(), p, rec->issue);
    }
    slot.issued = cycle;
    slot.kind = rec->is_write ? Kind::Write : Kind::Read;
    slot.block = rec->offset;
    return true;
  }

  template <class Slot>
  core::CfmMemory::OpToken start(core::CfmMemory& mem, sim::Cycle cycle,
                                 sim::ProcessorId p, const Slot& slot) {
    if (slot.kind == Kind::Read) {
      return mem.issue(cycle, p, slot.kind, slot.block);
    }
    data.assign(mem.block_words(), slot.block + 1);
    return mem.issue(cycle, p, slot.kind, slot.block, data);
  }

  template <class Slot>
  void resolved(const Slot& slot, const core::BlockOpResult& r, Outcome o) {
    if (o == Outcome::Retried) return;
    --unresolved;
    if (o == Outcome::Completed) {
      latency.add(static_cast<double>(r.completed - slot.issued));
      out.restarts += r.restarts;
    } else if (o == Outcome::Superseded) {
      ++out.aborted_writes;
    }
  }

  /// After the port loop no idle port holds a due record, so only future
  /// records wake the driver; busy ports wake it through the memory.
  [[nodiscard]] sim::Cycle wake(bool port_idle) const noexcept {
    return port_idle ? queues.due_after(now) : sim::kNeverCycle;
  }
};

}  // namespace

ReplayResult replay_on_cfm(const Trace& trace, std::uint32_t processors,
                           std::uint32_t bank_cycle, sim::TxnTracer* tracer,
                           sim::ConflictAuditor* auditor) {
  trace.validate(processors);
  sim::Engine engine;
  core::CfmMemory mem(core::CfmConfig::make(processors, bank_cycle));
  if (tracer != nullptr) mem.set_txn_trace(*tracer);
  if (auditor != nullptr) mem.set_audit(*auditor);
  const auto domain = engine.allocate_domain();
  mem.attach(engine, domain);
  PortDriver<core::CfmMemory, TraceSource> driver(
      "workload.trace_replay", domain, mem, /*seed=*/0,
      TraceSource{TraceQueues(trace, processors), trace.size()});
  engine.add(driver);
  const auto& source = driver.source();
  (void)engine.run_until([&source] { return source.unresolved == 0; },
                         1000 + 10ull * mem.config().banks * trace.size());

  ReplayResult out = source.out;
  out.completed = source.latency.count();
  out.mean_latency = source.latency.mean();
  out.unfinished = source.unresolved;
  out.makespan = engine.now();
  return out;
}

ReplayResult replay_on_conventional(const Trace& trace,
                                    std::uint32_t processors,
                                    std::uint32_t modules, std::uint32_t beta,
                                    std::uint64_t seed) {
  trace.validate(processors, modules);
  mem::ConventionalMemory memory(modules, beta);
  TraceQueues source(trace, processors);
  const auto stats = run_contention(
      processors, beta, 1000 + 50ull * beta * trace.size(), /*warmup=*/0,
      seed, source,
      [&memory](sim::ProcessorId, std::uint32_t module, sim::Cycle now) {
        return memory.try_start(module, now);
      });

  ReplayResult out;
  out.completed = stats.access_time.count();
  out.mean_latency = stats.access_time.mean();
  out.restarts = stats.conflicts;  // conventional: retries, not restarts
  out.unfinished = trace.size() - out.completed;
  out.makespan = stats.makespan;
  return out;
}

}  // namespace cfm::workload
