// Block-access trace record / replay.
//
// Traces decouple workload generation from machine evaluation: the same
// access stream can be replayed against the CFM machine and against the
// conventional baseline, which is how the ablation benches hold the
// workload constant while swapping the memory system.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/audit.hpp"
#include "sim/txn_trace.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

struct TraceRecord {
  sim::Cycle issue = 0;           ///< earliest cycle the access may start
  sim::ProcessorId proc = 0;
  bool is_write = false;
  std::uint32_t module = 0;
  sim::BlockAddr offset = 0;
};

class Trace {
 public:
  void add(const TraceRecord& rec) { records_.push_back(rec); }
  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Serialization: one "cycle proc rw module offset" line per record.
  void save(std::ostream& os) const;
  /// Throws std::invalid_argument on malformed input (a line that is not
  /// five whitespace-separated numeric fields).
  [[nodiscard]] static Trace load(std::istream& is);

  /// Throws std::invalid_argument unless every record satisfies
  /// `proc < processors` (and, when `modules` is nonzero,
  /// `module < modules`).  The replay entry points call this so that a
  /// hostile or corrupted trace fails loudly in release builds instead of
  /// indexing out of bounds.
  void validate(std::uint32_t processors, std::uint32_t modules = 0) const;

  /// Uniform random trace: `accesses` block accesses over `cycles` cycles,
  /// `processors` processors, `modules` modules, `blocks` distinct offsets,
  /// `write_fraction` of them writes.
  [[nodiscard]] static Trace uniform(std::uint32_t processors,
                                     std::uint32_t modules,
                                     sim::BlockAddr blocks,
                                     std::size_t accesses, sim::Cycle cycles,
                                     double write_fraction, std::uint64_t seed);

 private:
  std::vector<TraceRecord> records_;
};

/// Outcome of one trace replay.
struct ReplayResult {
  double mean_latency = 0.0;
  std::uint64_t completed = 0;
  /// CFM: writes a later same-address write superseded (§4.1).
  std::uint64_t aborted_writes = 0;
  /// CFM: tour restarts of completed accesses; conventional: conflict
  /// retries.
  std::uint64_t restarts = 0;
  /// Records still queued or in flight when the replay hit its internal
  /// cycle budget.  Nonzero means the replay was truncated and
  /// `completed`/`mean_latency` describe only the drained prefix.
  std::uint64_t unfinished = 0;
  /// One past the last completion (or the budget, when truncated).
  sim::Cycle makespan = 0;
};

/// Replays a trace against a conflict-free memory (module field ignored)
/// as a PortDriver source on an Engine; latency is pinned at beta.  The
/// optional transaction tracer and conflict auditor attach to the replay
/// memory.  Each record's trace `issue` cycle feeds the tracer's queue
/// hints, so a record that waited behind its processor's previous access
/// shows the wait as a Queue span.
[[nodiscard]] ReplayResult replay_on_cfm(const Trace& trace,
                                         std::uint32_t processors,
                                         std::uint32_t bank_cycle,
                                         sim::TxnTracer* tracer = nullptr,
                                         sim::ConflictAuditor* auditor =
                                             nullptr);

/// Replays the same trace against the conventional contended memory on
/// the contention loop (module field used; conflicts retried with
/// Uniform[1, beta] back-off).
[[nodiscard]] ReplayResult replay_on_conventional(const Trace& trace,
                                                  std::uint32_t processors,
                                                  std::uint32_t modules,
                                                  std::uint32_t beta,
                                                  std::uint64_t seed);

}  // namespace cfm::workload
