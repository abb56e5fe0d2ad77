// Shared command-line plumbing for the bench harnesses.
//
// Every bench prints its human-readable table to stdout exactly as
// before; with `--json-out <path>` it additionally serializes a
// cfm::sim::Report (schema "cfm-bench-report/v1") so CI can diff the
// numbers and archive them as artifacts.  Keeping the flag parsing and
// the exit-code convention here means each bench main() only has to
// fill in its Report.
//
// Observability flags (consumed only by benches that support them):
//   --audit             attach the runtime ConflictAuditor; the bench
//                       adds the "audit" report section and fails when a
//                       conflict-free scope reports violations
//   --txn-trace <path>  attach the TxnTracer and write its Chrome trace
//                       (chrome://tracing / Perfetto format) to <path>;
//                       the "txn_trace" report section rides --json-out
//   --fault-plan <spec> deterministic fault schedule (sim::FaultPlan
//                       grammar, e.g. "bank_dead@100+500:bank=3"); only
//                       benches that model degradation consume it
//   --seed <u64>        override the bench's built-in workload seed, so
//                       campaigns and CI can vary seeds without a rebuild
//   --fast-path <0|1>   force the engine's batch-tick fast path off/on for
//                       every engine the bench constructs (DESIGN.md §12);
//                       bit-exact either way, so this only changes speed
//   --max-span <N>      cap span fusion at N cycles (default 64)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "sim/engine.hpp"
#include "sim/report.hpp"

namespace cfm::bench {

struct Options {
  std::string json_out;   ///< empty = table output only
  std::string txn_trace_out;  ///< empty = transaction tracing off
  std::string fault_plan;     ///< empty = no injected faults
  bool audit = false;         ///< attach the conflict auditor
  /// Workload seed override; benches use `opts.seed.value_or(<default>)`
  /// so the built-in numbers stay reproducible when the flag is absent.
  std::optional<std::uint64_t> seed;
};

/// Consumes `--flag <value>` / `--flag=<value>` at argv[i] into `out` and
/// returns true; false when argv[i] is another flag.  A value flag given
/// as the last argument is diagnosed explicitly ("missing value for
/// --json-out") and exits 2.
inline bool value_flag(int argc, char** argv, int& i, const char* flag,
                       std::string& out) {
  const std::string arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
      std::exit(2);
    }
    out = argv[++i];
    return true;
  }
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

/// value_flag for an unsigned integer; a malformed value exits 2.
inline bool uint_flag(int argc, char** argv, int& i, const char* flag,
                      std::optional<std::uint64_t>& out) {
  std::string text;
  if (!value_flag(argc, argv, i, flag, text)) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: %s wants an unsigned integer, got '%s'\n",
                 argv[0], flag, text.c_str());
    std::exit(2);
  }
  out = static_cast<std::uint64_t>(v);
  return true;
}

/// Installs `--fast-path` / `--max-span` as the process-wide engine tuning
/// (a no-op when neither flag was given).
inline void set_tuning(const std::optional<std::uint64_t>& fast_path,
                       const std::optional<std::uint64_t>& max_span) {
  if (!fast_path.has_value() && !max_span.has_value()) return;
  sim::EngineTuning tuning;
  if (fast_path.has_value()) tuning.fast_path = *fast_path != 0;
  if (max_span.has_value()) {
    tuning.max_span = static_cast<sim::Cycle>(*max_span);
  }
  sim::set_engine_tuning(tuning);
}

/// Parses `--json-out <path>`, `--audit`, `--txn-trace <path>`,
/// `--fault-plan <spec>`, `--seed <u64>`, `--fast-path <0|1>` and
/// `--max-span <N>` (value flags also as `--flag=<value>`).  Unknown
/// arguments print usage and exit(2) so a typo cannot silently drop the
/// report.  The fault-plan spec itself is validated by the consuming bench
/// (sim::FaultPlan::parse throws std::invalid_argument; benches exit(2) on
/// a malformed spec).
inline Options parse_options(int argc, char** argv) {
  Options opts;
  std::optional<std::uint64_t> fast_path;
  std::optional<std::uint64_t> max_span;
  for (int i = 1; i < argc; ++i) {
    if (value_flag(argc, argv, i, "--json-out", opts.json_out) ||
        value_flag(argc, argv, i, "--txn-trace", opts.txn_trace_out) ||
        value_flag(argc, argv, i, "--fault-plan", opts.fault_plan) ||
        uint_flag(argc, argv, i, "--seed", opts.seed) ||
        uint_flag(argc, argv, i, "--fast-path", fast_path) ||
        uint_flag(argc, argv, i, "--max-span", max_span)) {
      continue;
    }
    if (std::string(argv[i]) == "--audit") {
      opts.audit = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json-out <path>] [--audit] "
                   "[--txn-trace <path>] [--fault-plan <spec>] "
                   "[--seed <u64>] [--fast-path <0|1>] [--max-span <N>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  set_tuning(fast_path, max_span);
  return opts;
}

/// Writes the report if requested and returns the process exit code:
/// `code` normally, 1 when the report file cannot be written (a bench
/// that passed but lost its artifact must still fail CI).
inline int finish(const Options& opts, const sim::Report& report,
                  int code = 0) {
  if (opts.json_out.empty()) return code;
  if (!report.write_file(opts.json_out)) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 opts.json_out.c_str());
    return 1;
  }
  std::printf("\nreport written to %s\n", opts.json_out.c_str());
  return code;
}

}  // namespace cfm::bench
