// perfbench runner: runs one benchmark workload once, in this process.
//
//   perfbench_plain  --workload <name> --seed <n> --out <dir>
//   perfbench_traced --workload <name> --seed <n> --out <dir>
//
// The workload is built only through public entry points that outlive the
// engine and driver rewrites: serve::Server + serve::synth_requests,
// cache::HierarchicalCfm + workload::HierDriver on a serial sim::Engine,
// and campaign::Scenario + campaign::run_campaign.  Set-up (input
// generation, construction, warm-up) runs a fixed number of times per
// workload, back to back, each set-up replacing the last, in groups that
// are timed as one interval each, so every interval is milliseconds long
// even where one set-up is sub-millisecond.  The measured phase runs once
// on the last set-up, in fixed segments that are timed one by one.  Set-up
// groups and segments do the same work in every process for a seed, so
// run.py can take each at its fastest across processes.  The simulated
// outputs are written under --out for run.py to hash and validate, and one
// JSON line of host-side measurements goes to stdout.
//
// The traced binary (the one with the counting allocator) also times the
// calls into each layer from here, counts heap allocations, and adds the
// per-layer metrics from short same-run slices and probes.  None of that feeds the simulated
// outputs, so traced and untraced runs must write identical files.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "cache/hierarchical.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "cfm/att.hpp"
#include "cfm/cfm_memory.hpp"
#include "cfm/config.hpp"
#include "mem/backing_store.hpp"
#include "mem/bank.hpp"
#include "serve/arrival.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "workload/hier_driver.hpp"

namespace {

using namespace cfm;
using sim::Json;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process image.  VmHWM starts afresh at exec,
/// unlike getrusage's ru_maxrss, which keeps the forking parent's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Probe results land here so the timed loops cannot be optimised away.
volatile std::uint64_t g_probe_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

void write_json(const std::string& path, const Json& doc) {
  std::ofstream os(path);
  if (os) {
    doc.dump_to(os, 2);
    os << '\n';
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string out;
  bool trace = perfbench::heap_counting();  ///< the traced binary
};

/// Segment slots reserved up front, so that recording a segment's time
/// never allocates inside the measured phase.
constexpr std::size_t kMaxSegments = 8192;

/// What one run reports on stdout besides its output files.
struct RunRecord {
  RunRecord() { segments_s.reserve(kMaxSegments); }

  unsigned setups = 0;                ///< set-ups run back to back
  std::vector<double> setup_groups_s; ///< host time of each group of them
  double wall_s = 0.0;  ///< the measured phase: the sum of its segments
  std::vector<double> segments_s;
  Json outputs = Json::array();  ///< file names under --out
  Json checks = Json::object();  ///< named bools; run.py gates on all true
  Json layers = Json::object();  ///< per-layer metrics (traced binary only)

  /// Runs `count` set-ups, timed in groups of `per_group`.
  template <typename F>
  void setup(unsigned count, unsigned per_group, F&& f) {
    for (unsigned i = 0; i < count; i += per_group) {
      const auto t0 = Clock::now();
      for (unsigned j = 0; j < per_group; ++j) f();
      setup_groups_s.push_back(since(t0));
    }
    setups = count;
  }
  /// Runs one segment of the measured phase and records its host time.
  template <typename F>
  double segment(F&& f) {
    const auto t0 = Clock::now();
    f();
    const double s = since(t0);
    add_segment(s);
    return s;
  }
  void add_segment(double s) {
    segments_s.push_back(s);
    wall_s += s;
  }
  void layer(const std::string& name, double value, const char* unit) {
    layers[name] = Json::object({{"value", value}, {"unit", unit}});
  }
  void output(const std::string& dir, const std::string& file,
              const Json& doc) {
    write_json(dir + "/" + file, doc);
    outputs.push_back(file);
  }
};

// ---- per-layer probes -------------------------------------------------
//
// Each probe drives one layer's public calls directly with the workload's
// configuration, read/write share and block range (reads and writes only,
// no ModifyFn), so a change to that layer shows up here even when the
// workload's own driver hides it.

struct Shape {
  core::CfmConfig cfg;
  double write_share = 0.0;   ///< of probe operations
  std::uint64_t blocks = 1;   ///< block range drawn from
  double att_inserts = 0.0;   ///< ATT inserts per bank per cycle
};

/// Closed-loop rounds on a bare CfmMemory: every port issues, the memory
/// ticks until all ports are idle, then every result is taken.  Whole
/// batches are timed, so clock reads stay out of the per-call figures.
void probe_cfm(const Shape& shape, std::uint64_t seed, RunRecord& rec) {
  constexpr std::uint64_t kOps = 160'000;
  core::CfmMemory mem(shape.cfg);
  sim::Rng rng(seed);
  const auto ports = shape.cfg.processors;
  std::vector<core::CfmMemory::OpToken> tokens(ports, core::CfmMemory::kNoOp);
  const std::vector<sim::Word> data(shape.cfg.banks, 0x5a5a);
  double issue_s = 0.0, tick_s = 0.0, take_s = 0.0;
  std::uint64_t ops = 0;
  sim::Cycle now = 0;
  const auto allocs0 = perfbench::heap_allocations();
  std::vector<std::pair<bool, sim::BlockAddr>> plan(ports);
  while (ops < kOps) {
    for (auto& [write, block] : plan) {
      write = rng.chance(shape.write_share);
      block = rng.below(shape.blocks);
    }
    auto t0 = Clock::now();
    for (std::uint32_t p = 0; p < ports; ++p) {
      const auto& [write, block] = plan[p];
      tokens[p] = write ? mem.issue(now, p, core::BlockOpKind::Write, block,
                                    data)
                        : mem.issue(now, p, core::BlockOpKind::Read, block);
    }
    issue_s += since(t0);
    t0 = Clock::now();
    bool busy = true;
    while (busy) {
      mem.tick(now++);
      busy = false;
      for (std::uint32_t p = 0; p < ports; ++p) busy = busy || !mem.idle(p);
    }
    tick_s += since(t0);
    t0 = Clock::now();
    std::uint64_t taken = 0;
    for (std::uint32_t p = 0; p < ports; ++p) {
      taken += mem.take_result(tokens[p]).has_value() ? 1 : 0;
    }
    take_s += since(t0);
    if (taken != ports) throw std::runtime_error("cfm probe lost a result");
    ops += ports;
  }
  const auto allocs = perfbench::heap_allocations() - allocs0;
  const double n = static_cast<double>(ops);
  rec.layer("cfm.issue_ns", issue_s * 1e9 / n, "ns");
  rec.layer("cfm.tick_ns_per_op", tick_s * 1e9 / n, "ns");
  rec.layer("cfm.take_result_ns", take_s * 1e9 / n, "ns");
  rec.layer("cfm.allocs_per_op", static_cast<double>(allocs) / n, "count");
}

/// One ATT at the workload's measured insert rate, probed with batches
/// of lookups over the full position window.
void probe_att(const Shape& shape, std::uint64_t seed, RunRecord& rec) {
  constexpr std::uint32_t kCycles = 40'000;
  constexpr std::uint32_t kBatch = 32;
  core::Att att(shape.cfg.banks - 1);
  sim::Rng rng(seed);
  std::vector<sim::BlockAddr> keys(kBatch);
  double find_s = 0.0;
  std::uint64_t hits = 0, id = 1;
  for (sim::Cycle now = 0; now < kCycles; ++now) {
    if (rng.chance(std::min(1.0, shape.att_inserts))) {
      att.insert(now, rng.below(shape.blocks), core::OpKind::Write, id++, 0);
    }
    att.prune(now);
    for (auto& k : keys) k = rng.below(shape.blocks);
    const auto t0 = Clock::now();
    for (const auto k : keys) {
      hits += att.find(now, k, 0, att.capacity(), core::kReadSensitive, 0)
                  .has_value()
                  ? 1
                  : 0;
    }
    find_s += since(t0);
  }
  rec.layer("cfm.att_find_ns", find_s * 1e9 / (double{kCycles} * kBatch),
            "ns");
  g_probe_sink = hits;
}

/// BackingStore word accessors and Bank::access over the block range.
void probe_mem(const Shape& shape, std::uint64_t seed, RunRecord& rec) {
  constexpr std::size_t kOps = 1u << 20;
  const auto words = shape.cfg.banks;
  mem::BackingStore store(words);
  const std::vector<sim::Word> zero(words, 0);
  for (sim::BlockAddr b = 0; b < shape.blocks; ++b) store.write_block(b, zero);
  sim::Rng rng(seed);
  std::vector<sim::BlockAddr> blocks(kOps);
  std::vector<std::uint32_t> word(kOps);
  std::vector<bool> is_write(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    blocks[i] = rng.below(shape.blocks);
    word[i] = static_cast<std::uint32_t>(rng.below(words));
    is_write[i] = rng.chance(shape.write_share);
  }
  sim::Word sum = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) sum += store.read_word(blocks[i], word[i]);
  rec.layer("mem.store_read_ns", since(t0) * 1e9 / kOps, "ns");
  t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) store.write_word(blocks[i], word[i], i);
  rec.layer("mem.store_write_ns", since(t0) * 1e9 / kOps, "ns");
  mem::Bank bank(0, shape.cfg.bank_cycle, store);
  sim::Cycle now = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    sum += bank.access(now, is_write[i] ? mem::WordOp::Write : mem::WordOp::Read,
                       blocks[i], i);
    now += shape.cfg.bank_cycle;
  }
  rec.layer("mem.bank_access_ns", since(t0) * 1e9 / kOps, "ns");
  g_probe_sink = sum;
  rec.checks["bank_probe_counted"] = bank.accesses() == kOps;
}

void probe_layers(const Shape& shape, std::uint64_t seed, RunRecord& rec) {
  probe_cfm(shape, seed, rec);
  probe_att(shape, seed + 1, rec);
  probe_mem(shape, seed + 2, rec);
}

/// Restarts and aborts over operations issued, from memory counters.
void memory_fractions(const sim::CounterSet& mem, RunRecord& rec) {
  const auto issued = static_cast<double>(mem.get("ops_issued"));
  const auto restarts = mem.get("read_restarts") + mem.get("write_restarts") +
                        mem.get("swap_restarts") + mem.get("fault_restarts");
  rec.layer("cfm.restart_fraction", ratio(static_cast<double>(restarts), issued),
            "fraction");
  rec.layer("cfm.abort_fraction",
            ratio(static_cast<double>(mem.get("ops_aborted")), issued),
            "fraction");
}

// ---- serve_poisson / serve_hot_rmw -----------------------------------

struct ServeMix {
  const char* load;
  double write, swap, lock;
  std::uint64_t blocks;
  sim::Cycle segment_cycles;  ///< one timed Server::run of the measured phase
};

constexpr std::size_t kServeRequests = 1'000'000;
constexpr unsigned kServeSetups = 4;
constexpr std::size_t kSubmitChunk = 4096;  ///< requests per submit segment
constexpr std::size_t kTelemetrySlice = 100'000;

serve::ServeOptions serve_options(const ServeMix& mix, std::uint64_t seed) {
  serve::ServeOptions opts;  // 16 ports, bank cycle 2, telemetry on
  opts.arrival = serve::ArrivalConfig::parse(mix.load);
  opts.seed = seed;
  return opts;
}

/// Host seconds to submit and drain `requests` with telemetry on or off.
double serve_slice(const ServeMix& mix, std::uint64_t seed, bool telemetry,
                   const std::vector<serve::Request>& requests) {
  auto opts = serve_options(mix, seed);
  opts.telemetry = telemetry;
  serve::Server server(opts);
  const auto t0 = Clock::now();
  server.submit(requests);
  server.drain();
  return since(t0);
}

void run_serve(const Args& args, const ServeMix& mix, RunRecord& rec) {
  const auto opts = serve_options(mix, args.seed);
  std::vector<serve::Request> requests;
  std::unique_ptr<serve::Server> server;
  rec.setup(kServeSetups, 1, [&] {
    server.reset();
    requests = serve::synth_requests(kServeRequests, mix.write, mix.swap,
                                     mix.lock, mix.blocks, args.seed);
    server = std::make_unique<serve::Server>(opts);
  });

  // Segments: submit in chunks (Server::submit of a vector submits each
  // request in turn), Server::run chunks while requests are outstanding,
  // the final drain, the report.  The report does not depend on how run()
  // and drain() are paced.
  const auto allocs0 = perfbench::heap_allocations();
  double submit_s = 0.0;
  for (std::size_t i = 0; i < requests.size(); i += kSubmitChunk) {
    const auto end = std::min(requests.size(), i + kSubmitChunk);
    submit_s += rec.segment([&] {
      for (std::size_t j = i; j < end; ++j) server->submit(requests[j]);
    });
  }
  double drain_s = 0.0;
  while (server->outstanding() != 0 &&
         rec.segments_s.size() + 2 < kMaxSegments) {
    drain_s += rec.segment([&] { server->run(mix.segment_cycles); });
  }
  bool drained = false;
  drain_s += rec.segment([&] { drained = server->drain(); });
  const auto allocs = perfbench::heap_allocations() - allocs0;
  Json report;
  const double report_s = rec.segment([&] { report = server->report_json(); });
  rec.checks["drained"] = drained;
  rec.output(args.out, "serve_report.json", report);
  if (!args.trace) return;

  const auto offered = static_cast<double>(kServeRequests);
  rec.layer("serve.submit_ns_per_req", submit_s * 1e9 / offered, "ns");
  rec.layer("serve.drain_ns_per_req", drain_s * 1e9 / offered, "ns");
  rec.layer("serve.report_ms", report_s * 1e3, "ms");
  rec.layer("serve.allocs_per_req", static_cast<double>(allocs) / offered,
            "count");
  rec.layer("heap.allocs_per_req", static_cast<double>(allocs) / offered,
            "count");
  const auto& metrics = report.at("metrics");
  rec.layer("serve.queue_wait_mean_cycles",
            report.at("stats").at("queue_wait").at("mean").as_double(),
            "cycles");
  rec.layer("serve.retry_fraction",
            ratio(metrics.at("retried").as_double(), offered), "fraction");
  rec.layer("sim.telemetry.windows",
            static_cast<double>(server->telemetry()->windows_crossed()),
            "count");

  // Telemetry on/off over the same slice, alternating, medians of three.
  const std::vector<serve::Request> slice(
      requests.begin(),
      requests.begin() + static_cast<std::ptrdiff_t>(kTelemetrySlice));
  std::vector<double> on, off;
  for (int i = 0; i < 3; ++i) {
    on.push_back(serve_slice(mix, args.seed, true, slice));
    off.push_back(serve_slice(mix, args.seed, false, slice));
  }
  rec.layer("sim.telemetry.cost_fraction",
            ratio(median(on) - median(off), median(on)), "fraction");

  const auto mem = sim::counters_from_json(report.at("counters").at("memory"));
  memory_fractions(mem, rec);
  Shape shape;
  shape.cfg = core::CfmConfig::make(opts.processors, opts.bank_cycle);
  shape.write_share = mix.write + mix.swap + mix.lock;
  shape.blocks = mix.blocks;
  shape.att_inserts =
      ratio(static_cast<double>(mem.get("ops_issued")) * shape.write_share,
            metrics.at("cycles").as_double() * shape.cfg.banks);
  probe_layers(shape, args.seed, rec);
}

// ---- hier_think -------------------------------------------------------

constexpr sim::Cycle kHierWarmup = 512;
// A short run per process and short segments: a run fits 35-50 processes,
// so each segment's fastest time in run.py is likely to have met a quiet
// stretch of a shared host.
constexpr sim::Cycle kHierCycles = 4'194'304;
constexpr sim::Cycle kHierSegments = 1024;
static_assert(kHierCycles % kHierSegments == 0);
constexpr sim::Cycle kHierSlice = 200'000;
constexpr unsigned kHierSetups = 64;

/// The 8x8 machine under the think-time driver on a serial engine.
struct HierStack {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<cache::HierarchicalCfm> machine;
  std::unique_ptr<workload::HierDriver> driver;

  HierStack(std::uint64_t seed, bool fast_path) {
    engine = std::make_unique<sim::Engine>(
        sim::EngineConfig{.fast_path = fast_path});
    machine = std::make_unique<cache::HierarchicalCfm>(
        cache::HierarchicalCfm::Params{.clusters = 8, .procs_per_cluster = 8});
    driver = std::make_unique<workload::HierDriver>(
        "perfbench.think_driver", *engine, *machine,
        workload::HierDriver::Params{.think_min = 128,
                                     .think_max = 1024,
                                     .shared_fraction = 0.1,
                                     .barrier = true},
        seed, engine->shard(sim::kSharedDomain));
    machine->attach(*engine);
    engine->run_for(kHierWarmup);
  }

  [[nodiscard]] sim::CounterSet memory_counters() const {
    sim::CounterSet sum;
    for (std::uint32_t c = 0; c < machine->params().clusters; ++c) {
      sum.merge(machine->cluster_memory(c).counters());
    }
    sum.merge(machine->global_memory().counters());
    return sum;
  }
};

/// Host seconds for kHierSlice cycles on a fresh stack; the completed
/// count goes to `completed` so on/off slices can be checked against each
/// other.
double hier_slice(std::uint64_t seed, bool fast_path, std::uint64_t& completed) {
  HierStack stack(seed, fast_path);
  const auto t0 = Clock::now();
  stack.engine->run_for(kHierSlice);
  const double s = since(t0);
  completed = stack.driver->completed();
  return s;
}

void run_hier(const Args& args, RunRecord& rec) {
  std::unique_ptr<HierStack> stack;
  rec.setup(kHierSetups, 1, [&] {
    stack.reset();
    stack = std::make_unique<HierStack>(args.seed, true);
  });
  const auto warm_completed = stack->driver->completed();
  const auto allocs0 = perfbench::heap_allocations();
  for (sim::Cycle i = 0; i < kHierSegments; ++i) {
    rec.segment([&] { stack->engine->run_for(kHierCycles / kHierSegments); });
  }
  const auto allocs = perfbench::heap_allocations() - allocs0;

  const auto completed = stack->driver->completed() - warm_completed;
  const bool coupled = stack->machine->check_state_coupling();
  rec.checks["state_coupling"] = coupled;
  rec.checks["completed_requests"] = completed > 0;
  const auto& shard = stack->engine->shard(sim::kSharedDomain);
  Json out = Json::object();
  out["schema"] = "perfbench-hier-output/v1";
  out["seed"] = args.seed;
  out["warmup_cycles"] = kHierWarmup;
  out["measured_cycles"] = kHierCycles;
  out["completed_warmup"] = warm_completed;
  out["completed"] = completed;
  out["in_flight_end"] = stack->driver->in_flight();
  out["state_coupling"] = coupled;
  out["counters"] = sim::to_json(stack->machine->counters());
  out["memory_counters"] = sim::to_json(stack->memory_counters());
  out["access_time"] = sim::to_json(shard.running.at("hier.access_time"));
  rec.output(args.out, "hier_output.json", out);
  if (!args.trace) return;

  const auto n = static_cast<double>(completed);
  rec.layer("cache.allocs_per_req", static_cast<double>(allocs) / n, "count");
  rec.layer("heap.allocs_per_req", static_cast<double>(allocs) / n, "count");
  rec.layer("sim.engine.driver_tick_fraction",
            ratio(static_cast<double>(stack->driver->ticks()),
                  static_cast<double>(stack->engine->now())),
            "fraction");
  const auto& hc = stack->machine->counters();
  const auto all = static_cast<double>(stack->driver->completed());
  const auto frac = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), all);
  };
  rec.layer("cache.l1_hit_fraction", frac(hc.get("l1_hits")), "fraction");
  rec.layer("cache.global_read_fraction", frac(hc.get("global_reads")),
            "fraction");
  rec.layer("cache.writeback_per_req",
            frac(hc.get("local_l1_wbs") + hc.get("remote_l1_wbs") +
                 hc.get("remote_l2_wbs") + hc.get("victim_wbs")),
            "count");
  rec.layer("cache.phase_retry_fraction", frac(hc.get("phase_retries")),
            "fraction");
  memory_fractions(stack->memory_counters(), rec);

  // Fast path off/on over the same slice, alternating, medians of three;
  // the two paths must agree on the simulated result.
  std::vector<double> off, on;
  bool same = true;
  for (int i = 0; i < 3; ++i) {
    std::uint64_t c_off = 0, c_on = 0;
    off.push_back(hier_slice(args.seed, false, c_off));
    on.push_back(hier_slice(args.seed, true, c_on));
    same = same && c_off == c_on;
  }
  rec.checks["fast_path_bit_exact"] = same;
  rec.layer("sim.engine.fast_path_speedup", ratio(median(off), median(on)),
            "ratio");

  Shape shape;
  shape.cfg = stack->machine->cluster_memory(0).config();
  shape.write_share = workload::HierDriver::Params{}.write_fraction;
  // The driver's address set: 8 shared blocks plus 4 private per port.
  shape.blocks = 8 + 4 * std::uint64_t{stack->machine->processor_count()};
  const auto mem = stack->memory_counters();
  const auto memories = stack->machine->params().clusters + 1;
  shape.att_inserts = ratio(
      static_cast<double>(mem.get("ops_issued")) * shape.write_share,
      static_cast<double>(stack->engine->now()) * shape.cfg.banks * memories);
  probe_layers(shape, args.seed, rec);
}

// ---- campaign_sweep ---------------------------------------------------

/// One generated scenario per family; "@SEED@" becomes the workload seed.
/// Sizes are chosen so each family takes a comparable share of the run.
/// The two-value seed axis splits each family into short points (2-30 ms),
/// because each point is a timed segment and short segments let run.py's
/// fastest-repetition estimate skip other tenants' bursts.
/// Audit is on wherever the family has an audited scope (cfm, coded,
/// trace_replay); the scenario parser rejects it elsewhere.
struct Family {
  const char* name;
  const char* text;
};

constexpr Family kFamilies[] = {
    {"cfm", R"({"name": "perfbench_cfm", "workload": "cfm", "audit": true,
        "params": {"cycles": 5000},
        "sweep": {"n": [4, 8, 16], "c": [1, 2], "rate": [0.1, 0.3],
                  "seed": [1, 2]},
        "base_seed": @SEED@})"},
    {"coded", R"({"name": "perfbench_coded", "workload": "coded", "audit": true,
        "params": {"n": 8, "c": 2, "rate": 0.25, "cycles": 6250,
                   "data_banks": 8, "stripe_width": 4, "write_fraction": 0.3},
        "sweep": {"code_rate": [0.5, 0.8], "parity_policy": ["rmw", "logged"],
                  "seed": [1, 2]},
        "base_seed": @SEED@})"},
    {"conventional", R"({"name": "perfbench_conventional",
        "workload": "conventional",
        "params": {"beta": 17, "rate": 0.03, "cycles": 93750},
        "sweep": {"n": [8, 16], "m": [8, 16], "seed": [1, 2]},
        "base_seed": @SEED@})"},
    {"partial_cfm", R"({"name": "perfbench_partial_cfm",
        "workload": "partial_cfm",
        "params": {"n": 8, "m": 8, "beta": 17, "rate": 0.03, "cycles": 125000},
        "sweep": {"locality": [0.25, 0.5, 0.75, 0.9], "seed": [1, 2]},
        "base_seed": @SEED@})"},
    {"lock", R"({"name": "perfbench_lock", "workload": "lock",
        "params": {"contenders": 8, "hold": 4, "cycles": 37500},
        "sweep": {"variant": ["cfm", "cached", "snoopy"], "seed": [1, 2]},
        "base_seed": @SEED@})"},
    {"trace_replay", R"({"name": "perfbench_trace_replay",
        "workload": "trace_replay", "audit": true,
        "params": {"n": 8, "c": 2, "blocks": 256, "span": 6250,
                   "accesses": 3750},
        "sweep": {"write_fraction": [0.2, 0.4], "seed": [1, 2]},
        "base_seed": @SEED@})"},
};

constexpr unsigned kCampaignSetups = 256;
constexpr unsigned kPoolJobs = 2;  ///< the WorkerPool slice (traced only)

std::string scenario_text(const Family& family, std::uint64_t seed) {
  std::string text = family.text;
  const std::string key = "@SEED@";
  text.replace(text.find(key), key.size(), std::to_string(seed));
  return text;
}

/// A campaign whose runner throws on one of its two points must count
/// that point as failed: the harness's own failure path, checked on
/// every traced run of every workload.
void self_check_failure_path(RunRecord& rec) {
  const auto scenario = campaign::Scenario::parse_text(
      R"({"name": "perfbench_self_check", "workload": "cfm",
          "params": {"c": 1, "rate": 0.2, "cycles": 200},
          "sweep": {"n": [2, 4]}, "retries": 0})");
  campaign::CampaignOptions opts;
  opts.cache_dir.clear();
  opts.jobs = 1;
  opts.runner = [](const campaign::PointSpec& point) {
    if (point.param_u64("n") == 2) throw std::runtime_error("injected");
    return campaign::run_point(point);
  };
  const auto result = campaign::run_campaign(scenario, opts);
  const double failed_fraction = ratio(static_cast<double>(result.failed),
                                       static_cast<double>(result.points));
  rec.checks["self_check_throwing_runner_fails"] =
      failed_fraction > 0.0 && result.exit_code() != 0;
}

/// The scenario again on a two-job WorkerPool: its report must match the
/// serial one, and runner time over (wall x jobs) is the pool's
/// efficiency.
void pool_slice(const campaign::Scenario& scenario, const Json& serial_report,
                RunRecord& rec) {
  std::mutex mu;
  double busy_s = 0.0;
  campaign::CampaignOptions opts;
  opts.cache_dir.clear();
  opts.jobs = kPoolJobs;
  opts.runner = [&](const campaign::PointSpec& point) {
    const auto t0 = Clock::now();
    Json result = campaign::run_point(point);
    const double s = since(t0);
    const std::lock_guard<std::mutex> lock(mu);
    busy_s += s;
    return result;
  };
  const auto t0 = Clock::now();
  const auto result = campaign::run_campaign(scenario, opts);
  const double wall = since(t0);
  rec.checks["pool_report_matches_serial"] =
      result.report == serial_report;
  rec.layer("campaign.pool_efficiency", ratio(busy_s, wall * kPoolJobs),
            "fraction");
}

void run_campaign_sweep(const Args& args, RunRecord& rec) {
  std::vector<campaign::Scenario> scenarios;
  double expand_s = 0.0;
  rec.setup(kCampaignSetups, 2, [&] {
    scenarios.clear();
    for (const auto& family : kFamilies) {
      scenarios.push_back(
          campaign::Scenario::parse_text(scenario_text(family, args.seed)));
      const auto te = Clock::now();
      if (scenarios.back().expand().size() < kPoolJobs) {
        throw std::logic_error("campaign scenario smaller than the pool");
      }
      expand_s += since(te);
    }
  });

  // Serial points: a two-job pool's host time swings with how the points
  // happen to fall between the threads, so the pool runs as a traced
  // slice instead.  With one job the points run in grid order, so each
  // point is a segment, and the rest of each run_campaign call (expand,
  // aggregation, the report) is one more.
  std::map<std::string, std::pair<double, std::uint64_t>> point_times;
  std::vector<double> points_s;
  points_s.reserve(64);
  campaign::CampaignOptions opts;
  opts.cache_dir.clear();  // no result cache: every point runs
  opts.jobs = 1;
  opts.runner = [&](const campaign::PointSpec& point) {
    const auto t0 = Clock::now();
    Json result = campaign::run_point(point);
    const double s = since(t0);
    points_s.push_back(s);
    auto& [sum, count] =
        point_times[std::string(campaign::workload_name(point.workload))];
    sum += s;
    ++count;
    return result;
  };

  std::vector<campaign::CampaignResult> results;
  const auto allocs0 = perfbench::heap_allocations();
  for (const auto& scenario : scenarios) {
    points_s.clear();
    const auto t0 = Clock::now();
    results.push_back(campaign::run_campaign(scenario, opts));
    double rest = since(t0);
    for (const double s : points_s) {
      rec.add_segment(s);
      rest -= s;
    }
    rec.add_segment(rest);
  }
  const auto allocs = perfbench::heap_allocations() - allocs0;

  bool clean = true;
  std::uint64_t simulated_requests = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    clean = clean && r.exit_code() == 0 && r.failed == 0 &&
            r.audit_violations == 0;
    rec.output(args.out, std::string("campaign_") + kFamilies[i].name + ".json",
               r.report);
    for (const auto& point : r.report.at("points").as_array()) {
      const auto& m = point.at("metrics");
      simulated_requests += m.contains("completed")
                                ? m.at("completed").as_uint()
                                : m.at("total_acquisitions").as_uint();
    }
  }
  rec.checks["campaigns_exit_0_no_audit_violations"] = clean;
  if (!args.trace) return;

  rec.layer("campaign.expand_ms", expand_s * 1e3 / kCampaignSetups, "ms");
  for (const auto& [family, sum_count] : point_times) {
    rec.layer("campaign.point_ms." + family,
              sum_count.first * 1e3 / static_cast<double>(sum_count.second),
              "ms");
  }
  pool_slice(scenarios.front(), results.front().report, rec);
  rec.layer("heap.allocs_per_req",
            ratio(static_cast<double>(allocs),
                  static_cast<double>(simulated_requests)),
            "count");
  const auto report_of = [&results](std::string_view family) -> const Json& {
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (family == kFamilies[i].name) return results[i].report;
    }
    throw std::logic_error("no campaign family " + std::string(family));
  };
  const auto& coded = report_of("coded").at("counters");
  const auto get = [&coded](const char* name) {
    return coded.contains(name) ? coded.at(name).as_double() : 0.0;
  };
  const double writes = get("word_writes_direct") + get("word_writes_decoded");
  const double served = get("word_reads_direct") + get("word_reads_decoded") + writes;
  rec.layer("mem.coded.decode_fraction",
            ratio(get("word_reads_decoded") + get("word_writes_decoded"), served),
            "fraction");
  rec.layer("mem.coded.parity_amplification",
            ratio(get("parity_updates"), writes), "ratio");
  memory_fractions(sim::counters_from_json(report_of("cfm").at("counters")),
                   rec);

  // Probes use the cfm family's largest point: reads only (its driver
  // issues block reads) over the addresses its ports cycle through.
  Shape shape;
  shape.cfg = core::CfmConfig::make(16, 2);
  shape.write_share = 0.0;
  shape.blocks = 16 * 97;
  probe_layers(shape, args.seed, rec);
}

// ---- main -------------------------------------------------------------

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <serve_poisson|serve_hot_rmw|hier_think|"
               "campaign_sweep> --seed <n> --out <dir>\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--out") {
      args.out = value();
    } else {
      usage(argv[0]);
    }
  }
  if (args.workload.empty() || args.out.empty() || !have_seed) {
    usage(argv[0]);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  RunRecord rec;
  try {
    if (args.workload == "serve_poisson") {
      run_serve(args, {"poisson", 0.25, 0.05, 0.05, 4096, 1 << 14}, rec);
    } else if (args.workload == "serve_hot_rmw") {
      run_serve(args, {"bursty:rate=0.3", 0.20, 0.20, 0.30, 64, 1 << 12}, rec);
    } else if (args.workload == "hier_think") {
      run_hier(args, rec);
    } else if (args.workload == "campaign_sweep") {
      run_campaign_sweep(args, rec);
    } else {
      usage(argv[0]);
    }
    if (args.trace) self_check_failure_path(rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], args.workload.c_str(),
                 e.what());
    return 1;
  }
  Json line = Json::object();
  line["workload"] = args.workload;
  line["seed"] = args.seed;
  line["traced"] = args.trace;
  line["setups"] = rec.setups;
  Json groups = Json::array();
  for (const double s : rec.setup_groups_s) groups.push_back(s);
  line["setup_groups_s"] = std::move(groups);
  line["wall_s"] = rec.wall_s;
  Json segments = Json::array();
  for (const double s : rec.segments_s) segments.push_back(s);
  line["segments_s"] = std::move(segments);
  line["peak_rss_mib"] = peak_rss_mib();
  line["outputs"] = std::move(rec.outputs);
  line["checks"] = std::move(rec.checks);
  line["layers"] = std::move(rec.layers);
  std::printf("%s\n", line.dump().c_str());
  return 0;
}
