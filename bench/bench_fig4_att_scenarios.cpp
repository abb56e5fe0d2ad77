// Replays the Chapter 4 figures on the cycle-level machine:
//   Fig 4.1  simultaneous same-address writes (the inconsistency the ATT
//            prevents — shown with tracking ON and OFF),
//   Fig 4.3  staggered writes (later wins, earlier aborts),
//   Fig 4.4  simultaneous writes, 8 banks (bank-0 priority),
//   Fig 4.5  read restarted by a concurrent write,
//   Fig 4.6  swap-swap / swap-write interactions.
#include <cstdio>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "report_main.hpp"

using namespace cfm;
using core::BlockOpKind;
using core::CfmMemory;
using core::ConsistencyPolicy;
using core::OpStatus;
using sim::Cycle;
using sim::Word;

namespace {

std::vector<Word> fill(std::uint32_t n, Word v) {
  return std::vector<Word>(n, v);
}

void run_all(CfmMemory& mem, Cycle& t,
             const std::vector<CfmMemory::OpToken>& ops) {
  bool done = false;
  while (!done) {
    mem.tick(t++);
    done = true;
    for (const auto op : ops) {
      if (mem.result(op) == nullptr) done = false;
    }
  }
}

bool print_block(const char* label, const std::vector<Word>& b) {
  std::printf("%s", label);
  bool uniform = true;
  for (const auto w : b) {
    std::printf(" %llu", static_cast<unsigned long long>(w));
    if (w != b[0]) uniform = false;
  }
  std::printf("   -> %s\n", uniform ? "consistent" : "TORN");
  return uniform;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  sim::Report report("fig4_att_scenarios");

  std::printf("Fig 4.1 — simultaneous same-address writes, 4 banks\n");
  {
    CfmMemory no_att(core::CfmConfig::make(4), ConsistencyPolicy::NoTracking);
    Cycle t = 0;
    auto a = no_att.issue(0, 0, BlockOpKind::Write, 7,
                          std::vector<Word>{1, 2, 3, 4});
    auto b = no_att.issue(0, 1, BlockOpKind::Write, 7,
                          std::vector<Word>{11, 12, 13, 14});
    run_all(no_att, t, {a, b});
    const bool torn_without =
        !print_block("  without address tracking:", no_att.peek_block(7));

    CfmMemory with_att(core::CfmConfig::make(4), ConsistencyPolicy::LatestWins);
    t = 0;
    a = with_att.issue(0, 0, BlockOpKind::Write, 7,
                       std::vector<Word>{1, 2, 3, 4});
    b = with_att.issue(0, 1, BlockOpKind::Write, 7,
                       std::vector<Word>{11, 12, 13, 14});
    run_all(with_att, t, {a, b});
    const bool torn_with =
        !print_block("  with address tracking:   ", with_att.peek_block(7));
    std::printf("  winner: processor 0 (first to reach bank 0), "
                "loser aborted cleanly\n\n");
    auto s = sim::Json::object();
    s["torn_without_tracking"] = torn_without;
    s["torn_with_tracking"] = torn_with;
    report.add_section("fig4_1_simultaneous_writes", std::move(s));
  }

  std::printf("Fig 4.3 — staggered writes, 8 banks (write a at slot 0, "
              "write b at slot 1)\n");
  {
    CfmMemory mem(core::CfmConfig::make(8), ConsistencyPolicy::LatestWins);
    Cycle t = 0;
    const auto a = mem.issue(0, 1, BlockOpKind::Write, 7, fill(8, 0xA));
    mem.tick(t++);
    const auto b = mem.issue(1, 3, BlockOpKind::Write, 7, fill(8, 0xB));
    run_all(mem, t, {a, b});
    const auto ra = mem.take_result(a);
    const auto rb = mem.take_result(b);
    std::printf("  a (earlier): %s; b (later): %s\n",
                ra->status == OpStatus::Superseded ? "aborted" : "completed",
                rb->status == OpStatus::Completed ? "completed" : "aborted");
    const bool consistent = print_block("  final block:", mem.peek_block(7));
    std::printf("\n");
    auto s = sim::Json::object();
    s["earlier_aborted"] = ra->status == OpStatus::Superseded;
    s["later_completed"] = rb->status == OpStatus::Completed;
    s["final_block_consistent"] = consistent;
    report.add_section("fig4_3_staggered_writes", std::move(s));
  }

  std::printf("Fig 4.4 — simultaneous writes starting at banks 1 and 5\n");
  {
    CfmMemory mem(core::CfmConfig::make(8), ConsistencyPolicy::LatestWins);
    Cycle t = 0;
    const auto c = mem.issue(0, 1, BlockOpKind::Write, 7, fill(8, 0xC));
    const auto d = mem.issue(0, 5, BlockOpKind::Write, 7, fill(8, 0xD));
    run_all(mem, t, {c, d});
    const auto rc = mem.take_result(c);
    const auto rd = mem.take_result(d);
    std::printf("  write c (bank 1 first): %s — aborted at bank 5 on "
                "detecting d\n",
                rc->status == OpStatus::Superseded ? "aborted" : "completed");
    std::printf("  write d (bank 5 first): %s — reached bank 0 first\n",
                rd->status == OpStatus::Completed ? "completed" : "aborted");
    const bool consistent = print_block("  final block:", mem.peek_block(7));
    std::printf("\n");
    auto s = sim::Json::object();
    s["bank1_writer_aborted"] = rc->status == OpStatus::Superseded;
    s["bank5_writer_completed"] = rd->status == OpStatus::Completed;
    s["final_block_consistent"] = consistent;
    report.add_section("fig4_4_simultaneous_writes", std::move(s));
  }

  std::printf("Fig 4.5 — read restarted by a same-address write\n");
  {
    CfmMemory mem(core::CfmConfig::make(8), ConsistencyPolicy::LatestWins);
    mem.poke_block(5, fill(8, 0));
    Cycle t = 0;
    const auto e = mem.issue(0, 1, BlockOpKind::Read, 5);
    const auto f = mem.issue(0, 3, BlockOpKind::Write, 5, fill(8, 9));
    run_all(mem, t, {e, f});
    const auto re = mem.take_result(e);
    bool single_version = true;
    for (const auto w : re->data) {
      if (w != re->data[0]) single_version = false;
    }
    std::printf("  read restarted %u time(s); returned value %llu "
                "(single version: %s)\n",
                re->restarts,
                static_cast<unsigned long long>(re->data[0]),
                single_version ? "yes" : "NO");
    std::printf("\n");
    auto s = sim::Json::object();
    s["read_restarts"] = re->restarts;
    s["returned_value"] = re->data[0];
    s["single_version"] = single_version;
    report.add_section("fig4_5_read_restart", std::move(s));
  }

  std::printf("Fig 4.6 — swap interactions (EarliestWins regime)\n");
  {
    CfmMemory mem(core::CfmConfig::make(4), ConsistencyPolicy::EarliestWins);
    mem.poke_block(3, fill(4, 0));
    Cycle t = 0;
    const auto s0 = mem.issue(0, 0, BlockOpKind::Swap, 3, fill(4, 100));
    const auto s1 = mem.issue(0, 1, BlockOpKind::Swap, 3, fill(4, 200));
    run_all(mem, t, {s0, s1});
    const auto r0 = mem.take_result(s0);
    const auto r1 = mem.take_result(s1);
    std::printf("  concurrent swaps serialized: s0 read %llu, s1 read %llu "
                "(restarts: %u / %u)\n",
                static_cast<unsigned long long>(r0->data[0]),
                static_cast<unsigned long long>(r1->data[0]), r0->restarts,
                r1->restarts);
    const bool consistent = print_block("  final block:", mem.peek_block(3));
    std::printf("  swap_restarts counter: %llu\n",
                static_cast<unsigned long long>(
                    mem.counters().get("swap_restarts")));
    auto s = sim::Json::object();
    s["swap0_read"] = r0->data[0];
    s["swap1_read"] = r1->data[0];
    s["swap0_restarts"] = r0->restarts;
    s["swap1_restarts"] = r1->restarts;
    s["final_block_consistent"] = consistent;
    report.add_section("fig4_6_swap_interactions", std::move(s));
    report.add_counters("memory", mem.counters());
  }
  return bench::finish(opts, report);
}
