// §7.2 extension study: slot oversubscription — "assign a time slot to
// more than one processor ... memory and network utilizations are further
// improved", traded against reintroduced conflicts.
#include <cstdio>

#include "cfm/shared_slot.hpp"
#include "report_main.hpp"
#include "workload/access_gen.hpp"

int main(int argc, char** argv) {
  using namespace cfm;
  using namespace cfm::core;
  using workload::measure_shared_slots;
  const auto opts = bench::parse_options(argc, argv);
  sim::Report report("oversubscription");
  report.set_param("slots", 8);
  report.set_param("beta", 17);
  report.set_param("cycles", 200000);

  std::printf("Slot oversubscription (§7.2): 8 AT-space slots, beta = 17\n\n");
  std::printf("%-10s %-10s | %-11s %-11s | %-13s %-13s\n", "procs",
              "sharers", "E analytic", "E measured", "util analytic",
              "util measured");
  for (const std::uint32_t procs : {8u, 16u, 24u, 32u}) {
    const SharedSlotModel model{procs, 8, 17};
    const auto measured = measure_shared_slots(procs, 8, 17, 0.02, 200000, 13);
    std::printf("%-10u %-10u | %-11.3f %-11.3f | %-13.3f %-13.3f\n", procs,
                procs / 8, model.efficiency(0.02), measured.efficiency,
                model.slot_utilization(0.02), measured.utilization);
    auto row = sim::Json::object();
    row["processors"] = procs;
    row["sharers"] = procs / 8;
    row["efficiency_analytic"] = model.efficiency(0.02);
    row["efficiency_measured"] = measured.efficiency;
    row["utilization_analytic"] = model.slot_utilization(0.02);
    row["utilization_measured"] = measured.utilization;
    report.add_row("sharer_sweep", std::move(row));
  }

  std::printf("\nrate sweep at 2 sharers per slot (16 procs / 8 slots):\n");
  std::printf("%-8s %-12s %-12s %-12s\n", "rate", "E measured",
              "utilization", "conflicts");
  for (const double r : {0.005, 0.01, 0.02, 0.03, 0.04}) {
    const auto measured = measure_shared_slots(16, 8, 17, r, 200000, 14);
    std::printf("%-8.3f %-12.3f %-12.3f %-12llu\n", r, measured.efficiency,
                measured.utilization,
                static_cast<unsigned long long>(measured.conflicts));
    auto row = sim::Json::object();
    row["rate"] = r;
    row["efficiency"] = measured.efficiency;
    row["utilization"] = measured.utilization;
    row["conflicts"] = measured.conflicts;
    report.add_row("rate_sweep", std::move(row));
  }
  std::printf("\nShape: utilization roughly doubles/triples with the sharer\n"
              "count while efficiency decays like a (k-1)-processor\n"
              "conventional module — \"especially attractive to\n"
              "computation-intensive applications\" (low r), exactly the\n"
              "trade §7.2 anticipates.\n");
  return bench::finish(opts, report);
}
