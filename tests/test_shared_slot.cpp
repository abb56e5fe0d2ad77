// Tests for slot oversubscription (§7.2): sharing AT-space slots trades
// conflict-freedom for utilization.
#include <gtest/gtest.h>

#include "cfm/shared_slot.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm::core;
using cfm::sim::Cycle;
using cfm::workload::measure_shared_slots;

TEST(SharedSlotFabric, ShapeValidation) {
  EXPECT_THROW(SharedSlotFabric(7, 3, 17), std::invalid_argument);
  EXPECT_THROW(SharedSlotFabric(8, 4, 0), std::invalid_argument);
}

TEST(SharedSlotFabric, OneSharerNeverConflicts) {
  SharedSlotFabric fabric(4, 4, 17);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_NE(fabric.try_access(p, 0), cfm::sim::kNeverCycle);
  }
  EXPECT_EQ(fabric.conflicts(), 0u);
}

TEST(SharedSlotFabric, SlotSharersConflict) {
  SharedSlotFabric fabric(8, 4, 17);
  // Processors 0 and 4 share slot 0.
  EXPECT_EQ(fabric.slot_of(0), fabric.slot_of(4));
  EXPECT_NE(fabric.try_access(0, 0), cfm::sim::kNeverCycle);
  EXPECT_EQ(fabric.try_access(4, 0), cfm::sim::kNeverCycle);
  EXPECT_EQ(fabric.conflicts(), 1u);
  // The slot frees after beta.
  EXPECT_NE(fabric.try_access(4, 17), cfm::sim::kNeverCycle);
}

TEST(SharedSlotFabric, DifferentSlotsIndependent) {
  SharedSlotFabric fabric(8, 4, 17);
  EXPECT_NE(fabric.try_access(0, 0), cfm::sim::kNeverCycle);
  EXPECT_NE(fabric.try_access(1, 0), cfm::sim::kNeverCycle);
  EXPECT_NE(fabric.try_access(2, 0), cfm::sim::kNeverCycle);
  EXPECT_NE(fabric.try_access(3, 0), cfm::sim::kNeverCycle);
  EXPECT_EQ(fabric.conflicts(), 0u);
}

TEST(SharedSlotModel, DegeneratesToConflictFree) {
  SharedSlotModel model{8, 8, 17};  // one processor per slot
  EXPECT_DOUBLE_EQ(model.conflict_probability(0.05), 0.0);
  EXPECT_DOUBLE_EQ(model.efficiency(0.05), 1.0);
}

TEST(SharedSlotModel, MoreSharersMoreConflictsMoreUtilization) {
  SharedSlotModel two{8, 4, 17};   // 2 sharers per slot
  SharedSlotModel four{16, 4, 17}; // 4 sharers per slot
  EXPECT_GT(four.conflict_probability(0.02), two.conflict_probability(0.02));
  EXPECT_LT(four.efficiency(0.02), two.efficiency(0.02));
  EXPECT_GT(four.slot_utilization(0.02), two.slot_utilization(0.02));
}

TEST(SharedSlotMeasured, MatchesModelShape) {
  const auto exclusive = measure_shared_slots(8, 8, 17, 0.02, 150000, 5);
  const auto doubled = measure_shared_slots(16, 8, 17, 0.02, 150000, 5);
  // Exclusive slots: conflict-free and exactly beta.
  EXPECT_DOUBLE_EQ(exclusive.efficiency, 1.0);
  EXPECT_EQ(exclusive.conflicts, 0u);
  // Oversubscribed: lower efficiency, higher slot utilization.
  EXPECT_LT(doubled.efficiency, 1.0);
  EXPECT_GT(doubled.conflicts, 0u);
  EXPECT_GT(doubled.utilization, exclusive.utilization * 1.5);
}

TEST(SharedSlotMeasured, TracksAnalyticEfficiency) {
  SharedSlotModel model{16, 8, 17};
  const auto sim = measure_shared_slots(16, 8, 17, 0.015, 200000, 9);
  EXPECT_NEAR(sim.efficiency, model.efficiency(0.015), 0.08);
}

}  // namespace
