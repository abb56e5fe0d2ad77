// Block-operation state machine types shared by CfmMemory (Ch. 4 data
// operations) and the cache protocol layer (Ch. 5 primitives).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cfm/att.hpp"
#include "sim/types.hpp"

namespace cfm::core {

/// User-visible operation kinds.  Swap bundles a read phase and a write
/// phase that execute back-to-back on the same block (§4.2.1); a modify
/// callback between the phases generalizes it to read-modify-write.
enum class BlockOpKind : std::uint8_t {
  Read,
  Write,
  Swap,
  ProtoRead,
  ProtoReadInv,
  ProtoWriteBack,
};

enum class OpStatus : std::uint8_t {
  InFlight,
  Completed,
  /// Plain write that met a later same-address write and let it land
  /// (§4.1 / §4.2): final, the block holds the fresher value.
  Superseded,
  Aborted,   ///< fault abort: watchdog timeout or a dropped link
  Rejected,  ///< cache-protocol op told to retry later (Table 5.2)
};

/// Priority policy for same-address write conflicts.
///   LatestWins   — §4.1 plain consistency: the latest issued write
///                  completes, earlier ones abort.
///   EarliestWins — §4.2 atomic-operation support: swaps restart when they
///                  meet earlier writes, plain writes defer to swap writes;
///                  plain-vs-plain keeps the §4.1 ordering (see DESIGN.md).
///   NoTracking   — ablation: the ATT machinery disabled.  Same-address
///                  races then corrupt blocks exactly as Fig 4.1 warns;
///                  exists only to quantify what the ATT buys.
enum class ConsistencyPolicy : std::uint8_t {
  LatestWins,
  EarliestWins,
  NoTracking,
};

/// Outcome of one block operation.
struct BlockOpResult {
  OpStatus status = OpStatus::InFlight;
  sim::Cycle issued = 0;          ///< original issue slot
  sim::Cycle completed = 0;       ///< first cycle the result is available
  std::uint32_t restarts = 0;     ///< read restarts / swap restarts
  std::vector<sim::Word> data;    ///< block read (old value, for swaps)
};

/// Callback producing the write-phase block of a read-modify-write from
/// the block read in the read phase.
using ModifyFn =
    std::function<std::vector<sim::Word>(const std::vector<sim::Word>&)>;

}  // namespace cfm::core
