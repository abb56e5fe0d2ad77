#include "cfm/atomic.hpp"

#include <cassert>
#include <vector>

namespace cfm::core {

void LockClient::acquire() {
  assert(state_ == State::Idle);
  state_ = State::ReadLooping;  // start optimistically with a read check
  want_since_ = sim::kNeverCycle;  // stamped on first tick
}

void LockClient::release() {
  assert(state_ == State::Holding);
  want_release_ = true;
}

void LockClient::tick(sim::Cycle now, CfmMemory& mem) {
  const auto banks = mem.config().banks;
  switch (state_) {
    case State::Idle:
      break;

    case State::ReadLooping: {
      if (want_since_ == sim::kNeverCycle) want_since_ = now;
      if (!mem.idle(proc_)) break;
      // Try the swap directly when we last saw the lock free (or on the
      // first attempt); otherwise keep reading.
      const std::vector<sim::Word> ones(banks, 1);
      pending_ = mem.issue(now, proc_, BlockOpKind::Swap, block_, ones);
      state_ = State::SwapPending;
      break;
    }

    case State::SwapPending: {
      auto result = mem.take_result(pending_);
      if (!result.has_value()) break;
      assert(result->status == OpStatus::Completed);  // swaps retry internally
      if (result->data.at(0) == 0) {
        state_ = State::Holding;
        ++acquisitions_;
        acquire_latency_.add(static_cast<double>(now - want_since_));
      } else {
        // Lock held: fall back to the read loop (while (*s);) so we do not
        // keep writing the already-locked block.
        state_ = State::ReadPending;
        pending_ = mem.issue(now, proc_, BlockOpKind::Read, block_);
      }
      break;
    }

    case State::ReadPending: {
      auto result = mem.take_result(pending_);
      if (!result.has_value()) break;
      assert(result->status == OpStatus::Completed);
      if (result->data.at(0) == 0) {
        // Saw the lock free: compete for it with a swap.
        const std::vector<sim::Word> ones(banks, 1);
        pending_ = mem.issue(now, proc_, BlockOpKind::Swap, block_, ones);
        state_ = State::SwapPending;
      } else {
        pending_ = mem.issue(now, proc_, BlockOpKind::Read, block_);
      }
      break;
    }

    case State::Holding: {
      if (!want_release_ || !mem.idle(proc_)) break;
      const std::vector<sim::Word> zeros(banks, 0);
      pending_ = mem.issue(now, proc_, BlockOpKind::Write, block_, zeros);
      state_ = State::UnlockPending;
      want_release_ = false;
      break;
    }

    case State::UnlockPending: {
      auto result = mem.take_result(pending_);
      if (!result.has_value()) break;
      if (result->status != OpStatus::Completed) {
        // Superseded by a racing write (cannot happen in well-formed lock
        // usage where only the holder writes, but stay robust) or
        // fault-aborted: the lock word must still clear, so retry.
        const std::vector<sim::Word> zeros(mem.config().banks, 0);
        pending_ = mem.issue(now, proc_, BlockOpKind::Write, block_, zeros);
        break;
      }
      state_ = State::Idle;
      break;
    }
  }
}

}  // namespace cfm::core
