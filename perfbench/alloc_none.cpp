#include "alloc_count.hpp"

namespace perfbench {

bool heap_counting() noexcept { return false; }
std::uint64_t heap_allocations() noexcept { return 0; }

}  // namespace perfbench
