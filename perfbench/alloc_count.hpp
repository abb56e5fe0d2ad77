// Heap-allocation counting for the traced benchmark binary.
//
// perfbench_traced links alloc_count.cpp, which replaces the global
// operator new with a counting one; perfbench_plain links alloc_none.cpp,
// so the untraced binary runs the program's allocator untouched.
#pragma once

#include <cstdint>

namespace perfbench {

/// True in the traced binary, where heap_allocations() counts.
[[nodiscard]] bool heap_counting() noexcept;

/// Global operator new calls since process start (0 when not counting).
[[nodiscard]] std::uint64_t heap_allocations() noexcept;

}  // namespace perfbench
