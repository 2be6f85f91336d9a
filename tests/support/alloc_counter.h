// Heap-allocation counting for the zero-allocation tests.
//
// alloc_counter.cc replaces the global operator new/delete with
// malloc/free plus a counter. A replacement allocator applies to the
// whole program, so a test that links it must be its own executable.
#pragma once

#include <cstdint>

namespace deepnote::test_support {

/// Calls to operator new / new[] since the program started.
std::uint64_t heap_allocations();

}  // namespace deepnote::test_support
