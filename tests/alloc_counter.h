// Heap-allocation counter for tests that gate "allocates nothing".
//
// integration/zero_alloc_test.cpp replaces every replaceable global
// allocation function of the prism_tests binary with one that forwards to
// malloc (or aligned_alloc) and, while a count is armed, bumps one atomic
// counter. Allocations on every thread count, lane workers included.
#pragma once

#include <atomic>
#include <cstdint>

namespace prism::test {

inline std::atomic<bool> alloc_count_armed{false};
inline std::atomic<std::uint64_t> alloc_count{0};

/// Heap allocations made by any thread while `body` runs.
template <typename F>
std::uint64_t allocations_during(F&& body) {
  alloc_count.store(0);
  alloc_count_armed.store(true);
  body();
  alloc_count_armed.store(false);
  return alloc_count.load();
}

}  // namespace prism::test
