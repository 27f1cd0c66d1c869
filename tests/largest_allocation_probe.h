// Largest-allocation probe for tests: replaces the global operator new
// (the trace_test pattern) so a test can assert that no single allocation
// made while the probe is armed exceeds a bound. Replacement allocation
// functions are program-wide, so include this header from exactly one
// source file of a test binary.
#ifndef DTUCKER_TESTS_LARGEST_ALLOCATION_PROBE_H_
#define DTUCKER_TESTS_LARGEST_ALLOCATION_PROBE_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace dtucker {

// While armed, records the largest single operator new request made by
// any thread.
class LargestAllocationProbe {
 public:
  static void Arm() {
    largest_.store(0, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }
  // Disarms the probe and returns the largest request seen since Arm().
  static std::size_t Disarm() {
    armed_.store(false, std::memory_order_release);
    return largest_.load(std::memory_order_relaxed);
  }
  static void Note(std::size_t size) {
    if (!armed_.load(std::memory_order_acquire)) return;
    std::size_t prev = largest_.load(std::memory_order_relaxed);
    while (size > prev && !largest_.compare_exchange_weak(
                              prev, size, std::memory_order_relaxed)) {
    }
  }

 private:
  static inline std::atomic<bool> armed_{false};
  static inline std::atomic<std::size_t> largest_{0};
};

}  // namespace dtucker

// Every replaceable form that the sized and unsized deletes below must
// match (the nothrow forms too: std::stable_sort allocates through them).
void* operator new(std::size_t size) {
  dtucker::LargestAllocationProbe::Note(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  dtucker::LargestAllocationProbe::Note(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  dtucker::LargestAllocationProbe::Note(size);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  dtucker::LargestAllocationProbe::Note(size);
  return std::malloc(size);
}
// GCC pairs each inlined free() below with the operator new it can see and
// flags the replacement pair as mismatched; malloc/free is the pair here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

#endif  // DTUCKER_TESTS_LARGEST_ALLOCATION_PROBE_H_
