// trace::Counter: a relaxed atomic counter cheap enough to live inside
// hot-path components.
//
// Each count is recorded once, by its owner: layers keep their statistics in
// these members (RpcClient, SimNetwork, BindingAgent — whose
// `lookups_served_` was once a mutable non-atomic increment on a const path,
// i.e. a data race under concurrent lookups), and their accessors read
// value(). What a span or an instant already records is not counted again.
// Testbed::DumpTrace hands the totals of what the testbed owns to the Chrome
// export (chrome_trace.h).
#pragma once

#include <atomic>
#include <cstdint>

namespace dcdo::trace {

// Monotonic (well, usually — in-flight gauges also subtract) event counter.
// Relaxed ordering: statistics, not synchronization.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(std::uint64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace dcdo::trace
