// sc::telemetry — the measurement surface of the SmartCrowd repro.
//
// One Telemetry object bundles a metric Registry with a dual-clock Tracer.
// A process-wide instance exists (global()); every instrumented subsystem
// accepts an injected Telemetry* and falls back to the global one when given
// nullptr, so:
//
//   - default builds measure into the shared global sink (zero wiring), and
//   - tools/tests that need isolated, deterministic readings (sc_metrics_dump,
//     the determinism acceptance check) construct their own instance and pass
//     it down the stack: Platform -> Blockchain -> executor -> VM, Cluster ->
//     Network/Node.
//
// Each instrumented layer declares its families once, in a handle struct
// built from the sink's Registry, and records through its references. See
// docs/telemetry.md for naming, labels, exporters and the overhead contract.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace sc::telemetry {

struct Telemetry {
  Registry registry;
  Tracer tracer;

  /// This sink's handle struct H, built as H(registry) on first use (so its
  /// families register together), then lock-free: no mutex, no map search.
  /// Concurrent first calls build exactly one H.
  template <class H>
  H& handles() {
    static const std::size_t slot = next_handle_slot();
    std::atomic<void*>& built = handle_slots_[slot];
    if (void* h = built.load(std::memory_order_acquire)) return *static_cast<H*>(h);
    std::lock_guard<std::mutex> lock(handles_mu_);
    if (!built.load(std::memory_order_relaxed)) {
      owned_.push_back(std::make_shared<H>(registry));
      built.store(owned_.back().get(), std::memory_order_release);
    }
    return *static_cast<H*>(built.load(std::memory_order_relaxed));
  }

 private:
  static constexpr std::size_t kMaxHandleStructs = 16;
  /// Process-wide slot of the next handle-struct type; throws past the cap.
  static std::size_t next_handle_slot();

  std::array<std::atomic<void*>, kMaxHandleStructs> handle_slots_{};
  std::mutex handles_mu_;  ///< Guards owned_ and each slot's first store.
  std::vector<std::shared_ptr<void>> owned_;
};

/// The process-wide default sink. Never destroyed before exit.
Telemetry& global();

/// Injection helper: the instance itself, or the global fallback.
inline Telemetry& resolve(Telemetry* telemetry) {
  return telemetry ? *telemetry : global();
}

}  // namespace sc::telemetry
