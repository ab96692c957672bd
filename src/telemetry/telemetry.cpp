#include "telemetry/telemetry.hpp"

#include <stdexcept>

namespace sc::telemetry {

std::size_t Telemetry::next_handle_slot() {
  static std::atomic<std::size_t> next{0};
  const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxHandleStructs)
    throw std::logic_error("telemetry: more handle-struct types than kMaxHandleStructs");
  return slot;
}

Telemetry& global() {
  // Leaked on purpose: instrumented code may run during static destruction
  // (e.g. a thread pool winding down), so the sink must outlive everything.
  static Telemetry* instance = new Telemetry();
  return *instance;
}

}  // namespace sc::telemetry
