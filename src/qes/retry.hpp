#pragma once

// The one client-side retry loop around a BDS read, shared by the Indexed
// Join's fetches and the Grace Hash and scan-aggregate produces.

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "meta/metadata.hpp"
#include "sim/engine.hpp"

namespace orv::qes_detail {

/// Hook for callers with nothing to do on a failed attempt.
struct NoRetryHook {
  void operator()() const {}
};

/// Issues `attempt(k)` (a sim::Task; k = 0 first) for a BDS read of
/// sub-table `id` (`verb` names it in errors: "fetch", "produce") until it
/// succeeds. Under an installed fault injector a retryable IoError — an
/// injected read error, an RPC timeout against a down storage node —
/// backs off per the plan's RetryPolicy, bumps `retries` and tries again;
/// exhausting the budget surfaces a clean FaultError. Without one, an
/// IoError is a genuine device error and propagates. `on_error` runs on
/// every failed attempt first.
template <typename Attempt, typename OnError = NoRetryHook>
auto read_with_retry(sim::Engine& engine, const char* verb, SubTableId id,
                     std::uint64_t& retries, Attempt attempt,
                     OnError on_error = {}) -> decltype(attempt(0)) {
  auto* inj = fault::context();
  const fault::RetryPolicy policy =
      inj ? inj->plan().retry : fault::RetryPolicy{};
  for (int k = 0;; ++k) {
    if (k > 0) co_await engine.sleep(policy.backoff(k));
    try {
      co_return co_await attempt(k);
    } catch (const IoError& e) {
      on_error();
      if (!inj) throw;  // genuine device error: not ours to mask
      if (k + 1 >= policy.max_attempts) {
        throw fault::FaultError(std::string(verb) + " of " + id.to_string() +
                                " failed after " + std::to_string(k + 1) +
                                " attempts: " + e.what());
      }
      inj->note_retry();
      ++retries;
    }
  }
}

}  // namespace orv::qes_detail
