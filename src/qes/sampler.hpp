#pragma once

// Sim-time occupancy sampler: a coroutine that wakes at fixed virtual
// intervals and records resource occupancy — storage disk, NIC and switch
// busy-time deltas — plus whatever gauge probes the running join
// registered (cache bytes, pin counts, prefetch-channel depth) into the
// ObsContext's time series. The joins only spawn it when an ObsContext
// with a positive sample_interval is installed, so default runs schedule
// no extra events and stay event-for-event identical.
//
// QueryLifecycle wraps it with the rest of the per-query scaffolding both
// join executors share: the root span, the trace id and the measured
// elapsed time.

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace orv {

/// Gauge probes registered by a join while their referents are alive.
struct ProbeSet {
  std::vector<std::pair<std::string, std::function<double()>>> entries;
};

/// Samples until `*done` (set by the query's supervisor on every exit
/// path — a sampler that outlives its done flag would keep the engine
/// alive forever). Occupancy is the busy-time delta over the interval;
/// Resource accrues busy time at reservation, so a burst of reservations
/// shows up as a spike in the interval it was booked in.
inline sim::Task<> occupancy_sampler(Cluster& cluster, obs::ObsContext* ctx,
                                     const ProbeSet& probes,
                                     const bool* done) {
  auto& engine = cluster.engine();
  const double dt = ctx->sample_interval;
  const std::size_t n_disks =
      cluster.spec().shared_filesystem ? 1 : cluster.num_storage();
  auto totals = [&] {
    std::array<double, 4> t{};
    for (std::size_t i = 0; i < n_disks; ++i) {
      t[0] += cluster.storage_disk(i).busy_time();
    }
    for (std::size_t i = 0; i < cluster.num_storage(); ++i) {
      if (auto* r = cluster.storage_nic(i)) t[1] += r->busy_time();
    }
    for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
      if (auto* r = cluster.compute_nic(j)) t[2] += r->busy_time();
    }
    t[3] = cluster.network_switch().busy_time();
    return t;
  };
  static constexpr const char* kNames[4] = {
      "occupancy.storage_disk", "occupancy.storage_nic",
      "occupancy.compute_nic", "occupancy.switch"};
  std::array<double, 4> prev = totals();
  while (!*done) {
    co_await engine.sleep(dt);
    const double now = engine.now();
    const std::array<double, 4> cur = totals();
    for (std::size_t k = 0; k < cur.size(); ++k) {
      ctx->add_sample(kNames[k], now, (cur[k] - prev[k]) / dt);
    }
    prev = cur;
    for (const auto& [name, probe] : probes.entries) {
      ctx->add_sample(name, now, probe());
    }
  }
}

/// One distributed join query's lifecycle, shared by the Indexed Join and
/// Grace Hash executors: begin() opens the root span (tagged with a fresh
/// trace id and the algorithm), spawn_sampler() starts the occupancy
/// sampler, finish() records the true completion instant on every exit
/// path, and complete() / fail() close the root span.
struct QueryLifecycle {
  explicit QueryLifecycle(Cluster& c) : cluster(c) {}

  /// Marks the query's start; opens the root span when an ObsContext is
  /// installed.
  void begin(const char* span_name, const char* algorithm);
  /// Spawns the occupancy sampler iff sampling; call after the workers.
  void spawn_sampler(const char* name);
  /// The query is over: stops the sampler and pins the completion time.
  void finish() {
    done = true;
    finished_at = cluster.engine().now();
  }
  /// Virtual seconds since begin(). With the sampler on, its trailing tick
  /// advances engine.now() past completion, so finish()'s instant counts.
  double elapsed() const;
  /// Successful query: closes the root span at start + elapsed() and
  /// mirrors a degraded run into the query.degraded counter.
  void complete(bool degraded);
  /// Failed query: closes the root span as orphaned, so a failed query
  /// never leaves dangling spans behind.
  void fail();

  Cluster& cluster;
  obs::ObsContext* ctx = nullptr;
  std::uint64_t trace_id = 0;
  obs::SpanId span;  // the root span worker spans parent on
  bool sampling = false;
  bool done = false;
  double start = 0;
  double finished_at = -1;
  ProbeSet probes;
  /// Expires with the lifecycle, i.e. with the query's state. A failed
  /// query can leave workers parked forever (Grace Hash receivers on a
  /// channel nobody closes); the engine destroys their frames after the
  /// query's frame, so worker exit guards check this before touching the
  /// state.
  std::shared_ptr<const char> alive = std::make_shared<const char>();
};

/// RAII registration: probes added through a guard are removed when the
/// guard leaves scope, before the cache / channel they read is destroyed.
class ProbeGuard {
 public:
  explicit ProbeGuard(QueryLifecycle& life)
      : set_(life.probes), alive_(life.alive) {}
  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;
  ~ProbeGuard() {
    if (alive_.expired()) return;
    for (const std::string& name : names_) {
      auto& e = set_.entries;
      for (std::size_t i = 0; i < e.size(); ++i) {
        if (e[i].first == name) {
          e.erase(e.begin() + i);
          break;
        }
      }
    }
  }

  void add(std::string name, std::function<double()> probe) {
    names_.push_back(name);
    set_.entries.emplace_back(std::move(name), std::move(probe));
  }

 private:
  ProbeSet& set_;
  std::weak_ptr<const char> alive_;
  std::vector<std::string> names_;
};

}  // namespace orv
