#include "qes/session.hpp"

#include "common/strings.hpp"

namespace orv {

QesSession::QesSession(Cluster& cluster, BdsService& bds,
                       const MetaDataService& meta, Config config)
    : cluster_(cluster),
      bds_(bds),
      meta_(meta),
      config_(config),
      planner_(cluster.spec()) {
  if (config_.share_cache) {
    const std::uint64_t cap = config_.cache_bytes > 0
                                  ? config_.cache_bytes
                                  : cluster_.memory_bytes();
    caches_.reserve(cluster_.num_compute());
    for (std::size_t j = 0; j < cluster_.num_compute(); ++j) {
      caches_.push_back(
          std::make_shared<CachingService>(cap, config_.cache_policy));
    }
  }
}

const ConnectivityGraph& QesSession::graph_for(const JoinQuery& query) {
  std::string key = strformat("%u|%u", query.left_table, query.right_table);
  for (const auto& a : query.join_attrs) {
    key += "|";
    key += a;
  }
  for (const auto& r : query.ranges) {
    key += strformat("|%s:%.17g:%.17g", r.attr.c_str(), r.range.lo,
                     r.range.hi);
  }
  auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    it = graphs_
             .emplace(std::move(key),
                      std::make_unique<ConnectivityGraph>(
                          ConnectivityGraph::build(meta_, query.left_table,
                                                   query.right_table,
                                                   query.join_attrs,
                                                   query.ranges)))
             .first;
  }
  return *it->second;
}

CachingService::Stats QesSession::cache_totals() const {
  CachingService::Stats total;
  for (const auto& c : caches_) total += c->stats();
  return total;
}

sim::Task<> QesSession::run_query(JoinQuery query, QesOptions options,
                                  Outcome* out,
                                  std::optional<Algorithm> force) {
  try {
    if (!caches_.empty()) options.node_caches = &caches_;
    const ConnectivityGraph& graph = graph_for(query);
    // cpu_work_factor repeats hash charges k times; the planner's
    // cpu_factor scales CPU *speed*, so the two are reciprocal.
    const double cpu_factor =
        options.cpu_work_factor > 0 ? 1.0 / options.cpu_work_factor : 1.0;
    out->plan = planner_.plan(meta_, graph, query, cpu_factor, &options);
    out->algorithm = force.value_or(out->plan.chosen);
    if (out->algorithm == Algorithm::IndexedJoin) {
      out->result = co_await indexed_join_task(cluster_, bds_, meta_, graph,
                                               query, options);
    } else {
      out->result = co_await grace_hash_task(cluster_, bds_, meta_, query,
                                             options);
    }
  } catch (const std::exception& e) {
    out->failed = true;
    out->error = e.what();
  }
  out->done = true;
}

}  // namespace orv
