#include "qps/planner.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "cost/calibration.hpp"
#include "net/aggregator.hpp"
#include "obs/calibrate.hpp"
#include "obs/obs.hpp"
#include "place/placement.hpp"

namespace orv {

namespace {

CostBreakdown plan_ij_cost(const CostParams& p, const QesOptions* qes) {
  return qes != nullptr && qes->prefetch_lookahead > 0 ? ij_cost_pipelined(p)
                                                       : ij_cost(p);
}

CostBreakdown plan_gh_cost(const CostParams& p, const QesOptions* qes) {
  return qes != nullptr && qes->gh_double_buffer ? gh_cost_pipelined(p)
                                                 : gh_cost(p);
}

}  // namespace

const char* algorithm_name(Algorithm a) {
  return a == Algorithm::IndexedJoin ? "IndexedJoin" : "GraceHash";
}

std::string PlanDecision::to_string() const {
  return strformat("choose %s%s: IJ %s | GH %s", algorithm_name(chosen),
                   pipelined ? " (pipelined)" : "", ij.to_string().c_str(),
                   gh.to_string().c_str());
}

PlanDecision QueryPlanner::plan(const ConnectivityStats& data,
                                std::size_t rs_left, std::size_t rs_right,
                                double cpu_factor,
                                const QesOptions* qes) const {
  obs::StageScope stage(obs::context(), "qps.plan");
  PlanDecision d;
  d.params = CostParams::from(cluster_, data, rs_left, rs_right, cpu_factor);
  // Price the network the executor will run on: the installed message
  // aggregator's current flush threshold, or one message per frame.
  if (const auto* agg = net::context()) {
    d.params.agg_flush_batches = static_cast<double>(agg->flush_batches());
  }
  if (qes != nullptr) {
    d.params.batch_bytes = static_cast<double>(qes->batch_bytes);
    d.params.bucket_pair_bytes = static_cast<double>(qes->bucket_pair_bytes);
    d.params.prefetch_lookahead =
        static_cast<double>(qes->prefetch_lookahead);
    if (qes->contention != nullptr && qes->contention->any()) {
      // Shared cluster under load: derate the idle-cluster parameters by
      // the observed residual capacity before costing either algorithm.
      d.params = apply_contention(d.params, *qes->contention);
      stage.tag("contended", std::uint64_t{1});
    }
  }
  d.pipelined = qes != nullptr && qes->pipelined();
  // Per-algorithm selection: the prefetcher only pipelines IJ, the spill
  // double-buffer only pipelines GH. (ij_cost_pipelined at lookahead 0
  // coincides with ij_cost, so the flags compose.)
  d.ij = plan_ij_cost(d.params, qes);
  d.gh = plan_gh_cost(d.params, qes);
  d.chosen = d.ij.total() <= d.gh.total() ? Algorithm::IndexedJoin
                                          : Algorithm::GraceHash;
  if (qes != nullptr && qes->calibrator != nullptr) {
    // Re-plan with the calibrator's learned hardware parameters; the
    // spec-sheet plan is kept as the prior so validation can report the
    // pre/post error ratio.
    d.calibrated = true;
    d.prior_params = d.params;
    d.prior_ij = d.ij;
    d.prior_gh = d.gh;
    d.params = apply_calibration(d.params, qes->calibrator->state());
    if (qes->contention != nullptr && qes->contention->any()) {
      // The calibrator's learned bandwidths describe the same idle
      // hardware; re-derate them for the load observed right now.
      d.params = apply_contention(d.params, *qes->contention);
    }
    d.ij = plan_ij_cost(d.params, qes);
    d.gh = plan_gh_cost(d.params, qes);
    d.chosen = d.ij.total() <= d.gh.total() ? Algorithm::IndexedJoin
                                            : Algorithm::GraceHash;
    stage.tag("calibrated", std::uint64_t{1});
  }
  stage.tag("chosen", std::string(algorithm_name(d.chosen)));
  return d;
}

std::size_t QueryPlanner::suggest_flush_batches(const CostParams& params,
                                                std::size_t max_batches) {
  CostParams p = params;
  p.agg_flush_batches = 1;
  if (p.msg_overhead <= 0) return 1;
  for (std::size_t flush = 1;; flush *= 2) {
    p.agg_flush_batches = static_cast<double>(flush);
    const CostBreakdown c = gh_cost(p);
    const double msg_term =
        p.msg_overhead * gh_h1_frames(p) / std::max(1.0, p.n_s);
    if (flush >= max_batches || msg_term <= 0.02 * c.total()) {
      return std::min(flush, max_batches);
    }
  }
}

PlanDecision QueryPlanner::plan(const MetaDataService& meta,
                                const ConnectivityGraph& graph,
                                const JoinQuery& query, double cpu_factor,
                                const QesOptions* qes) const {
  ConnectivityStats data;
  data.T = meta.table_rows(query.left_table);
  const std::size_t n_left = meta.num_chunks(query.left_table);
  const std::size_t n_right = meta.num_chunks(query.right_table);
  data.c_R = n_left ? data.T / n_left : 0;
  data.c_S = n_right ? meta.table_rows(query.right_table) / n_right : 0;
  data.num_edges = graph.num_edges();
  data.num_components = graph.num_components();
  PlanDecision d =
      plan(data, meta.table_schema(query.left_table)->record_size(),
           meta.table_schema(query.right_table)->record_size(), cpu_factor,
           qes);
  if (cluster_.colocated && qes != nullptr &&
      qes->assign == ComponentAssign::PlacementAffinity) {
    // Locality-aware refinement: predict the placement-affinity schedule
    // the executor will build, measure what fraction of its first-touch
    // bytes stay node-local, and fold that into the IJ transfer term. GH
    // always shuffles through the switch, so its breakdown stands.
    const Schedule predicted = make_schedule_placement_affinity(
        graph, cluster_.num_compute, meta, cluster_.num_storage,
        qes->pair_order, qes->seed);
    d.params.local_fraction =
        schedule_local_fraction(predicted, meta, cluster_.num_storage);
    d.ij = plan_ij_cost(d.params, qes);
    d.chosen = d.ij.total() <= d.gh.total() ? Algorithm::IndexedJoin
                                            : Algorithm::GraceHash;
    if (d.calibrated) {
      // Keep the prior plan refined the same way, so the pre/post error
      // ratio compares models that differ only in hardware parameters.
      d.prior_params.local_fraction = d.params.local_fraction;
      d.prior_ij = plan_ij_cost(d.prior_params, qes);
    }
  }
  return d;
}

QesResult QueryPlanner::execute(const PlanDecision& decision, Cluster& cluster,
                                BdsService& bds, const MetaDataService& meta,
                                const ConnectivityGraph& graph,
                                const JoinQuery& query,
                                const QesOptions& options) const {
  auto* ctx = obs::context();
  obs::StageScope stage(ctx, "qps.execute");
  stage.tag("algorithm", std::string(algorithm_name(decision.chosen)));
  stage.tag("pipelined", static_cast<std::uint64_t>(decision.pipelined));

  QesResult result;
  if (decision.chosen == Algorithm::IndexedJoin) {
    result = run_indexed_join(cluster, bds, meta, graph, query, options);
  } else {
    result = run_grace_hash(cluster, bds, meta, query, options);
  }
  stage.tag("degraded", static_cast<std::uint64_t>(result.degraded ? 1 : 0));

  if (ctx) {
    // Cost-model feedback: what the Section 5 models predicted for this
    // query vs. what the execution measured.
    obs::PlanValidation pv;
    pv.query = strformat("join(t%u,t%u)", query.left_table,
                         query.right_table);
    pv.chosen = algorithm_name(decision.chosen);
    pv.executed = pv.chosen;
    pv.predicted_ij = decision.ij.total();
    pv.predicted_gh = decision.gh.total();
    pv.predicted = decision.predicted_seconds();
    pv.measured = result.elapsed;
    if (decision.calibrated) {
      pv.calibrated = true;
      pv.predicted_prior = decision.predicted_prior_seconds();
    }
    ctx->add_plan_validation(std::move(pv));
  }
  return result;
}

}  // namespace orv
