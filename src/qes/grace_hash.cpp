// Grace Hash join QES (paper Section 4.2, network-free bucket-join
// variant).
//
// Phase 1 (partition): each storage node's QES reads its local chunks of
// both tables, applies h1 to route record batches to compute nodes; each
// compute node applies h2 to split received records into scratch-disk
// buckets.
//
// Phase 2 (bucket join): after a barrier, each compute node reads its
// bucket pairs back and joins them in memory, independently of the network.
//
// Each phase has one disk sequence per batch / bucket, and
// QesOptions::gh_double_buffer only changes when it waits. Spill: wait for
// the previous batch's write, reserve this one's, and — serial — wait for
// it too, so the receiver charges network + bucket write per batch in
// sequence, which is what makes the cost model's Transfer + Write terms
// additive (Section 5.2). Double-buffered, the write of batch k overlaps
// the receive of batch k+1 (one outstanding reservation). Read-back: wait
// for the bucket's scratch read — reserved just now (serial), or while the
// CPU joined the previous bucket (double-buffered) — the pipelined cost
// model's max-of-stages.

#include <deque>
#include <exception>
#include <optional>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "net/aggregator.hpp"
#include "obs/obs.hpp"
#include "qes/offload.hpp"
#include "qes/qes.hpp"
#include "qes/retry.hpp"
#include "qes/sampler.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace orv {

namespace {

/// Capacity of each compute node's h1 batch channel: how many batches a
/// receiver may have queued before senders to it block.
constexpr std::size_t kChannelCapacity = 4;

/// A batch of packed records of one table, routed to one compute node.
/// `trace` carries the sender's span across the node boundary: the
/// receiver's per-batch ingest span records it as its causal link, which
/// is what stitches the h1 transfer into one cross-node DAG.
struct Batch {
  bool left = true;
  std::uint32_t src_node = 0;
  std::uint32_t rows = 0;
  std::vector<std::byte> bytes;
  obs::TraceContext trace;
};

struct GhShared {
  GhShared(Cluster& c, BdsService& b, const MetaDataService& m,
           const JoinQuery& q, const QesOptions& o, SchemaPtr ls,
           SchemaPtr rs, ProbeSide side, SchemaPtr result)
      : cluster(c), bds(b), meta(m), query(q), options(o),
        left_schema(std::move(ls)), right_schema(std::move(rs)),
        probe_side(std::move(side)), result_schema(std::move(result)),
        left_filter(left_schema, q.ranges),
        right_filter(right_schema, q.ranges),
        life(c), jobs(o.result_sink) {}

  Cluster& cluster;
  BdsService& bds;
  const MetaDataService& meta;
  const JoinQuery& query;
  const QesOptions& options;

  SchemaPtr left_schema;
  SchemaPtr right_schema;
  const ProbeSide probe_side;  // the right table's key and copy plan
  SchemaPtr result_schema;
  // The query's selection compiled once per input table; h1 routes only
  // the rows that pass.
  const RowFilter left_filter;
  const RowFilter right_filter;
  std::size_t n_buckets = 1;

  std::vector<std::unique_ptr<sim::Channel<Batch>>> to_compute;

  // Event-loop accumulators (the offloaded bucket joins fold probe and
  // result tuples and the fingerprint into `jobs`).
  JoinStats stats;
  double partition_phase_end = 0;

  // Round-based recovery protocol state; only touched when a fault
  // injector is installed (fault-free runs take the single-round fast
  // path with no extra synchronization).
  std::unique_ptr<sim::Latch> drain_latch;  // one count per compute node
  std::unique_ptr<sim::Event> round_gate;   // set once the round's verdict is in
  std::vector<std::unique_ptr<sim::Event>> retired_gates;
  bool partition_complete = false;
  std::vector<char> final_dead;  // valid once partition_complete is set

  // Fault accounting.
  std::uint64_t fetch_retries = 0;
  std::uint64_t rows_repartitioned = 0;
  std::uint64_t compute_nodes_lost = 0;

  /// Logical h1 batch messages sent (the cost model's message count; the
  /// physical frame count is read off the switch and is smaller when an
  /// aggregator is installed).
  std::uint64_t h1_messages_sent = 0;

  /// Per-receiver work accounting (skew diagnosis): busy seconds over both
  /// phases, h1 rows received, batch bytes ingested.
  std::vector<QesResult::NodeWork> node_work;

  // Root span, trace id, occupancy sampler and completion time: the
  // query completes when the last of `computes_left` compute nodes
  // finishes.
  QueryLifecycle life;
  std::size_t computes_left = 0;

  /// Each bucket's build, probe and fingerprint (offload.hpp). Declared
  /// last: it is destroyed first, waiting for the jobs that read the
  /// members above.
  JoinOffload jobs;
};

/// Routing chain for one row: candidate k is h1 re-salted k times; the
/// destination is the first alive candidate. k = 0 reproduces the plain h1
/// routing, so with no dead nodes this is byte-identical to the fault-free
/// partitioner. Rows with equal join keys hash identically at every k and
/// therefore share the whole chain — matching left/right rows stay
/// co-located no matter which prefix of the chain has died.
std::size_t chain_dest(const JoinKey& key, const std::byte* row,
                       std::size_t n_dest, const std::vector<char>& dead) {
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::size_t cand =
        key.hash_row(row, kSaltGraceH1 + k * 0x9e3779b97f4a7c15ull) % n_dest;
    if (dead.empty() || !dead[cand]) return cand;
  }
  // Pathological chain: fall back to the first survivor (key-independent,
  // hence the same for every row — co-location still holds).
  for (std::size_t j = 0; j < n_dest; ++j) {
    if (!dead[j]) return j;
  }
  throw fault::FaultError("grace hash: no surviving compute node to route to");
}

/// Per-destination batch buffers for one storage process and one table.
/// `dead` is the routing dead-set for this partition round (empty on the
/// fault-free path and in round 0).
class Partitioner {
 public:
  /// `parent` is the sending task's partition/repartition span: every
  /// per-batch send span nests under it and rides the Batch to the
  /// receiver.
  Partitioner(GhShared& sh, bool left, std::uint32_t src,
              const Schema& schema, obs::SpanId parent,
              std::vector<char> dead = {})
      : sh_(sh),
        left_(left),
        src_(src),
        record_size_(schema.record_size()),
        key_(JoinKey::resolve(schema, sh.query.join_attrs)),
        parent_(parent),
        dead_(std::move(dead)),
        buffers_(sh.to_compute.size()) {}

  /// Routes the rows of `chunk` that pass the query's selection. Recovery
  /// rounds pass the previous round's dead set and re-send exactly the
  /// rows whose copy was lost, i.e. rows whose destination under
  /// `prev_dead` has since died; rows whose previous destination survives
  /// are skipped — their copy is still bucketed there, and re-sending
  /// would duplicate them.
  sim::Task<> add_subtable(const SubTable& chunk,
                           const std::vector<char>* prev_dead = nullptr) {
    const RowFilter& filter = left_ ? sh_.left_filter : sh_.right_filter;
    std::optional<SubTable> filtered;
    if (filter.constrains()) filtered = filter_rows(chunk, filter);
    const SubTable& st = filtered ? *filtered : chunk;
    const std::size_t n_dest = buffers_.size();
    for (std::size_t r = 0; r < st.num_rows(); ++r) {
      const std::byte* row = st.row(r);
      if (prev_dead != nullptr) {
        if (!dead_[chain_dest(key_, row, n_dest, *prev_dead)]) continue;
        ++sh_.rows_repartitioned;
      }
      const std::size_t dest = chain_dest(key_, row, n_dest, dead_);
      auto& buf = buffers_[dest];
      buf.insert(buf.end(), row, row + record_size_);
      if (buf.size() >= sh_.options.batch_bytes) {
        co_await flush(dest);
      }
    }
  }

  sim::Task<> flush_all() {
    for (std::size_t dest = 0; dest < buffers_.size(); ++dest) {
      if (!buffers_[dest].empty()) co_await flush(dest);
    }
  }

 private:
  sim::Task<> flush(std::size_t dest) {
    Batch batch;
    batch.left = left_;
    batch.src_node = src_;
    batch.rows = static_cast<std::uint32_t>(buffers_[dest].size() /
                                            record_size_);
    batch.bytes = std::move(buffers_[dest]);
    buffers_[dest].clear();
    const double batch_bytes = static_cast<double>(batch.bytes.size());
    auto* ctx = obs::context();
    obs::StageScope send_stage(ctx, "gh.send", parent_);
    batch.trace = obs::TraceContext{sh_.life.trace_id, send_stage.id()};
    ++sh_.h1_messages_sent;
    if (auto* agg = net::context()) {
      // Aggregated path: hand the batch to the per-(src,dst) flow and
      // return immediately. The aggregator charges one egress per combined
      // frame (and rolls the fault dice per frame); the deliver closure
      // runs after the frame crosses the switch. It reads the channel slot
      // through sh_ at delivery time, so recovery-round channel swaps are
      // safe — gh_storage/gh_repartition drain the node before the
      // coordinator ever closes or swaps a round's channels.
      auto payload = std::make_shared<Batch>(std::move(batch));
      GhShared* sh = &sh_;
      agg->post(src_, dest, batch_bytes, send_stage.id(),
                [sh, dest, payload]() -> sim::Task<> {
                  co_await sh->to_compute[dest]->send(std::move(*payload));
                });
      co_return;
    }
    auto* inj = fault::context();
    std::uint64_t retransmits = 0;
    while (true) {
      // Egress (source NIC + switch) is charged here, pacing the sender;
      // the receiver charges its own NIC + bucket write when it processes
      // the batch. Splitting the two sides keeps per-flow accounting
      // additive without convoy coupling across source NICs.
      co_await sh_.cluster.storage_egress(src_, batch_bytes);
      if (inj) {
        const auto act = inj->on_message(src_, dest);
        if (act.drop) {
          // Lost on the wire: the sender notices via timeout and resends,
          // so drops cost virtual time but never data. The retransmit
          // edge gets its own span so trace assembly can see retries.
          obs::StageScope retrans(ctx, "gh.retransmit", send_stage.id());
          co_await sh_.cluster.engine().sleep(
              inj->plan().retransmit_timeout);
          retrans.close();
          ++retransmits;
          continue;
        }
        if (act.delay > 0) {
          co_await sh_.cluster.engine().sleep(act.delay);
        }
      }
      co_await sh_.to_compute[dest]->send(std::move(batch));
      break;
    }
    if (retransmits > 0) send_stage.tag("retransmits", retransmits);
  }

  GhShared& sh_;
  bool left_;
  std::uint32_t src_;
  std::size_t record_size_;
  JoinKey key_;
  obs::SpanId parent_;
  std::vector<char> dead_;
  std::vector<std::vector<std::byte>> buffers_;
};

/// Reads a node's local chunks of one table into a small bounded queue, so
/// disk reads pipeline behind partitioning/sending (read-ahead; this is
/// what hides the chunk reads inside the model's Transfer term). The queue
/// is closed on every exit, so a failed read (a permanently lost storage
/// node) wakes the consumer, which then joins this task and rethrows.
sim::Task<> gh_reader(GhShared& sh, std::size_t node, TableId table,
                      sim::Channel<std::shared_ptr<const SubTable>>& out,
                      obs::TraceContext rpc) {
  try {
    BdsInstance& bds = sh.bds.instance(node);
    for (const auto& cm : sh.meta.chunks(table)) {
      if (cm.location.storage_node != node) continue;
      auto st = co_await qes_detail::read_with_retry(
          sh.cluster.engine(), "produce", cm.id, sh.fetch_retries,
          [&](int) { return bds.produce(cm.id, rpc); });
      co_await out.send(std::move(st));
    }
  } catch (...) {
    out.close();
    throw;
  }
  out.close();
}

/// Storage-node QES: stream local chunks of both tables through h1.
sim::Task<> gh_storage(GhShared& sh, std::size_t node, sim::Latch& done) {
  obs::StageScope stage(obs::context(), "gh.partition", sh.life.span);
  stage.tag("storage_node", static_cast<std::uint64_t>(node));
  Partitioner left_part(sh, true, static_cast<std::uint32_t>(node),
                        *sh.left_schema, stage.id());
  Partitioner right_part(sh, false, static_cast<std::uint32_t>(node),
                         *sh.right_schema, stage.id());

  auto stream_table = [](GhShared& s, std::size_t n, TableId table,
                         Partitioner& part,
                         obs::SpanId parent) -> sim::Task<> {
    sim::Channel<std::shared_ptr<const SubTable>> queue(s.cluster.engine(),
                                                        2);
    auto reader = s.cluster.engine().spawn(
        gh_reader(s, n, table, queue,
                  obs::TraceContext{s.life.trace_id, parent}),
        strformat("gh-reader-%zu-t%u", n, table));
    while (true) {
      auto st = co_await queue.recv();
      if (!st) break;
      co_await part.add_subtable(**st);
    }
    co_await reader.join();
  };

  // A failed read still counts this sender down, so the coordinator
  // closes the channels and the receivers finish; the query then fails
  // with the read's error instead of leaving every process parked.
  std::exception_ptr error;
  try {
    co_await stream_table(sh, node, sh.query.left_table, left_part,
                          stage.id());
    co_await left_part.flush_all();
    co_await stream_table(sh, node, sh.query.right_table, right_part,
                          stage.id());
    co_await right_part.flush_all();
  } catch (...) {
    error = std::current_exception();
  }
  if (auto* agg = net::context()) {
    // Every posted batch must be in its destination channel before the
    // coordinator learns this sender is done — otherwise it would close
    // the round's channels under buffered messages.
    co_await agg->drain(node);
  }
  done.count_down();
  if (error) std::rethrow_exception(error);
}

/// Recovery-round sender: re-reads this storage node's local chunks of
/// both tables and re-sends the rows whose previous chain destination has
/// died. Every copy that could have landed on a dead node is lost with the
/// node (dead receivers discard their whole partition state), so re-sent
/// rows appear exactly once in the surviving buckets.
sim::Task<> gh_repartition(GhShared& sh, std::size_t node,
                           std::vector<char> prev_dead,
                           std::vector<char> dead) {
  obs::StageScope stage(obs::context(), "gh.repartition", sh.life.span);
  stage.tag("storage_node", static_cast<std::uint64_t>(node));
  Partitioner left_part(sh, true, static_cast<std::uint32_t>(node),
                        *sh.left_schema, stage.id(), dead);
  Partitioner right_part(sh, false, static_cast<std::uint32_t>(node),
                         *sh.right_schema, stage.id(), dead);

  auto resend_table = [](GhShared& s, std::size_t n, TableId table,
                         Partitioner& part, const std::vector<char>& prev,
                         obs::SpanId parent) -> sim::Task<> {
    BdsInstance& bds = s.bds.instance(n);
    const obs::TraceContext rpc{s.life.trace_id, parent};
    for (const auto& cm : s.meta.chunks(table)) {
      if (cm.location.storage_node != n) continue;
      auto st = co_await qes_detail::read_with_retry(
          s.cluster.engine(), "produce", cm.id, s.fetch_retries,
          [&](int) { return bds.produce(cm.id, rpc); });
      co_await part.add_subtable(*st, &prev);
    }
  };

  co_await resend_table(sh, node, sh.query.left_table, left_part, prev_dead,
                        stage.id());
  co_await left_part.flush_all();
  co_await resend_table(sh, node, sh.query.right_table, right_part, prev_dead,
                        stage.id());
  co_await right_part.flush_all();
  if (auto* agg = net::context()) {
    // Same invariant as gh_storage: the coordinator joins this sender and
    // then closes the round's channels, so drain before returning.
    co_await agg->drain(node);
  }
}

/// Closes compute channels once every storage sender finishes; with a
/// fault injector installed it then runs the quiesce protocol: wait for
/// every receiver to drain the round, take the compute dead-set at quiesce
/// time, and either declare the partition stable or open another round of
/// channels and launch the re-partition senders. The dead set only grows,
/// so the loop terminates; losing every compute node fails the query with
/// a clean FaultError instead of hanging.
sim::Task<> gh_coordinator(GhShared& sh, sim::Latch& storage_done) {
  auto& engine = sh.cluster.engine();
  auto* inj = fault::context();
  co_await storage_done.wait();
  for (auto& ch : sh.to_compute) ch->close();
  if (!inj) co_return;  // fault-free: exactly the old channel closer

  const std::size_t n_compute = sh.cluster.num_compute();
  std::vector<char> prev_dead(n_compute, 0);
  while (true) {
    co_await sh.drain_latch->wait();
    // Every receiver is now parked on the round gate (count_down and the
    // gate wait happen with no intervening suspension), so the shared
    // round state below can be swapped without racing a drain.
    std::vector<char> dead(n_compute, 0);
    std::size_t n_dead = 0;
    for (std::size_t j = 0; j < n_compute; ++j) {
      if (inj->compute_crashed_by(j, engine.now())) {
        dead[j] = 1;
        ++n_dead;
        inj->note_crash_observed(fault::NodeKind::Compute, j);
      }
    }
    auto old_gate = std::move(sh.round_gate);
    if (dead == prev_dead) {
      // No deaths this round: every surviving row rests at its chain
      // destination under `dead`. Partition is stable.
      sh.final_dead = dead;
      sh.compute_nodes_lost = n_dead;
      sh.partition_complete = true;
      old_gate->set();
      co_return;
    }
    if (n_dead == n_compute) {
      sh.final_dead = dead;
      sh.compute_nodes_lost = n_dead;
      sh.partition_complete = true;  // release receivers before failing
      old_gate->set();
      throw fault::FaultError(
          "grace hash: every compute node crashed; query cannot complete");
    }
    // Open the next round, then release the receivers into it.
    for (std::size_t j = 0; j < n_compute; ++j) {
      sh.to_compute[j] = std::make_unique<sim::Channel<Batch>>(
          engine, kChannelCapacity);
    }
    sh.drain_latch = std::make_unique<sim::Latch>(engine, n_compute);
    sh.round_gate = std::make_unique<sim::Event>(engine);
    sh.retired_gates.push_back(std::move(old_gate));
    sh.retired_gates.back()->set();

    std::vector<sim::JoinHandle> senders;
    for (std::size_t i = 0; i < sh.cluster.num_storage(); ++i) {
      senders.push_back(
          engine.spawn(gh_repartition(sh, i, prev_dead, dead),
                       strformat("gh-repartition-%zu", i)));
    }
    for (auto& h : senders) co_await h.join();
    for (auto& ch : sh.to_compute) ch->close();
    prev_dead = std::move(dead);
  }
}

/// Compute-node QES: receive + h2-split into scratch buckets, barrier-free
/// within the node (its channel drains), then join bucket pairs.
sim::Task<> gh_compute(GhShared& sh, std::size_t node) {
  // The query is over when the last compute node finishes (or unwinds);
  // recording that instant on every exit path is what lets the sampler's
  // done flag flip and the trailing tick stay out of the measured time.
  // A frame parked by a failed query is destroyed after GhShared is gone
  // (QueryLifecycle::alive), and then has nothing to record.
  struct Finished {
    GhShared& sh;
    std::weak_ptr<const char> alive;
    ~Finished() {
      if (!alive.expired() && --sh.computes_left == 0) sh.life.finish();
    }
  } finished{sh, sh.life.alive};
  // Busy-window accounting for the skew diagnosis. Recorded at the normal
  // exit points only (not the guard above): on a failed query suspended
  // frames are destroyed after GhShared is gone, so the destructor must
  // not chase pointers into it.
  const double node_start = sh.cluster.engine().now();
  auto book_busy = [&] {
    auto& nw = sh.node_work[node];
    nw.node = node;
    nw.busy_seconds += sh.cluster.engine().now() - node_start;
  };
  const auto& hw = sh.cluster.spec().hw;
  const double factor = sh.options.cpu_work_factor;
  auto& cpu = sh.cluster.compute_cpu(node);
  auto& scratch = sh.cluster.compute_disk(node);

  const JoinKey left_key =
      JoinKey::resolve(*sh.left_schema, sh.query.join_attrs);
  const JoinKey right_key =
      JoinKey::resolve(*sh.right_schema, sh.query.join_attrs);
  const std::size_t lrs = sh.left_schema->record_size();
  const std::size_t rrs = sh.right_schema->record_size();

  // Scratch-disk buckets. Byte movement is real; the "file" contents stay
  // in memory while the simulated spindle is charged for write and
  // read-back.
  std::vector<std::vector<std::byte>> left_buckets(sh.n_buckets);
  std::vector<std::vector<std::byte>> right_buckets(sh.n_buckets);

  // --- Phase 1: receive, split by h2, spill to scratch. With a fault
  // injector installed this loops over quiesce rounds; a receiver whose
  // crash time has passed discards its entire partition state but keeps
  // draining (black hole) so senders never block on a dead destination.
  auto* ctx = obs::context();
  auto* inj = fault::context();
  obs::StageScope recv_stage(ctx, "gh.receive", sh.life.span);
  recv_stage.tag("node", static_cast<std::uint64_t>(node));
  ProbeGuard node_probes(sh.life);
  if (sh.life.sampling) {
    // Channel depth is read through the persistent unique_ptr slot, which
    // stays valid across recovery-round channel swaps.
    node_probes.add(strformat("gh.channel_depth[%zu]", node),
                    [&sh, node] { return static_cast<double>(
                        sh.to_compute[node]->size()); });
    node_probes.add(strformat("gh.bucket_bytes[%zu]", node),
                    [&left_buckets, &right_buckets] {
                      double total = 0;
                      for (const auto& b : left_buckets) total += b.size();
                      for (const auto& b : right_buckets) total += b.size();
                      return total;
                    });
  }
  // Hot-loop counters resolved once; the registry reference stays valid
  // for the context's lifetime.
  obs::Counter* batch_counter =
      ctx ? &ctx->registry.counter("gh.batches") : nullptr;
  obs::Counter* batch_bytes_counter =
      ctx ? &ctx->registry.counter("gh.batch_bytes") : nullptr;
  obs::Counter* spill_counter =
      ctx ? &ctx->registry.counter("gh.bucket_spill_bytes") : nullptr;
  bool i_am_dead = false;
  auto check_death = [&] {
    if (!i_am_dead && inj && inj->compute_down(node)) {
      i_am_dead = true;
      inj->note_crash_observed(fault::NodeKind::Compute, node);
      // The receive span keeps draining (black hole) so it still closes at
      // scope exit; the tag marks it as abandoned work for trace assembly.
      if (ctx) ctx->tracer.tag(recv_stage.id(), "orphaned", std::uint64_t{1});
      for (auto& b : left_buckets) {
        b.clear();
        b.shrink_to_fit();
      }
      for (auto& b : right_buckets) {
        b.clear();
        b.shrink_to_fit();
      }
    }
  };
  // Completion time of the last spill reservation; the node awaits it
  // before the round/phase boundary so "partition done" still means
  // "every bucket byte is on scratch disk".
  sim::Time spill_done = sh.cluster.engine().now();
  while (true) {
    while (true) {
      auto item = co_await sh.to_compute[node]->recv();
      if (!item) break;
      Batch batch = std::move(*item);
      check_death();
      if (i_am_dead) continue;  // discard; the coordinator re-sends
      if (batch_counter) {
        batch_counter->add(1);
        batch_bytes_counter->add(batch.bytes.size());
      }
      sh.node_work[node].items += batch.rows;
      sh.node_work[node].bytes += static_cast<double>(batch.bytes.size());
      // Per-batch ingest span, causally linked to the sender's gh.send
      // span: the link is the cross-node edge that stitches the h1
      // transfer into one DAG (and lets critical-path analysis hop from a
      // waiting receiver into the sender's time).
      obs::StageScope ingest_stage(ctx, "gh.ingest", recv_stage.id());
      if (ctx && batch.trace.parent) {
        ctx->tracer.link(ingest_stage.id(), batch.trace.parent);
      }
      // Ingress, then the spill. Serial waits for the write (the paper's
      // additive Transfer + Write); double-buffered leaves it in flight
      // while the next batch is received — one outstanding write bounds
      // the in-flight buffer to a batch.
      co_await sh.cluster.compute_ingress(
          node, static_cast<double>(batch.bytes.size()));
      {
        obs::StageScope spill_stage(ctx, "gh.spill", ingest_stage.id());
        co_await sh.cluster.engine().wait_until(spill_done);
        spill_done =
            scratch.reserve_write(static_cast<double>(batch.bytes.size()),
                                  static_cast<std::uint32_t>(node));
        if (!sh.options.gh_double_buffer) {
          co_await sh.cluster.engine().wait_until(spill_done);
        }
      }
      if (spill_counter) spill_counter->add(batch.bytes.size());

      const JoinKey& key = batch.left ? left_key : right_key;
      const std::size_t rs = batch.left ? lrs : rrs;
      auto& buckets = batch.left ? left_buckets : right_buckets;
      for (std::uint32_t r = 0; r < batch.rows; ++r) {
        const std::byte* row = batch.bytes.data() + r * rs;
        const std::size_t b = key.hash_row(row, kSaltGraceH2) % sh.n_buckets;
        buckets[b].insert(buckets[b].end(), row, row + rs);
      }
    }
    co_await sh.cluster.engine().wait_until(spill_done);  // drain the buffer
    if (!inj) break;  // fault-free: one round, no barrier
    check_death();
    // count_down and the gate wait run with no suspension in between, so
    // by the time the coordinator wakes every receiver is parked on the
    // (old) gate and the round state can be swapped safely.
    sh.drain_latch->count_down();
    co_await sh.round_gate->wait();
    if (sh.partition_complete) break;
  }
  if (sh.cluster.engine().now() > sh.partition_phase_end) {
    sh.partition_phase_end = sh.cluster.engine().now();
  }
  recv_stage.close();
  if (inj && !sh.final_dead.empty() && sh.final_dead[node]) {
    // Fail-stop: a dead node joins no buckets; every row routed to it has
    // been re-sent to a survivor.
    book_busy();
    co_return;
  }

  // --- Phase 2: join bucket pairs independently (no network). ---
  obs::StageScope join_stage(ctx, "gh.bucket_join", sh.life.span);
  join_stage.tag("node", static_cast<std::uint64_t>(node));
  join_stage.tag("buckets", static_cast<std::uint64_t>(sh.n_buckets));
  ChunkId out_seq = 0;
  std::vector<std::size_t> todo;
  for (std::size_t b = 0; b < sh.n_buckets; ++b) {
    if (!left_buckets[b].empty() || !right_buckets[b].empty()) {
      todo.push_back(b);
    }
  }
  auto bucket_size = [&](std::size_t b) {
    return static_cast<double>(left_buckets[b].size() +
                               right_buckets[b].size());
  };
  // Double-buffered read-back reserves the next non-empty bucket's scratch
  // read while the CPU joins the current one, so the phase pays
  // max(Read, Cpu) + one read's fill instead of their sum per bucket.
  std::optional<sim::Time> read_ahead;
  for (std::size_t t = 0; t < todo.size(); ++t) {
    const std::size_t b = todo[t];
    const double bucket_bytes = bucket_size(b);
    if (ctx) {
      ctx->registry.counter("gh.bucket_readback_bytes")
          .add(static_cast<std::uint64_t>(bucket_bytes));
    }
    {
      obs::StageScope read_stage(ctx, "gh.bucket_read", join_stage.id());
      read_stage.tag("bucket", static_cast<std::uint64_t>(b));
      const sim::Time ready =
          read_ahead ? *read_ahead
                     : scratch.reserve_read(bucket_bytes,
                                            static_cast<std::uint32_t>(node));
      read_ahead.reset();
      if (sh.options.gh_double_buffer && t + 1 < todo.size()) {
        read_ahead = scratch.reserve_read(bucket_size(todo[t + 1]),
                                          static_cast<std::uint32_t>(node));
      }
      co_await sh.cluster.engine().wait_until(ready);
    }

    SubTable left(sh.left_schema, SubTableId{sh.query.left_table, 0});
    left.adopt_bytes(std::move(left_buckets[b]));
    SubTable right(sh.right_schema, SubTableId{sh.query.right_table, 0});
    right.adopt_bytes(std::move(right_buckets[b]));

    {
      obs::StageScope cpu_stage(ctx, "gh.join", join_stage.id());
      cpu_stage.tag("bucket", static_cast<std::uint64_t>(b));
      co_await cpu.use(factor * (hw.gamma_build *
                                     static_cast<double>(left.num_rows()) +
                                 hw.gamma_lookup *
                                     static_cast<double>(right.num_rows())));
    }

    // The bucket's build, probe and fingerprint run on the host pool; the
    // job owns both sides of the bucket.
    sh.stats.build_tuples += left.num_rows();
    const std::size_t probe_rows = right.num_rows();
    sh.jobs.submit(
        node, probe_rows, SubTable(sh.result_schema, SubTableId{0, out_seq++}),
        [left = std::make_shared<const SubTable>(std::move(left)),
         right = std::make_shared<const SubTable>(std::move(right)),
         attrs = &sh.query.join_attrs,
         side = &sh.probe_side](SubTable& out) {
          return BuiltHashTable(left, *attrs).probe(*right, *side, out);
        });
    sh.jobs.poll();
  }
  book_busy();
}

double scratch_bytes_written(Cluster& cluster) {
  if (cluster.spec().shared_filesystem) {
    return cluster.compute_disk(0).bytes_written();
  }
  double total = 0;
  for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
    total += cluster.compute_disk(j).bytes_written();
  }
  return total;
}

double scratch_bytes_read_total(Cluster& cluster) {
  if (cluster.spec().shared_filesystem) {
    return cluster.compute_disk(0).bytes_read();
  }
  double total = 0;
  for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
    total += cluster.compute_disk(j).bytes_read();
  }
  return total;
}

}  // namespace

sim::Task<QesResult> grace_hash_task(Cluster& cluster, BdsService& bds,
                                     const MetaDataService& meta,
                                     const JoinQuery& query,
                                     const QesOptions& options) {
  ORV_REQUIRE(!query.join_attrs.empty(), "join needs key attributes");
  auto& engine = cluster.engine();

  const auto left_schema = meta.table_schema(query.left_table);
  const auto right_schema = meta.table_schema(query.right_table);
  ProbeSide side =
      ProbeSide::make(*left_schema, *right_schema, query.join_attrs);
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      *left_schema, *right_schema, side.key.attr_indices()));
  GhShared sh{cluster, bds, meta, query, options, left_schema, right_schema,
              std::move(side), std::move(result_schema)};

  // Bucket count: every bucket pair must fit in memory (Section 4.2).
  const double total_bytes =
      static_cast<double>(meta.table_bytes(query.left_table) +
                          meta.table_bytes(query.right_table));
  const double per_node = total_bytes / static_cast<double>(cluster.num_compute());
  const double target = options.bucket_pair_bytes
                            ? static_cast<double>(options.bucket_pair_bytes)
                            : static_cast<double>(cluster.memory_bytes()) / 2;
  sh.n_buckets = static_cast<std::size_t>(per_node / target) + 1;

  for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
    sh.to_compute.push_back(std::make_unique<sim::Channel<Batch>>(
        engine, kChannelCapacity));
  }
  sh.drain_latch =
      std::make_unique<sim::Latch>(engine, cluster.num_compute());
  sh.round_gate = std::make_unique<sim::Event>(engine);
  sh.computes_left = cluster.num_compute();
  sh.node_work.resize(cluster.num_compute());

  sh.life.begin("gh.query", "grace_hash");

  const double net0 = cluster.network_bytes();
  const double switch0 = cluster.switch_bytes();
  const std::uint64_t frames0 = cluster.network_switch().num_ops();
  const double sread0 = qes_detail::storage_read_bytes(cluster);
  const double cw0 = scratch_bytes_written(cluster);
  const double cr0 = scratch_bytes_read_total(cluster);

  sim::Latch storage_done(engine, cluster.num_storage());
  std::vector<sim::JoinHandle> handles;
  for (std::size_t i = 0; i < cluster.num_storage(); ++i) {
    handles.push_back(engine.spawn(gh_storage(sh, i, storage_done),
                                   strformat("gh-storage-%zu", i)));
  }
  handles.push_back(
      engine.spawn(gh_coordinator(sh, storage_done), "gh-coordinator"));
  for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
    handles.push_back(
        engine.spawn(gh_compute(sh, j), strformat("gh-compute-%zu", j)));
  }
  sh.life.spawn_sampler("gh-sampler");
  // Join every process, observing all exceptions but surfacing the first
  // (in spawn order — the same one Engine::run would rethrow after a
  // single-query drain).
  std::exception_ptr first_error;
  for (const auto& h : handles) {
    try {
      co_await h.join();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (!first_error) {
    try {
      sh.jobs.finish();  // fold every bucket still in flight
    } catch (...) {
      first_error = std::current_exception();
    }
  }
  if (first_error) {
    sh.jobs.abandon();  // no job may run past the query's end
    sh.life.fail();     // the query died (e.g. every compute node crashed)
    std::rethrow_exception(first_error);
  }
  for (const auto& h : handles) {
    ORV_CHECK(h.done(), "GH process did not finish");
  }

  QesResult result;
  result.elapsed = sh.life.elapsed();
  result.partition_phase = sh.partition_phase_end - sh.life.start;
  result.join_phase = result.elapsed - result.partition_phase;
  result.join_stats = sh.stats;
  result.join_stats += sh.jobs.stats();
  result.result_tuples = result.join_stats.result_tuples;
  result.result_fingerprint = sh.jobs.fingerprint();
  result.network_bytes = cluster.network_bytes() - net0;
  // GH shuffles every record through the switch regardless of placement
  // (its egress path never uses the local bus), so local bytes stay 0.
  result.cross_switch_bytes = cluster.switch_bytes() - switch0;
  result.storage_disk_read_bytes =
      qes_detail::storage_read_bytes(cluster) - sread0;
  result.scratch_write_bytes = scratch_bytes_written(cluster) - cw0;
  result.scratch_read_bytes = scratch_bytes_read_total(cluster) - cr0;
  result.h1_messages_sent = sh.h1_messages_sent;
  result.net_frames_sent = cluster.network_switch().num_ops() - frames0;
  result.fetch_retries = sh.fetch_retries;
  result.rows_repartitioned = sh.rows_repartitioned;
  result.compute_nodes_lost = sh.compute_nodes_lost;
  result.node_work = std::move(sh.node_work);
  result.degraded = sh.fetch_retries > 0 || sh.rows_repartitioned > 0 ||
                    sh.compute_nodes_lost > 0;
  sh.life.complete(result.degraded);
  if (auto* ctx = obs::context()) {
    ctx->registry.counter("gh.result_tuples").add(result.result_tuples);
    ctx->registry.gauge("gh.n_buckets")
        .set(static_cast<double>(sh.n_buckets));
    ctx->registry.gauge("gh.partition_phase_seconds")
        .set(result.partition_phase);
    ctx->registry.gauge("gh.join_phase_seconds").set(result.join_phase);
    ctx->registry.gauge("gh.elapsed_seconds").set(result.elapsed);
  }
  co_return result;
}

QesResult run_grace_hash(Cluster& cluster, BdsService& bds,
                         const MetaDataService& meta, const JoinQuery& query,
                         const QesOptions& options) {
  return qes_detail::run_query_task(
      cluster.engine(), grace_hash_task(cluster, bds, meta, query, options),
      "gh-query");
}

}  // namespace orv
