#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

namespace orv::obs {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::Disk: return "disk";
    case Stage::Network: return "network";
    case Stage::Cpu: return "cpu";
    case Stage::CacheWait: return "cache_wait";
    case Stage::Spill: return "spill";
    case Stage::Other: return "other";
  }
  return "other";
}

Stage classify_span(std::string_view name) {
  // Disk: local spindle time (producing chunks, re-reading spilled
  // buckets). The streamed fetch paths overlap read with transfer and are
  // bounded by the slower leg, which the cost model books as transfer.
  if (name == "bds.produce" || name == "gh.bucket_read") return Stage::Disk;
  // Network: everything bounded by NIC / switch reservations.
  if (name == "bds.fetch" || name == "ij.fetch" || name == "gh.partition" ||
      name == "gh.repartition" || name == "gh.send" || name == "gh.ingest" ||
      name == "gh.retransmit" || name == "net.agg.flush" ||
      name == "net.agg.retransmit") {
    return Stage::Network;
  }
  // Cpu: hash build / probe / bucket join work.
  if (name == "ij.build" || name == "ij.probe" || name == "gh.join" ||
      name == "gh.bucket_join" || name == "graph.build") {
    return Stage::Cpu;
  }
  // CacheWait: consumer starvation on the prefetch channel (the pipelined
  // IJ consumer blocked on its bounded lookahead window).
  if (name == "ij.wait") return Stage::CacheWait;
  if (name == "gh.spill") return Stage::Spill;
  return Stage::Other;
}

TraceDag TraceDag::assemble(std::vector<SpanRecord> spans) {
  TraceDag dag;
  dag.spans_ = std::move(spans);
  dag.index_.reserve(dag.spans_.size());
  for (std::uint32_t pos = 0; pos < dag.spans_.size(); ++pos) {
    // Last write wins on duplicate ids (malformed input); snapshots from
    // one Tracer never collide.
    dag.index_[dag.spans_[pos].id.value] = pos;
    if (!dag.spans_[pos].closed()) ++dag.open_;
  }
  dag.children_.resize(dag.spans_.size());
  for (const SpanRecord& s : dag.spans_) {
    if (s.parent && dag.index_.count(s.parent.value)) {
      dag.children_[dag.index_.at(s.parent.value)].push_back(s.id);
    } else {
      dag.roots_.push_back(s.id);
    }
  }
  return dag;
}

const SpanRecord* TraceDag::find(SpanId id) const {
  auto it = index_.find(id.value);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

const std::vector<SpanId>& TraceDag::children_of(SpanId id) const {
  static const std::vector<SpanId> kEmpty;
  auto it = index_.find(id.value);
  return it == index_.end() ? kEmpty : children_[it->second];
}

Stage CriticalPath::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kNumStages; ++i) {
    if (by_stage[i] > by_stage[best]) best = i;
  }
  return static_cast<Stage>(best);
}

namespace {

// Backward cover of the root interval. The cursor only moves toward
// earlier time and each span is descended into at most once (`used_`), so
// the walk terminates even on adversarial inputs with zero-duration or
// duplicated spans.
class Walker {
 public:
  Walker(const TraceDag& dag, CriticalPath& out, double eps)
      : dag_(dag), out_(out), eps_(eps) {}

  double walk(const SpanRecord& s, double t_hi) {
    // s's closed children that end no earlier than it starts, in DAG
    // order, and their positions sorted once by end, latest first.
    std::vector<const SpanRecord*> kids;
    for (SpanId cid : dag_.children_of(s.id)) {
      const SpanRecord* c = dag_.find(cid);
      if (c && c->closed() && c->end >= s.start - eps_) kids.push_back(c);
    }
    std::vector<std::size_t> by_end(kids.size());
    std::iota(by_end.begin(), by_end.end(), std::size_t{0});
    std::stable_sort(by_end.begin(), by_end.end(),
                     [&](std::size_t a, std::size_t b) {
                       return kids[a]->end > kids[b]->end;
                     });
    std::size_t next = 0;
    double t = t_hi;
    while (t > s.start + eps_) {
      const SpanRecord* c = best_contributor(s, t, kids, by_end, next);
      if (!c) break;
      if (t > c->end) attribute(s, c->end, t);
      used_.insert(c->id.value);
      t = walk(*c, std::min(c->end, t));
    }
    if (t > s.start) {
      attribute(s, s.start, t);
      t = s.start;
    }
    return t;
  }

 private:
  bool used(const SpanRecord* c) const { return used_.count(c->id.value); }

  // Latest-ending closed, unused contributor whose end falls within
  // (s.start, t]: structural children plus the span's link parent (the
  // remote sender that produced the message this span waited on). Ends
  // within eps_ of each other tie, and ties go to the longer span, then
  // the lower id, folding over the children in DAG order and the link
  // parent last. Only the run of children whose ends chain down from the
  // latest in steps of at most eps_ can win that fold, so only that run is
  // folded. by_end[0, next) end after t, which only falls, or were used.
  const SpanRecord* best_contributor(const SpanRecord& s, double t,
                                     const std::vector<const SpanRecord*>& kids,
                                     const std::vector<std::size_t>& by_end,
                                     std::size_t& next) {
    while (next < by_end.size() && (kids[by_end[next]]->end > t + eps_ ||
                                    used(kids[by_end[next]]))) {
      ++next;
    }
    run_.clear();
    for (std::size_t i = next; i < by_end.size(); ++i) {
      const SpanRecord* c = kids[by_end[i]];
      if (used(c)) continue;
      if (!run_.empty() && c->end < kids[run_.back()]->end - eps_) break;
      run_.push_back(by_end[i]);
    }
    std::sort(run_.begin(), run_.end());

    const SpanRecord* best = nullptr;
    auto consider = [&](const SpanRecord* c) {
      if (!c || !c->closed() || used(c)) return;
      if (c->end > t + eps_ || c->end < s.start - eps_) return;
      if (!best || c->end > best->end + eps_ ||
          (std::abs(c->end - best->end) <= eps_ &&
           (c->duration() > best->duration() + eps_ ||
            (std::abs(c->duration() - best->duration()) <= eps_ &&
             c->id.value < best->id.value)))) {
        best = c;
      }
    };
    for (std::size_t pos : run_) consider(kids[pos]);
    if (s.link) consider(dag_.find(s.link));
    return best;
  }

  void attribute(const SpanRecord& s, double begin, double end) {
    if (end <= begin) return;
    PathSegment seg;
    seg.span = s.id;
    seg.name = s.name;
    seg.stage = classify_span(s.name);
    seg.begin = begin;
    seg.end = end;
    out_.by_stage[static_cast<std::size_t>(seg.stage)] += seg.duration();
    out_.segments.push_back(std::move(seg));
  }

  const TraceDag& dag_;
  CriticalPath& out_;
  double eps_;
  std::unordered_set<std::uint32_t> used_;
  std::vector<std::size_t> run_;  // best_contributor scratch
};

}  // namespace

CriticalPath critical_path(const TraceDag& dag, SpanId root_id) {
  CriticalPath cp;
  const SpanRecord* root = dag.find(root_id);
  if (!root || !root->closed()) return cp;
  const double eps = 1e-9 * std::max(1.0, std::abs(root->end));
  Walker walker(dag, cp, eps);
  walker.walk(*root, root->end);
  std::reverse(cp.segments.begin(), cp.segments.end());
  for (const PathSegment& seg : cp.segments) cp.total += seg.duration();
  return cp;
}

}  // namespace orv::obs
