#include "qes/offload.hpp"

#include <utility>

namespace orv {

JoinOffload::JoinOffload(Sink sink)
    : pool_(ThreadPool::shared()), sink_(std::move(sink)) {}

JoinOffload::~JoinOffload() { abandon(); }

void JoinOffload::submit(std::size_t node, std::size_t rows, SubTable out,
                         Work work) {
  if (!open_) open_ = std::make_unique<Batch>(pool_);
  Job& job = open_->jobs.emplace_back();
  job.node = node;
  job.work = std::move(work);
  job.out.emplace(std::move(out));
  open_->rows += rows;
  if (open_->rows >= kBatchRows) hand_over();
}

void JoinOffload::hand_over() {
  if (!open_) return;
  Batch* batch = open_.get();
  flight_.push_back(std::move(open_));
  // Only a sink needs the fragment after its fingerprint.
  const bool keep = static_cast<bool>(sink_);
  batch->group.submit([batch, keep] {
    for (Job& job : batch->jobs) {
      try {
        job.stats = job.work(*job.out);
        job.stats.result_tuples = job.out->num_rows();
        job.fingerprint = job.out->unordered_fingerprint();
      } catch (...) {
        job.error = std::current_exception();
      }
      job.work = nullptr;  // drop the job's hold on its inputs
      if (!keep) job.out.reset();
    }
  });
}

void JoinOffload::poll() {
  const std::size_t bound = kBatchesPerThread * pool_.num_threads();
  while (!flight_.empty() &&
         (flight_.front()->group.done() || flight_.size() > bound)) {
    fold_front();
  }
}

void JoinOffload::fold_front() {
  Batch& batch = *flight_.front();
  batch.group.wait();
  while (batch.folded < batch.jobs.size()) {
    // Counted before anything can throw, so a rethrow resumes after it.
    Job& job = batch.jobs[batch.folded++];
    if (job.error) std::rethrow_exception(job.error);
    stats_ += job.stats;
    fingerprint_ += job.fingerprint;
    if (sink_) sink_(job.node, *job.out);
    job.out.reset();
  }
  flight_.pop_front();
}

void JoinOffload::finish() {
  hand_over();
  while (!flight_.empty()) fold_front();
}

void JoinOffload::abandon() {
  open_.reset();
  flight_.clear();  // each batch's TaskGroup waits for its job
}

}  // namespace orv
