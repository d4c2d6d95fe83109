#include "serve/batcher.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace gale::serve {

util::Result<void> ServeOptions::Validate() const {
  if (max_batch == 0) {
    return util::Status::InvalidArgument("ServeOptions: max_batch must be > 0");
  }
  if (max_wait_micros < 0) {
    return util::Status::InvalidArgument(
        "ServeOptions: max_wait_micros must be >= 0");
  }
  if (queue_capacity == 0) {
    return util::Status::InvalidArgument(
        "ServeOptions: queue_capacity must be > 0");
  }
  return {};
}

RequestBatcher::RequestBatcher(const ScoringSnapshot* snapshot,
                               ServeOptions options)
    : snapshot_(snapshot), options_(options) {
  GALE_CHECK(snapshot != nullptr);
  init_status_ = options_.Validate().status();
  if (!init_status_.ok()) {
    drained_ = true;  // nothing can ever queue; Score reports the status
    return;
  }
  state_.emplace(snapshot_, options_.max_batch, &registry_);
}

RequestBatcher::ScoringState::ScoringState(const ScoringSnapshot* snapshot,
                                           size_t max_batch,
                                           obs::Registry* registry)
    : scorer(snapshot, max_batch),
      queue_depth(registry->gauge("gale.serve.queue_depth")),
      batch_size(registry->histogram("gale.serve.batch_size")),
      table(snapshot->num_nodes()),
      node_state(snapshot->num_nodes(), NodeState::kUnscored) {}

RequestBatcher::~RequestBatcher() { Stop(); }

util::Result<std::vector<NodeScore>> RequestBatcher::Score(
    const ScoreRequest& request) {
  GALE_RETURN_IF_ERROR(init_status_);
  const size_t n = snapshot_->num_nodes();
  for (size_t v : request.node_ids) {
    if (v >= n) {
      return util::Status::InvalidArgument(
          "RequestBatcher::Score: node id out of range");
    }
  }
  if (request.node_ids.empty()) return std::vector<NodeScore>{};

  Pending pending;
  pending.nodes = &request.node_ids;
  pending.scores.resize(request.node_ids.size());

  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return util::Status::FailedPrecondition(
        "RequestBatcher::Score: batcher is stopped");
  }
  const bool answered = AnswerFromTable(&pending);
  if (!answered &&
      pending_nodes_ + request.node_ids.size() > options_.queue_capacity) {
    ++rejected_requests_;
    return util::Status::Overloaded(
        "RequestBatcher::Score: queue capacity exhausted");
  }
  ++accepted_requests_;
  accepted_nodes_ += request.node_ids.size();
  if (answered) return std::move(pending.scores);
  pending_nodes_ += request.node_ids.size();
  queue_.push_back(&pending);
  // Lead batches until ours is done, or wait while another caller leads.
  // Batches are cut FIFO, so every batch this caller leads brings its own
  // request closer to the front.
  while (!pending.done) {
    if (leading_) {
      done_cv_.wait(lock);
    } else {
      LeadBatch(lock);
    }
  }
  return std::move(pending.scores);
}

void RequestBatcher::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  // Callers whose requests are still queued keep leading until the queue
  // is empty.
  done_cv_.wait(lock, [&] { return queue_.empty() && !leading_; });
  if (drained_) return;
  drained_ = true;
  registry_.counter("gale.serve.requests")->Increment(accepted_requests_);
  registry_.counter("gale.serve.nodes")->Increment(accepted_nodes_);
  registry_.counter("gale.serve.rejected")->Increment(rejected_requests_);
  registry_.counter("gale.serve.table_hits")->Increment(table_hits_);
}

obs::Report RequestBatcher::ObsReport() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    GALE_CHECK(drained_) << " RequestBatcher::ObsReport before Stop() ";
  }
  return obs::Snapshot(&registry_, &trace_);
}

bool RequestBatcher::AnswerFromTable(Pending* p) {
  const ScoringState& state = *state_;
  const std::vector<size_t>& ids = *p->nodes;
  for (size_t v : ids) {
    if (state.node_state[v] != NodeState::kScored) return false;
  }
  for (size_t i = 0; i < ids.size(); ++i) p->scores[i] = state.table[ids[i]];
  ++table_hits_;
  return true;
}

void RequestBatcher::LeadBatch(std::unique_lock<std::mutex>& lock) {
  leading_ = true;
  ScoringState& state = *state_;

  // Coalescing window. A timed condvar wait cannot express a
  // microsecond-scale window (kernel timer slack alone is ~50us), so
  // linger by arrival quiescence instead: release the lock, yield, and
  // re-inspect; cut once no new node arrived across two consecutive
  // polls, the pending count reaches the batch target, or Stop. The
  // poll budget grows with max_wait_micros so the knob keeps its
  // meaning as an approximate upper bound on added delay; 0 disables
  // lingering entirely. Every poll either observes growth (bounded by
  // max_batch) or bumps the quiet counter, so the loop terminates
  // regardless of caller behavior.
  if (!stop_ && pending_nodes_ < options_.max_batch &&
      options_.max_wait_micros > 0) {
    const int64_t budget =
        std::min<int64_t>(16, std::max<int64_t>(2, options_.max_wait_micros / 8));
    int quiet = 0;
    size_t seen = pending_nodes_;
    for (int64_t poll = 0; poll < budget && quiet < 2 && !stop_ &&
                           pending_nodes_ < options_.max_batch;
         ++poll) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      if (pending_nodes_ == seen) {
        ++quiet;
      } else {
        quiet = 0;
        seen = pending_nodes_;
      }
    }
  }

  // Cut a batch: whole requests, FIFO, until it holds max_batch nodes
  // to score (always at least one request — an oversized request is
  // taken alone and chunked below). Only unscored nodes enter the batch;
  // a request whose nodes were all scored while it waited is answered
  // from the table here and takes no room.
  state.taken.clear();
  state.batch_nodes.clear();
  while (!queue_.empty()) {
    if (!state.taken.empty() &&
        state.batch_nodes.size() >= options_.max_batch) {
      break;
    }
    Pending* p = queue_.front();
    queue_.pop_front();
    pending_nodes_ -= p->nodes->size();
    if (AnswerFromTable(p)) {
      p->done = true;
      continue;
    }
    state.taken.push_back(p);
    for (size_t v : *p->nodes) {
      if (state.node_state[v] == NodeState::kUnscored) {
        state.node_state[v] = NodeState::kTaken;
        state.batch_nodes.push_back(v);
      }
    }
  }
  state.queue_depth->Set(static_cast<double>(pending_nodes_));

  // Every taken request has a node that was unscored at the cut, so the
  // batch scores at least one node whenever it took a request.
  if (!state.taken.empty()) {
    lock.unlock();
    {
      obs::ScopedObs obs_context(&trace_, &registry_);
      obs::Span span("gale.serve.batch");
      span.Arg("requests", static_cast<double>(state.taken.size()));
      span.Arg("unique_nodes", static_cast<double>(state.batch_nodes.size()));
      state.batch_size->Record(state.batch_nodes.size());
      state.batch_scores.resize(state.batch_nodes.size());
      for (size_t off = 0; off < state.batch_nodes.size();
           off += options_.max_batch) {
        const size_t len =
            std::min(options_.max_batch, state.batch_nodes.size() - off);
        state.chunk.assign(
            state.batch_nodes.begin() + static_cast<ptrdiff_t>(off),
            state.batch_nodes.begin() + static_cast<ptrdiff_t>(off + len));
        state.scorer.ScoreInto(state.chunk, state.batch_scores.data() + off);
      }
      for (size_t i = 0; i < state.batch_nodes.size(); ++i) {
        state.table[state.batch_nodes[i]] = state.batch_scores[i];
      }
      // Fan the table's scores out to every taken request: each of its
      // nodes is this batch's or was scored before the cut.
      for (Pending* p : state.taken) {
        const std::vector<size_t>& ids = *p->nodes;
        for (size_t i = 0; i < ids.size(); ++i) {
          p->scores[i] = state.table[ids[i]];
        }
      }
    }
    lock.lock();
    for (size_t v : state.batch_nodes) state.node_state[v] = NodeState::kScored;
    for (Pending* p : state.taken) p->done = true;
  }
  leading_ = false;
  done_cv_.notify_all();
}

}  // namespace gale::serve
