// Coalescing request batcher over a ScoringSnapshot (DESIGN.md §13).
//
// Callers from any thread submit ScoreRequests and block until their
// scores are ready. The batcher owns no thread: batches run on the
// callers' own threads (flat combining), and every node is scored at most
// once per batcher. A node's scores are a pure function of the immutable
// snapshot and the node id, so the batcher keeps a score table: one
// NodeScore per node plus a state byte (unscored, taken by the running
// batch, scored), filled lazily by the batches themselves.
//
// A request whose nodes are all scored is answered from the table under
// the lock, on the caller's thread: it does not queue, linger or lead a
// batch. Any other request queues. A caller that queues a request while
// no batch is in progress becomes the leader. It lingers briefly
// (arrival-quiescence polling, bounded by max_wait_micros) for the
// pending node count to reach max_batch, then cuts the queued requests
// into one batch of the nodes no earlier batch scored (a node asked for by
// five concurrent requests, or by any number of earlier ones, is scored
// once), runs the fused snapshot forward over them on the batcher's
// allocation-free scorer with the lock released, writes their scores into
// the table, fans the table's scores out to every request it took, and
// wakes the waiters. A queued request whose nodes were all scored while
// it waited is answered from the table at the cut. A caller keeps leading
// batches until its own request is done; a woken caller whose request is
// still queued leads the next batch. So at most one batch runs at a time,
// and a lone caller never pays a thread hand-off.
//
// Memory: the table costs num_nodes × (sizeof(NodeScore) + 1) = 25 bytes
// per node for the batcher's lifetime (110 KB at n = 4400), zero-filled
// at construction (O(n) work). Nothing is scored in advance: a miss pays
// its forward inside the request.
//
// Determinism: each node's scores come out of SnapshotScorer::ScoreInto,
// whose kernels compute every output row from only the matching input row
// with a fixed accumulation order. Batch composition, arrival order,
// which caller leads, which batch scored a node, coalescing timing, and
// GALE_NUM_THREADS therefore cannot change a single bit of any node's
// scores — serve_replay_test memcmp's the batcher's output, from batches
// and from the table, against a serial one-node-at-a-time reference
// across all of those axes.
//
// Error codes (assert on code(), not message text):
//   kInvalidArgument     — node id out of range, or bad ServeOptions.
//   kOverloaded          — admission control: queueing the request would
//                          push the pending node count past
//                          queue_capacity. The caller retries later. A
//                          request the table answers is never rejected.
//   kFailedPrecondition  — Score after Stop, even for scored nodes.
//
// Observability: the batcher owns a private Trace + Registry (logical
// time under GALE_OBS_LOGICAL_TIME=1), which the leader installs on its
// own thread for the batch; mu_ hands them from one leader to the next.
// Every batch runs inside a "gale.serve.batch" span (the span's
// auto-histogram is the batch latency distribution), records the number
// of nodes it scored into gale.serve.batch_size, and refreshes the
// gale.serve.queue_depth gauge. Request, rejection and table-hit totals
// (gale.serve.table_hits: requests answered from the table, on the
// caller's path or at a cut) are folded into counters when Stop drains.
// ObsReport() snapshots it all after Stop.

#ifndef GALE_SERVE_BATCHER_H_
#define GALE_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/report.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace gale::serve {

struct ServeOptions {
  // Most nodes a single fused forward scores; also the coalescing target.
  size_t max_batch = 8;
  // Approximate upper bound on how long a batch's leader lingers for
  // more requests once it has at least one but fewer than max_batch
  // pending nodes. Implemented as bounded yield-polling that cuts the
  // batch as soon as arrivals go quiet (a timed wait cannot express a
  // microsecond-scale window), so a batch is never delayed once the
  // concurrent callers have all been heard. 0 = cut batches eagerly.
  int64_t max_wait_micros = 200;
  // Admission bound on the total node count sitting in the queue;
  // requests that would push past it are rejected with kOverloaded. A
  // request whose nodes are all in the score table never queues, so it
  // is answered whatever the queue holds.
  size_t queue_capacity = 1024;

  // kInvalidArgument on the first field outside its documented domain;
  // checked at construction (a bad config never builds a scorer).
  util::Result<void> Validate() const;
};

// A scoring request: node ids to score (duplicates allowed; ids must be
// < snapshot->num_nodes()).
struct ScoreRequest {
  std::vector<size_t> node_ids;
};

class RequestBatcher {
 public:
  // `snapshot` must outlive the batcher. Warms the scorer unless
  // `options` fails validation (then every Score returns that status).
  explicit RequestBatcher(const ScoringSnapshot* snapshot,
                          ServeOptions options = {});
  ~RequestBatcher();  // Stop()s if the caller has not.

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  // Answers the request from the score table when every node in it is
  // scored; otherwise blocks until it is scored, leading batches on the
  // calling thread whenever none is in progress (or rejects it
  // immediately — see the code table in the file header). scores[i]
  // corresponds to request.node_ids[i].
  util::Result<std::vector<NodeScore>> Score(const ScoreRequest& request);

  // Refuses new calls, then waits until the queue is empty and no leader
  // is running: every accepted request still completes, scored by its
  // callers. Idempotent; after it returns, Score rejects with
  // kFailedPrecondition.
  void Stop();

  // Snapshot of the batcher's metrics + span tree. Only valid after
  // Stop() — the Registry/Trace are the running leader's unsynchronized
  // state until then.
  obs::Report ObsReport() const;

  const ServeOptions& options() const { return options_; }

 private:
  // One queued request; lives on the submitting caller's stack.
  struct Pending {
    const std::vector<size_t>* nodes = nullptr;
    std::vector<NodeScore> scores;
    bool done = false;
  };

  // Score-table state of one node. Only mu_'s holder reads or writes it.
  enum class NodeState : uint8_t { kUnscored, kTaken, kScored };

  // Under mu_: when every node of `p` is scored, copies their scores from
  // the table into p->scores, counts a table hit and returns true.
  bool AnswerFromTable(Pending* p);

  // Runs one batch on the calling thread: linger, cut, score, fan out,
  // wake the waiters. Entered and left with `lock` held and no leader
  // running; releases it while scoring.
  void LeadBatch(std::unique_lock<std::mutex>& lock);

  const ScoringSnapshot* snapshot_;
  ServeOptions options_;
  util::Status init_status_;  // options validation result

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // a batch finished, or Stop drained
  std::deque<Pending*> queue_;
  size_t pending_nodes_ = 0;  // total node ids sitting in queue_
  bool stop_ = false;
  bool leading_ = false;  // a caller is running a batch
  bool drained_ = false;  // Stop has drained; ObsReport is valid

  // Caller-side totals, guarded by mu_; folded into the registry's
  // counters when Stop drains.
  uint64_t accepted_requests_ = 0;
  uint64_t accepted_nodes_ = 0;
  uint64_t rejected_requests_ = 0;
  uint64_t table_hits_ = 0;

  obs::Trace trace_;
  obs::Registry registry_;

  // The scorer, obs handles and batch vectors are touched only by the
  // caller running a batch; mu_ hands them from one leader to the next.
  // The score table is also read by callers holding mu_ (see below).
  struct ScoringState {
    ScoringState(const ScoringSnapshot* snapshot, size_t max_batch,
                 obs::Registry* registry);

    SnapshotScorer scorer;
    obs::Gauge* queue_depth;
    obs::Histogram* batch_size;
    // The score table, indexed by node id. A node's state moves
    // kUnscored -> kTaken at a cut and kTaken -> kScored when its batch
    // ends, both under mu_. Its table entry is written only by the leader
    // that took it, with mu_ released, and read only once it is kScored
    // (or by that leader), so an entry is never read while written and
    // never written twice.
    std::vector<NodeScore> table;
    std::vector<NodeState> node_state;
    std::vector<size_t> batch_nodes;      // nodes to score, arrival order
    std::vector<NodeScore> batch_scores;  // parallel to batch_nodes
    std::vector<size_t> chunk;            // <= max_batch slice for the scorer
    std::vector<Pending*> taken;
  };
  // Absent when the options failed validation.
  std::optional<ScoringState> state_;
};

}  // namespace gale::serve

#endif  // GALE_SERVE_BATCHER_H_
