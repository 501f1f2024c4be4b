#pragma once
/// \file service.h
/// \brief SolveService: the batched multi-RHS solve service.
///
/// Architecture (DESIGN.md §14): producers submit() requests into a
/// bounded queue and receive std::futures; a dispatcher thread pops, fails
/// deadline-expired requests typed, greedily coalesces compatible
/// requests (same action/mass/tolerance) into one multi-RHS batch up to
/// the batch-width policy (tune/batch_policy.h), and dispatches the batch
/// onto a cached GcrDdWilsonSolver — one per distinct parameter
/// set, running over the virtual cluster when the solver config names a
/// rank grid.  Completion futures carry per-request SolverStats attributed
/// by the block solver itself, so no request ever observes a batch-mate's
/// inner iterations or rollbacks.
///
/// Fault behaviour: a chaos-repaired exchange rolls back exactly the
/// requests of the batch in flight (solvers/gcr.h); queued batches are
/// untouched.  Shutdown drains: close the queue, finish everything already
/// accepted, fail later submissions typed (Status::ShuttingDown).
///
/// Instrumentation (src/obs): `serve.queue.depth` gauge,
/// `serve.batch.occupancy` histogram (RHS per dispatch),
/// `serve.request.latency_s` + `serve.request.wait_s` histograms,
/// `serve.requests` / `serve.rhs` / `serve.batches` /
/// `serve.deadline_expired` counters, `serve.dispatch_s` busy-time gauge.

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "core/gcr_dd.h"
#include "serve/queue.h"
#include "serve/request.h"

namespace lqcd::serve {

struct Config {
  /// Queue capacity in *requests*; submit() blocks when full (bounded
  /// backlog — the backlog's memory is dominated by queued RHS fields).
  std::size_t queue_capacity = 64;
  /// Maximum RHS per dispatched batch; 0 defers to the batch-width policy
  /// (LQCD_SERVE_BATCH / kDefaultServeBatch, see tune/batch_policy.h).
  int max_batch = 0;
  /// Batching window: after popping a request, the scheduler waits up to
  /// this long for compatible arrivals before dispatching a partial batch.
  /// Solves run for seconds, so a few-ms linger trades invisible latency
  /// for full-width batches (a full batch already waiting dispatches
  /// immediately).
  std::chrono::milliseconds linger{10};
  /// Solver configuration shared by all cached solvers; `mass` and `tol`
  /// are overridden per request (they are part of the coalescing key).
  GcrDdParams solver;

  /// Soak-harness checkpoint hook (soak/runner.h drives this): the dispatch
  /// whose 0-based ordinal equals `batch_ordinal` runs with block-solver
  /// checkpoint capture, freezing the whole batch at driver round
  /// `at_round`.  With `kill` set the dispatch stops right after the
  /// capture — its requests complete typed (Status::Interrupted) carrying
  /// their partial per-request stats, and the frozen state lands in
  /// `*captured`; subsequent batches proceed normally.
  struct CheckpointPlan {
    std::uint64_t batch_ordinal = 0;
    std::int64_t at_round = 0;
    bool kill = true;
    BlockGcrCheckpoint<WilsonField<float>>* captured = nullptr;
  };
  std::optional<CheckpointPlan> checkpoint;

  /// When set, the service's FIRST dispatch resumes from this captured
  /// state instead of starting fresh.  The resubmitted requests must
  /// reproduce the killed batch exactly (same RHS fields, same order, same
  /// mass/tol) — the block solver enforces the RHS count and the restored
  /// trajectory continues bitwise (tests/test_serve.cpp).
  const BlockGcrCheckpoint<WilsonField<float>>* resume = nullptr;
};

class SolveService {
 public:
  /// \p u and \p clover (nullable) must outlive the service; cached
  /// solvers hold converted copies but are constructed lazily from them.
  SolveService(const GaugeField<double>& u, const CloverField<double>* clover,
               Config cfg = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueues a request (blocking while the queue is full).  The returned
  /// future resolves when the request completes, fails its deadline, or is
  /// rejected because the service is shut down.
  std::future<Result> submit(Request req);

  /// Closes the queue, finishes every accepted request and joins the
  /// dispatcher.  Idempotent; the destructor calls it.
  void shutdown();

  std::size_t queue_depth() const { return queue_.depth(); }

  /// The resolved coalescing width (policy or Config::max_batch).
  int batch_width() const { return batch_width_; }

 private:
  struct Pending {
    Request req;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Requests coalesce iff their keys match exactly.
  struct CompatKey {
    Action action;
    double mass;
    double tol;
    double twisted_mu;
    bool operator<(const CompatKey& o) const {
      return std::tie(action, mass, tol, twisted_mu) <
             std::tie(o.action, o.mass, o.tol, o.twisted_mu);
    }
    bool operator==(const CompatKey& o) const {
      return action == o.action && mass == o.mass && tol == o.tol &&
             twisted_mu == o.twisted_mu;
    }
  };
  static CompatKey key_of(const Request& r) {
    // mu participates only for twisted requests, so a stray twisted_mu on
    // a WilsonClover request cannot split its coalescing class.
    return CompatKey{r.action, r.mass, r.tol,
                     r.action == Action::TwistedMass ? r.twisted_mu : 0.0};
  }

  void dispatcher_loop();
  void dispatch(std::vector<Pending> batch);
  GcrDdWilsonSolver& solver_for(const CompatKey& key);
  int resolve_batch_width() const;

  const GaugeField<double>* u_;
  const CloverField<double>* clover_;
  Config cfg_;
  int batch_width_;
  BoundedQueue<Pending> queue_;
  /// Popped-but-undispatched requests awaiting compatible batch-mates;
  /// dispatcher-thread only.
  std::deque<Pending> carry_;
  /// One cached solver per parameter set; dispatcher-thread only.
  std::map<CompatKey, std::unique_ptr<GcrDdWilsonSolver>> solvers_;
  /// Dispatch ordinal counter (dispatcher-thread only): pairs dispatches
  /// with Config::checkpoint / Config::resume.
  std::uint64_t dispatched_ = 0;
  std::thread dispatcher_;
};

}  // namespace lqcd::serve
