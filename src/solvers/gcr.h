#pragma once
/// \file gcr.h
/// \brief Flexible generalized conjugate residual, implementing the paper's
/// Algorithm 1 (mixed-precision GCR-DD) faithfully:
///
///  * flexible: the preconditioner K may change between iterations (an
///    inexact iterative solve), so the full Krylov basis is stored and
///    explicitly orthogonalized;
///  * restarts: when the basis reaches kmax, the solution contribution is
///    recovered by the *implicit update* — back-substitution of the
///    triangular system gamma_l chi_l + sum_{i>l} beta_{l,i} chi_i =
///    alpha_l — which avoids an extra stored vector per step (following
///    Luscher, ref. [20] of the paper);
///  * the delta test: if the in-basis residual has already dropped by more
///    than delta relative to the cycle's starting residual, restart early —
///    protecting the half-precision iterated residual from drifting away
///    from the true residual;
///  * precision split: the Krylov basis and preconditioner run in storage
///    precision emulated by the low_store hook (half in the paper's
///    production config), while every restart recomputes the true residual
///    in the field's working precision;
///  * the final check: once the iterated residual meets the target, the
///    true residual is recomputed; if it still misses the target (drift
///    of the storage-precision recursion), the solve restarts from it while
///    max_iter and max_restarts allow, and reports converged = false only
///    when the budget is spent;
///  * fault recovery: a ghost exchange that needed repair (a comm retry
///    metered as `comm.retries` by comm/exchange.h) marks the iterate
///    unreliable — the repaired payload is bitwise correct, but the fault
///    indicates the fabric misbehaved, so the solver rolls back to the last
///    reliable update by forcing an immediate restart, which recomputes the
///    true residual in working precision.  Rollbacks are counted in
///    SolverStats::rollbacks and metered as `solver.rollbacks`.  The hook
///    observes the metrics registry rather than the fault library, so
///    fault-free solves pay two relaxed counter loads per iteration.
///
/// **One driver, N right-hand sides.**  block_gcr_solve runs N independent
/// GCR recursions advanced in rounds, so that every operator and
/// preconditioner application is issued as one multi-RHS batch over the
/// shared gauge field; gcr_solve is its width-1 call.  This is deliberately
/// NOT a block-Krylov method: sharing the Krylov space across RHS changes
/// the iterates, which would break the serve contract that a queued request
/// converges exactly as it would have solo.  Each RHS keeps its own basis,
/// coefficients, restart schedule and fault-rollback state, and the only
/// coupling is *temporal*: per round, all RHS needing a preconditioner
/// application are served by one BlockPreconditioner::apply_multi, and all
/// RHS needing an operator application (Krylov matvec, restart or final
/// true-residual recomputation alike) by one MultiRhsOperator::apply_multi.
/// Batched kernels are per-RHS bitwise identical to their single-RHS twins
/// and BLAS never mixes RHS, so each RHS's residual history and iterate
/// are those of a solo solve (asserted in tests/test_serve.cpp).  RHS
/// finish independently: a converged system stops contributing to later
/// rounds while its batch-mates continue.  A repair during a batched
/// application is observed by every RHS in flight in that round, so the
/// whole batch rolls back to its last reliable update — requests in
/// *other* batches are untouched (the serve layer's rollback isolation).

#include <cmath>
#include <complex>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dirac/multi_rhs.h"
#include "dirac/operator.h"
#include "fields/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/solver_stats.h"
#include "util/log.h"

namespace lqcd {

struct GcrParams {
  double tol = 1e-5;   ///< relative residual target
  int kmax = 16;       ///< maximum Krylov basis size between restarts
  /// Early-restart threshold on the in-cycle residual drop.  The default
  /// here (0.1) is the conservative general-purpose setting for a solver
  /// whose Krylov precision is unknown; it intentionally differs from
  /// GcrDdParams::delta = 0.25 (core/gcr_dd.h), which is tuned for the
  /// paper's §8.1 single-half-half configuration where the half-precision
  /// Krylov space drifts faster and restarting on a mere 4x drop keeps the
  /// iterated residual honest without discarding useful basis vectors.
  double delta = 0.1;
  int max_iter = 2000; ///< total Krylov steps across restarts
  int max_restarts = 500;
  /// Use the fused BLAS kernels (fields/blas.h): the orthogonalization and
  /// residual update of an iteration at basis size k run in 4 lattice
  /// sweeps (block_cdot + block_caxpy_norm2 + scale_cdot + caxpy_norm2)
  /// instead of the 2k+5 of one-op-per-pass code.  Both settings execute
  /// classical Gram-Schmidt with identical per-site operation order and the
  /// fixed reduction grid, so residual histories and iterates are BITWISE
  /// identical either way (asserted in tests) — this switch only changes
  /// how many times memory is traversed.
  bool fused = true;
};

/// Preconditioner interface of the GCR driver: a batched apply plus
/// per-RHS inner-work reporting, so the driver attributes preconditioner
/// iterations to individual solves without differencing a cumulative
/// counter (the per-solve stats isolation the serve queue relies on).
template <typename Field>
class BlockPreconditioner {
 public:
  virtual ~BlockPreconditioner() = default;

  /// outs[r] = K ins[r].  When \p inner_steps is non-null it is resized to
  /// the batch width and receives the inner iterations spent on each RHS.
  virtual void apply_multi(const std::vector<Field*>& outs,
                           const std::vector<const Field*>& ins,
                           std::vector<int>* inner_steps = nullptr) const = 0;

  virtual const LatticeGeometry& geometry() const = 0;
};

/// Serves a batch by looping a single-RHS preconditioner (the twin of
/// PerRhsMultiOperator), reporting a fixed \p steps_per_apply inner
/// iterations per RHS: 0 for an arbitrary LinearOperator, `mr.steps` for
/// a fixed-step Schwarz preconditioner.
template <typename Field>
class PerRhsPreconditioner final : public BlockPreconditioner<Field> {
 public:
  explicit PerRhsPreconditioner(const LinearOperator<Field>& k,
                                int steps_per_apply = 0)
      : k_(&k), steps_(steps_per_apply) {}

  void apply_multi(const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins,
                   std::vector<int>* inner_steps = nullptr) const override {
    for (std::size_t r = 0; r < outs.size(); ++r) k_->apply(*outs[r], *ins[r]);
    if (inner_steps != nullptr) inner_steps->assign(outs.size(), steps_);
  }

  const LatticeGeometry& geometry() const override { return k_->geometry(); }

 private:
  const LinearOperator<Field>* k_;
  int steps_;
};

/// Frozen mid-solve state of a block_gcr_solve in flight: one record per
/// RHS (the driver's per-RHS state minus scratch) plus the round counter.
/// The capture boundary is the end of a driver round — every RHS has
/// finished its post-operator arithmetic, so no RHS is mid-iteration.  The
/// contract (DESIGN.md §15): a batch captured at round k and resumed from
/// this state — in the same or another process — produces residual
/// histories, iterates and stats bitwise identical to the uninterrupted
/// run's, in both LQCD_RANK_MODE settings.  The scratch true-residual
/// fields are deliberately absent: they are only ever read right after
/// being recomputed, so they carry no state across rounds.  Serialized by
/// soak/checkpoint.h; carried through the serve layer for kill-restore of
/// an in-flight batch.
template <typename Field>
struct BlockGcrCheckpoint {
  struct Rhs {
    int phase = 0;  ///< driver phase ordinal (Init..Done, stable encoding)
    int k = 0;      ///< open-cycle Krylov basis size
    double b2 = 0.0, target = 0.0;
    double rnorm = 0.0;             ///< last true residual norm
    double cycle_start_norm = 0.0;  ///< the delta test's reference
    SolverStats stats;              ///< partial stats (history prefix)
    std::optional<Field> x;         ///< iterate (implicit update pending)
    std::optional<Field> rhat;      ///< iterated (storage-precision) residual
    std::vector<Field> p, z;        ///< open-cycle Krylov vectors (size k)
    std::vector<std::vector<std::complex<double>>> beta;  ///< kmax rows
    std::vector<double> gamma;                            ///< kmax entries
    std::vector<std::complex<double>> alpha;              ///< kmax entries
  };
  std::uint64_t round = 0;  ///< completed driver rounds at capture
  std::vector<Rhs> rhs;

  bool valid() const { return !rhs.empty(); }
};

/// Checkpoint plumbing for one block_gcr_solve call: capture fires at the
/// end of driver round `capture_at_round` (1-based count of completed
/// rounds); with `stop_after_capture` the solve returns its partial stats
/// right after capturing, simulating a kill.  `resume` must be given the
/// same number of RHS in the same order.
template <typename Field>
struct BlockGcrCheckpointIo {
  const BlockGcrCheckpoint<Field>* resume = nullptr;
  std::int64_t capture_at_round = -1;
  BlockGcrCheckpoint<Field>* captured = nullptr;
  bool stop_after_capture = false;
};

/// Solves A xs[r] = bs[r] for all r with right-preconditioned flexible
/// GCR, batching operator work across RHS.  Uses each xs[r] as the initial
/// guess.  \p precond may be null (plain GCR).  \p low_store, when set,
/// emulates reduced storage precision on the Krylov vectors (Algorithm 1's
/// hatted quantities).  Returns one SolverStats per RHS, with
/// `inner_iterations` summed from the preconditioner's per-RHS reports.
template <typename Field>
std::vector<SolverStats> block_gcr_solve(
    const MultiRhsOperator<Field>& a, const std::vector<Field*>& xs,
    const std::vector<const Field*>& bs,
    const BlockPreconditioner<Field>* precond, const GcrParams& params,
    const std::function<void(Field&)>& low_store = nullptr,
    BlockGcrCheckpointIo<Field>* ckpt = nullptr) {
  const std::size_t n = xs.size();
  ScopedSpan solve_span("gcr.solve");
  metric_counter("solver.gcr.solves").add(n);
  const LatticeGeometry& geom = a.geometry();

  static Counter& comm_retries = metric_counter("comm.retries");
  static Counter& rollback_meter = metric_counter("solver.rollbacks");
  // Sweep accounting: `solver.gcr.iter_sweeps` accumulates the blas.sweeps
  // delta of each iteration's orthogonalization + update phase (matvec and
  // preconditioner excluded), so iter_sweeps / iterations is the measured
  // per-iteration pass count the fusion work targets (<= 4 when fused).
  static Counter& sweep_meter = metric_counter("blas.sweeps");
  static Counter& iter_sweep_meter = metric_counter("solver.gcr.iter_sweeps");

  // One GCR recursion's state per RHS; `phase` names the operator
  // application the RHS is waiting on.
  enum class Phase { Init, Precond, Matvec, Restart, Final, Done };
  struct St {
    Field* x;
    const Field* b;
    SolverStats stats;
    Phase phase = Phase::Init;
    double b2 = 0, target = 0, rnorm = 0, cycle_start_norm = 0;
    Field r;     // high-precision residual r0 of Algorithm 1
    Field rhat;  // iterated (storage-precision) residual
    Field tmp;   // A x of the true-residual recomputations
    // Krylov storage: preconditioned directions p_hat and images z_hat.
    std::vector<Field> p, z;
    std::vector<std::vector<std::complex<double>>> beta;
    std::vector<double> gamma;
    std::vector<std::complex<double>> alpha;
    int k = 0;
    std::uint64_t repairs_seen = 0;

    St(const LatticeGeometry& g, Field* x_, const Field* b_, int kmax)
        : x(x_), b(b_), r(g), rhat(g), tmp(g),
          beta(static_cast<std::size_t>(kmax)),
          gamma(static_cast<std::size_t>(kmax)),
          alpha(static_cast<std::size_t>(kmax)) {
      p.reserve(static_cast<std::size_t>(kmax));
      z.reserve(static_cast<std::size_t>(kmax));
    }
  };

  std::vector<St> st;
  st.reserve(n);
  const bool resuming =
      ckpt != nullptr && ckpt->resume != nullptr && ckpt->resume->valid();
  if (resuming) {
    // Restore every per-RHS record bit-for-bit: the continuation is
    // arithmetic on bitwise-identical state, so the batch reproduces the
    // uninterrupted run exactly.  norm2(b) is NOT recomputed (b2 is part of
    // the capture), and the repair baseline restarts from the current
    // counter — the restored process has its own fault stream.
    const BlockGcrCheckpoint<Field>& c = *ckpt->resume;
    if (c.rhs.size() != n) {
      throw std::invalid_argument(
          "block_gcr_solve: resume checkpoint holds " +
          std::to_string(c.rhs.size()) + " RHS, caller passed " +
          std::to_string(n));
    }
    for (std::size_t i = 0; i < n; ++i) {
      st.emplace_back(geom, xs[i], bs[i], params.kmax);
      St& s = st.back();
      const auto& cr = c.rhs[i];
      s.phase = static_cast<Phase>(cr.phase);
      s.k = cr.k;
      s.b2 = cr.b2;
      s.target = cr.target;
      s.rnorm = cr.rnorm;
      s.cycle_start_norm = cr.cycle_start_norm;
      s.stats = cr.stats;
      if (cr.x.has_value()) *s.x = *cr.x;
      if (cr.rhat.has_value()) s.rhat = *cr.rhat;
      s.p = cr.p;
      s.z = cr.z;
      s.beta = cr.beta;
      s.beta.resize(static_cast<std::size_t>(params.kmax));
      s.gamma = cr.gamma;
      s.gamma.resize(static_cast<std::size_t>(params.kmax));
      s.alpha = cr.alpha;
      s.alpha.resize(static_cast<std::size_t>(params.kmax));
      s.repairs_seen = comm_retries.value();
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      st.emplace_back(geom, xs[i], bs[i], params.kmax);
      St& s = st.back();
      s.b2 = norm2(*s.b);
      if (s.b2 == 0) {
        set_zero(*s.x);
        s.stats.converged = true;
        s.phase = Phase::Done;
        continue;
      }
      s.target = params.tol * std::sqrt(s.b2);
    }
  }

  // Implicit solution update: back-substitute for chi, then
  // x += sum chi_l p_l.  The true-residual recomputation that follows a
  // restart needs a matvec, so the driver issues it as a Phase::Restart
  // application.
  auto implicit_update = [&](St& s) {
    ScopedSpan span("gcr.restart");
    for (int l = s.k - 1; l >= 0; --l) {
      std::complex<double> chi = s.alpha[static_cast<std::size_t>(l)];
      for (int i = l + 1; i < s.k; ++i) {
        chi -=
            s.beta[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] *
            s.alpha[static_cast<std::size_t>(i)];
      }
      // Reuse alpha[l] to hold chi_l (classic in-place back substitution).
      s.alpha[static_cast<std::size_t>(l)] =
          chi / s.gamma[static_cast<std::size_t>(l)];
    }
    if (params.fused && s.k > 0) {
      // One sweep for the whole x update (terms added in l order, bitwise
      // equal to k successive caxpy calls).
      std::vector<const Field*> pp;
      pp.reserve(static_cast<std::size_t>(s.k));
      for (int l = 0; l < s.k; ++l) {
        pp.push_back(&s.p[static_cast<std::size_t>(l)]);
      }
      block_caxpy(std::vector<std::complex<double>>(s.alpha.begin(),
                                                    s.alpha.begin() + s.k),
                  pp, *s.x);
    } else {
      for (int l = 0; l < s.k; ++l) {
        caxpy(s.alpha[static_cast<std::size_t>(l)],
              s.p[static_cast<std::size_t>(l)], *s.x);
      }
    }
    s.k = 0;
    s.p.clear();
    s.z.clear();
  };

  // The iteration condition; on exit, the epilogue (implicit update +
  // final true residual) runs instead of another iteration.
  auto enter_loop_or_final = [&](St& s) {
    if (s.rnorm > s.target && s.stats.iterations < params.max_iter &&
        s.stats.restarts < params.max_restarts) {
      s.phase = Phase::Precond;
    } else {
      if (s.k > 0) implicit_update(s);
      s.phase = Phase::Final;
    }
  };

  // A new cycle from the true residual s.r of norm s.rnorm.
  auto start_cycle = [&](St& s, bool is_restart) {
    copy(s.rhat, s.r);
    if (low_store) low_store(s.rhat);
    s.cycle_start_norm = s.rnorm;
    if (is_restart) {
      ++s.stats.restarts;
    } else {
      // Fault baseline: repairs during the initial residual need no
      // rollback (r is already the true residual).
      s.repairs_seen = comm_retries.value();
    }
  };

  // Shared postlude of the initial-residual and restart applications:
  // s.tmp holds A x, and r = b - A x is one fused sweep.
  auto post_true_residual = [&](St& s, bool is_restart) {
    ++s.stats.matvecs;
    s.rnorm = std::sqrt(xmy_norm2(*s.b, s.tmp, s.r));
    start_cycle(s, is_restart);
    enter_loop_or_final(s);
  };

  // One GCR iteration's arithmetic after z_k = A p_k.
  auto advance_iteration = [&](St& s) {
    Field& zk = s.z.back();
    ++s.stats.matvecs;
    if (low_store) low_store(zk);

    // Orthogonalize z_k against the basis — classical Gram-Schmidt: every
    // projection is taken against the *incoming* z_k, which is what lets a
    // single fused pass (block_cdot) produce all k coefficients at once.
    // The fused and unfused paths perform the same per-site arithmetic in
    // the same order on the same reduction grid: bitwise identical.
    // Sweeps from here to the end of the iteration are metered; the fused
    // path costs 4 (3 on the first iteration of a cycle, where k == 0 and
    // block_cdot is free), the unfused path 2k+5.
    const std::uint64_t iter_sweeps0 = sweep_meter.value();
    auto& beta_k = s.beta[static_cast<std::size_t>(s.k)];
    beta_k.assign(static_cast<std::size_t>(params.kmax), {});
    std::vector<const Field*> zp;
    zp.reserve(static_cast<std::size_t>(s.k));
    for (int i = 0; i < s.k; ++i) {
      zp.push_back(&s.z[static_cast<std::size_t>(i)]);
    }
    std::vector<std::complex<double>> bik(static_cast<std::size_t>(s.k));
    if (params.fused) {
      bik = block_cdot(zp, zk);
    } else {
      for (int i = 0; i < s.k; ++i) {
        bik[static_cast<std::size_t>(i)] =
            dot(s.z[static_cast<std::size_t>(i)], zk);
      }
    }
    std::vector<std::complex<double>> mbik(static_cast<std::size_t>(s.k));
    for (int i = 0; i < s.k; ++i) {
      // Store beta_{i,k} at row i of column k: beta[i][k].
      s.beta[static_cast<std::size_t>(i)][static_cast<std::size_t>(s.k)] =
          bik[static_cast<std::size_t>(i)];
      mbik[static_cast<std::size_t>(i)] = -bik[static_cast<std::size_t>(i)];
    }
    double gk2;
    if (params.fused) {
      gk2 = block_caxpy_norm2(mbik, zp, zk);
    } else {
      for (int i = 0; i < s.k; ++i) {
        caxpy(mbik[static_cast<std::size_t>(i)],
              s.z[static_cast<std::size_t>(i)], zk);
      }
      gk2 = norm2(zk);
    }
    const double gk = std::sqrt(gk2);
    if (gk == 0) {
      // Exact breakdown: the preconditioned direction added nothing.
      s.p.pop_back();
      s.z.pop_back();
      implicit_update(s);
      s.phase = Phase::Restart;
      return;
    }
    s.gamma[static_cast<std::size_t>(s.k)] = gk;
    // Normalize and project onto rhat in one pass.  alpha is computed from
    // the full-precision z_k; low_store truncation applies before the
    // residual update, so the stored basis and the update coefficient stay
    // mutually consistent in both paths.
    std::complex<double> ak;
    if (params.fused) {
      ak = scale_cdot(1.0 / gk, zk, s.rhat);
    } else {
      scale(1.0 / gk, zk);
      ak = dot(zk, s.rhat);
    }
    if (low_store) low_store(zk);
    s.alpha[static_cast<std::size_t>(s.k)] = ak;
    double rhat_norm2;
    if (params.fused) {
      rhat_norm2 = caxpy_norm2(-ak, zk, s.rhat);
    } else {
      caxpy(-ak, zk, s.rhat);
      rhat_norm2 = norm2(s.rhat);
    }
    if (low_store) low_store(s.rhat);
    ++s.k;
    ++s.stats.iterations;
    iter_sweep_meter.add(sweep_meter.value() - iter_sweeps0);

    const double rhat_norm = std::sqrt(rhat_norm2);
    s.stats.residual_history.push_back(rhat_norm);
    if (log_enabled(LogLevel::Debug)) {
      log_debug("gcr: iter " + std::to_string(s.stats.iterations) +
                " |rhat| = " + std::to_string(rhat_norm));
    }
    // Fault-recovery hook: a ghost exchange repaired a fault during this
    // iteration, so roll back to the last reliable update — the restart
    // recomputes the true residual in working precision and starts a fresh
    // cycle from it.
    if (comm_retries.value() != s.repairs_seen) {
      s.repairs_seen = comm_retries.value();
      ++s.stats.rollbacks;
      s.stats.rollback_iterations.push_back(s.stats.iterations);
      rollback_meter.add();
      implicit_update(s);
      s.phase = Phase::Restart;
      return;
    }
    // A cycle that ends because the iterated residual met the target goes
    // straight to the epilogue with the implicit update only: the final
    // true residual is the authoritative convergence check, so a full
    // restart here would burn one duplicated matvec and count a restart
    // that never starts a new cycle (eating into max_restarts).
    if (rhat_norm < s.target) {
      implicit_update(s);
      s.phase = Phase::Final;
      return;
    }
    if (s.k == params.kmax || rhat_norm < params.delta * s.cycle_start_norm) {
      implicit_update(s);
      s.phase = Phase::Restart;
      return;
    }
    enter_loop_or_final(s);
  };

  auto post_final = [&](St& s) {
    ++s.stats.matvecs;
    const double r2 = xmy_norm2(*s.b, s.tmp, s.r);
    s.stats.final_residual = std::sqrt(r2 / s.b2);
    s.stats.converged = s.stats.final_residual <= params.tol;
    if (!s.stats.converged && s.stats.iterations < params.max_iter &&
        s.stats.restarts < params.max_restarts) {
      // The iterated residual met the target but the true one did not
      // (storage-precision drift): a reliable update (Algorithm 1)
      // restarts from the true residual just computed while the budget
      // lasts, rather than giving up on a check it could still pass.
      s.rnorm = std::sqrt(r2);
      start_cycle(s, /*is_restart=*/true);
      s.phase = Phase::Precond;
      return;
    }
    metric_counter("solver.gcr.iterations")
        .add(static_cast<std::uint64_t>(s.stats.iterations));
    metric_counter("solver.gcr.matvecs")
        .add(static_cast<std::uint64_t>(s.stats.matvecs));
    metric_counter("solver.gcr.restarts")
        .add(static_cast<std::uint64_t>(s.stats.restarts));
    s.phase = Phase::Done;
  };

  std::uint64_t round = resuming ? ckpt->resume->round : 0;
  bool captured = false;
  for (;;) {
    // Preconditioner round: one batched apply for every RHS starting an
    // iteration (p_k = K rhat).
    std::vector<Field*> pouts;
    std::vector<const Field*> pins;
    std::vector<St*> pst;
    for (St& s : st) {
      if (s.phase != Phase::Precond) continue;
      s.p.emplace_back(geom);
      s.z.emplace_back(geom);
      if (precond != nullptr) {
        pouts.push_back(&s.p.back());
        pins.push_back(&s.rhat);
        pst.push_back(&s);
      } else {
        copy(s.p.back(), s.rhat);
        if (low_store) low_store(s.p.back());
        s.phase = Phase::Matvec;
      }
    }
    if (!pouts.empty()) {
      std::vector<int> inner;
      precond->apply_multi(pouts, pins, &inner);
      for (std::size_t i = 0; i < pst.size(); ++i) {
        pst[i]->stats.inner_iterations += inner[i];
        if (low_store) low_store(pst[i]->p.back());
        pst[i]->phase = Phase::Matvec;
      }
    }

    // Operator round: Krylov matvecs and true-residual recomputations
    // batch together (they are all applications of the same A).
    std::vector<Field*> aouts;
    std::vector<const Field*> ains;
    std::vector<St*> ast;
    for (St& s : st) {
      if (s.phase == Phase::Matvec) {
        aouts.push_back(&s.z.back());
        ains.push_back(&s.p.back());
        ast.push_back(&s);
      } else if (s.phase == Phase::Init || s.phase == Phase::Restart ||
                 s.phase == Phase::Final) {
        aouts.push_back(&s.tmp);
        ains.push_back(s.x);
        ast.push_back(&s);
      }
    }
    if (ast.empty()) break;  // every RHS is Done
    a.apply_multi(aouts, ains);
    for (St* s : ast) {
      switch (s->phase) {
        case Phase::Init: post_true_residual(*s, false); break;
        case Phase::Restart: post_true_residual(*s, true); break;
        case Phase::Matvec: advance_iteration(*s); break;
        case Phase::Final: post_final(*s); break;
        default: break;
      }
    }
    ++round;
    // Checkpoint boundary: the end of a driver round — every RHS is parked
    // between phases (no Krylov vector half-built, `tmp` fully consumed),
    // so the frozen records are exactly what a resumed driver re-enters.
    if (ckpt != nullptr && ckpt->captured != nullptr && !captured &&
        ckpt->capture_at_round >= 0 &&
        static_cast<std::int64_t>(round) >= ckpt->capture_at_round) {
      captured = true;
      BlockGcrCheckpoint<Field>& c = *ckpt->captured;
      c.round = round;
      c.rhs.clear();
      c.rhs.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const St& s = st[i];
        auto& cr = c.rhs[i];
        cr.phase = static_cast<int>(s.phase);
        cr.k = s.k;
        cr.b2 = s.b2;
        cr.target = s.target;
        cr.rnorm = s.rnorm;
        cr.cycle_start_norm = s.cycle_start_norm;
        cr.stats = s.stats;
        cr.x.emplace(*s.x);
        cr.rhat.emplace(s.rhat);
        cr.p = s.p;
        cr.z = s.z;
        cr.beta = s.beta;
        cr.gamma = s.gamma;
        cr.alpha = s.alpha;
      }
      if (ckpt->stop_after_capture) {
        // Simulated kill: hand back the partial per-RHS stats.
        std::vector<SolverStats> partial;
        partial.reserve(n);
        for (St& s : st) partial.push_back(s.stats);
        return partial;
      }
    }
  }

  std::vector<SolverStats> out;
  out.reserve(n);
  for (St& s : st) out.push_back(std::move(s.stats));
  return out;
}

/// Solves A x = b with right-preconditioned flexible GCR: the width-1 call
/// of block_gcr_solve.  \p precond may be null (plain GCR); its inner work
/// is not counted (`inner_iterations` stays 0).
template <typename Field>
SolverStats gcr_solve(const LinearOperator<Field>& a, Field& x, const Field& b,
                      const LinearOperator<Field>* precond,
                      const GcrParams& params,
                      const std::function<void(Field&)>& low_store = nullptr) {
  const PerRhsMultiOperator<Field> multi(a);
  std::optional<PerRhsPreconditioner<Field>> k;
  if (precond != nullptr) k.emplace(*precond);
  return block_gcr_solve<Field>(multi, {&x}, {&b}, k ? &*k : nullptr, params,
                                low_store)[0];
}

/// Convenience overload for unpreconditioned GCR (lets callers pass a
/// literal nullptr without naming the operator type).
template <typename Field>
SolverStats gcr_solve(const LinearOperator<Field>& a, Field& x, const Field& b,
                      std::nullptr_t, const GcrParams& params,
                      const std::function<void(Field&)>& low_store = nullptr) {
  return gcr_solve(a, x, b,
                   static_cast<const LinearOperator<Field>*>(nullptr), params,
                   low_store);
}

}  // namespace lqcd
