#pragma once
/// \file block_gcr_dd.h
/// \brief Batched GCR-DD: the multi-RHS twin of GcrDdWilsonSolver.  Same
/// operator stack, mixed-precision configuration and block-task Schwarz
/// preconditioner (see core/gcr_dd.h), but the outer Krylov matvecs and
/// the preconditioner applies are issued as multi-RHS batches: every
/// reconstructed gauge-link load services the whole batch, and each
/// Schwarz block task runs the MR steps of every RHS in lockstep.  Per-RHS
/// solutions and SolverStats are bitwise/equal to N independent
/// GcrDdWilsonSolver::solve calls (asserted in tests/test_serve.cpp).
///
/// With `rank_grid` set, the outer operator runs through the virtual
/// cluster per RHS (PerRhsMultiOperator: the overlap schedule is
/// per-field), while the comm-free Schwarz preconditioner stays natively
/// batched — the same split the paper's multi-GPU practice implies, where
/// the Dirichlet-cut preconditioner is the comms-free bulk of the work.

#include <memory>
#include <vector>

#include "core/gcr_dd.h"
#include "dirac/multi_rhs.h"

namespace lqcd {

/// Batched GCR-DD solver for M x = b on the full lattice, N RHS at a time.
class MultiRhsGcrDdWilsonSolver {
 public:
  MultiRhsGcrDdWilsonSolver(const GaugeField<double>& u,
                            const CloverField<double>* clover,
                            GcrDdParams params)
      : params_(params),
        u_single_(convert_gauge<float>(u)),
        clover_single_(detail::gcr_dd_clover(u.geometry(), clover, params)) {
    const CloverField<float>* a = clover_single_ ? &*clover_single_ : nullptr;
    if (params.rank_grid) {
      op_part_ = std::make_unique<PartitionedWilsonCloverSchur<float>>(
          Partitioning(u.geometry(), *params.rank_grid), u_single_, a,
          params.mass);
      multi_op_ =
          std::make_unique<PerRhsMultiOperator<WilsonField<float>>>(*op_part_);
    } else {
      op_ = std::make_unique<WilsonCloverSchurOperator<float>>(u_single_, a,
                                                               params.mass);
      multi_op_ = std::make_unique<NativeMultiRhsOperator<
          WilsonField<float>, WilsonCloverSchurOperator<float>>>(*op_);
    }
    precond_ = detail::gcr_dd_schwarz(u_single_, a, params);
  }

  /// Solves M xs[r] = bs[r] for every RHS (double precision I/O).  Each
  /// entry of the returned stats describes that RHS's solve only:
  /// `inner_iterations` is attributed per RHS by the GCR driver, so a
  /// reused solver or a long-lived service never leaks preconditioner work
  /// between requests.
  ///
  /// \p ckpt (optional) threads soak checkpoint I/O into the GCR driver
  /// (solvers/gcr.h): capture freezes the whole batch mid-solve at a
  /// driver-round boundary; resume requires the same RHS in the same order
  /// (source preparation is recomputed — a pure function of b and the
  /// gauge/clover fields) and continues every RHS bitwise.
  std::vector<SolverStats> solve(
      const std::vector<WilsonField<double>*>& xs,
      const std::vector<const WilsonField<double>*>& bs,
      BlockGcrCheckpointIo<WilsonField<float>>* ckpt = nullptr) {
    const std::size_t n = xs.size();
    ScopedSpan span("block_gcrdd.solve");
    metric_counter("solver.gcrdd.solves").add(n);

    std::vector<WilsonField<float>> b_f;
    std::vector<WilsonField<float>> b_hat;
    std::vector<WilsonField<float>> x_f;
    b_f.reserve(n);
    b_hat.reserve(n);
    x_f.reserve(n);
    std::vector<WilsonField<float>*> x_ptr(n);
    std::vector<const WilsonField<float>*> b_hat_ptr(n);
    for (std::size_t i = 0; i < n; ++i) {
      b_f.push_back(convert_field<float>(*bs[i]));
      b_hat.emplace_back(bs[i]->geometry());
      if (op_part_) {
        op_part_->prepare_source(b_hat[i], b_f[i]);
      } else {
        op_->prepare_source(b_hat[i], b_f[i]);
      }
      x_f.emplace_back(bs[i]->geometry());
      set_zero(x_f[i]);
      x_ptr[i] = &x_f[i];
      b_hat_ptr[i] = &b_hat[i];
    }

    std::vector<SolverStats> stats = block_gcr_solve(
        *multi_op_, x_ptr, b_hat_ptr, precond_.get(),
        detail::gcr_dd_outer_params(params_),
        detail::gcr_dd_store(params_.half_krylov), ckpt);

    // A kill-captured batch returns its partial stats; the iterates live in
    // the checkpoint, so the output fields are left untouched.
    if (ckpt != nullptr && ckpt->stop_after_capture &&
        ckpt->captured != nullptr && ckpt->captured->valid()) {
      return stats;
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (op_part_) {
        op_part_->reconstruct_solution(x_f[i], b_f[i]);
      } else {
        op_->reconstruct_solution(x_f[i], b_f[i]);
      }
      *xs[i] = convert_field<double>(x_f[i]);
    }
    return stats;
  }

 private:
  GcrDdParams params_;
  GaugeField<float> u_single_;
  std::optional<CloverField<float>> clover_single_;
  std::unique_ptr<WilsonCloverSchurOperator<float>> op_;
  std::unique_ptr<PartitionedWilsonCloverSchur<float>> op_part_;
  std::unique_ptr<MultiRhsOperator<WilsonField<float>>> multi_op_;
  std::unique_ptr<BlockTaskSchwarzPreconditioner<float>> precond_;
};

}  // namespace lqcd
