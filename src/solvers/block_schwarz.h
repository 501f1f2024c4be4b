#pragma once
/// \file block_schwarz.h
/// \brief Batched additive Schwarz preconditioning for the multi-RHS
/// solvers: the lockstep twin of SchwarzPreconditioner + mr_solve.
///
/// Inside a GCR-DD iteration the preconditioner performs ~10 MR steps —
/// an order of magnitude more Dirichlet-cut operator applications than the
/// single outer matvec — so batching only the outer operator would leave
/// the dominant link traffic unamortized.  The lockstep MR here advances
/// every RHS one step at a time, issuing each cut-operator application as
/// one multi-RHS batch (one gauge-link load serves all RHS) while keeping
/// all per-RHS arithmetic (block-local alphas, caxpy updates, low_store
/// truncation) bitwise equal to the single-RHS order — the MR step's four
/// BLAS passes run as two fused one-pass kernels (block_dot_norm2,
/// block_mr_update) that blas.h guarantees match the unfused sequence
/// bit-for-bit.  Per-RHS results are bitwise identical to
/// SchwarzPreconditioner::apply and to GcrDdWilsonSolver's block-task
/// Schwarz (asserted in tests/test_serve.cpp).  The single-RHS steps
/// skipped are the Dirichlet apply on the zero starting vector (its result
/// is +0 everywhere, so r = b exactly) and mr_solve's final residual-norm
/// reduction, which feeds a SolverStats field the Schwarz wrapper discards.

#include <complex>
#include <functional>
#include <vector>

#include "dirac/multi_rhs.h"
#include "fields/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/gcr.h"
#include "solvers/mr.h"

namespace lqcd {

template <typename Field>
class MultiRhsSchwarzPreconditioner : public BlockPreconditioner<Field> {
 public:
  /// \param dirichlet_op the block-decoupled (communications-off) operator,
  ///        batched; \param mask the block decomposition it was cut along.
  MultiRhsSchwarzPreconditioner(const MultiRhsOperator<Field>& dirichlet_op,
                                const BlockMask& mask, MrParams mr,
                                std::function<void(Field&)> low_store = nullptr)
      : op_(&dirichlet_op), mask_(&mask), mr_(mr),
        low_store_(std::move(low_store)) {}

  void apply_multi(const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins,
                   std::vector<int>* inner_steps = nullptr) const override {
    ScopedSpan span("schwarz.apply_multi");
    const std::size_t w = ins.size();
    const LatticeGeometry& g = op_->geometry();

    // Workspace fields persist across applies (the preconditioner runs once
    // per outer iteration, so reallocating 2w ~MB-scale fields each call
    // costs a measurable slice of the batch).  Every reused buffer is fully
    // overwritten before it is read — r by copy, ar by the batched
    // operator — so reuse cannot change any value.
    std::vector<Field>& r = ws_r_;
    std::vector<Field>& ar = ws_ar_;
    while (r.size() < w) {
      r.emplace_back(g);
      ar.emplace_back(g);
    }
    std::vector<const Field*> r_cptr(w);
    std::vector<Field*> ar_ptr(w);
    for (std::size_t i = 0; i < w; ++i) {
      r_cptr[i] = &r[i];
      ar_ptr[i] = &ar[i];
    }

    // mr_solve stores b, then opens with r = -(A x) + b at x = 0.  A 0 is
    // +0 at every site in IEEE arithmetic, so that r is the stored b bit
    // for bit: copy it and keep both low_store calls (no Dirichlet apply
    // on the zero vector).
    for (std::size_t i = 0; i < w; ++i) {
      set_zero(*outs[i]);
      copy(r[i], *ins[i]);
      if (low_store_) {
        low_store_(r[i]);  // the stored right-hand side
        low_store_(r[i]);  // r = b - A 0, stored
      }
    }

    for (int k = 0; k < mr_.steps; ++k) {
      {
        ScopedSpan op_span("mr.op_multi");
        op_->apply_multi(ar_ptr, r_cptr);
      }
      for (std::size_t i = 0; i < w; ++i) {
        // Fused one-pass kernels: alpha reduction (block_dot + block_norm2)
        // and the x/r update pair (two masked caxpys).  Both are bitwise
        // identical to the unfused sequence mr_solve runs (see blas.h), so
        // the per-RHS equivalence contract above still holds.
        const auto [num, den] = block_dot_norm2(ar[i], r[i], *mask_);
        std::vector<std::complex<double>> alpha(num.size());
        for (std::size_t j = 0; j < num.size(); ++j) {
          alpha[j] = den[j] > 0 ? mr_.omega * num[j] / den[j]
                                : std::complex<double>{};
        }
        block_mr_update(alpha, r[i], ar[i], *outs[i], *mask_);
        if (low_store_) {
          low_store_(*outs[i]);
          low_store_(r[i]);
        }
      }
    }

    metric_counter("solver.schwarz.mr_steps")
        .add(static_cast<std::uint64_t>(mr_.steps) * w);
    if (inner_steps != nullptr) {
      inner_steps->assign(w, mr_.steps);
    }
  }

  const LatticeGeometry& geometry() const override { return op_->geometry(); }

 private:
  const MultiRhsOperator<Field>* op_;
  const BlockMask* mask_;
  MrParams mr_;
  std::function<void(Field&)> low_store_;
  // Reusable per-RHS workspaces, grown to the widest batch seen.  apply_multi
  // is logically const; the service serializes dispatches, so no locking.
  mutable std::vector<Field> ws_r_;
  mutable std::vector<Field> ws_ar_;
};

}  // namespace lqcd
