#pragma once
/// \file schwarz.h
/// \brief Non-overlapping additive Schwarz (block-Jacobi) preconditioner
/// (§3.2, §8.1).
///
/// K r approximately solves A_D e = r where A_D is the Dirichlet-cut
/// operator (hopping terms crossing block boundaries dropped, blocks
/// matching the per-GPU subdomains).  Because A_D is block diagonal the
/// solve decouples: we run a fixed number of MR steps with block-local
/// reductions — no inter-block communication at all, which is the whole
/// point.  The paper evaluates the preconditioner exclusively in half
/// precision; pass a half round-trip as \p low_store to reproduce that.
///
/// This masked whole-lattice form runs no production solve.  It is the
/// bitwise reference of BlockTaskSchwarzPreconditioner
/// (solvers/block_task_schwarz.h), which the GCR-DD solver runs: see
/// tests/test_gcr_dd.cpp, tests/test_serve.cpp and impl 0 of
/// BM_SchwarzApply (bench/bench_solvers.cpp).  Over any Dirichlet
/// operator it is also the additive baseline: bench_schwarz_ablation and
/// tests/test_extensions.cpp set it against the overlapping and
/// multiplicative variants, and tests/test_integration.cpp runs it over
/// the comms-off partitioned operator.

#include <functional>

#include "dirac/operator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/mr.h"

namespace lqcd {

template <typename Field>
class SchwarzPreconditioner : public LinearOperator<Field> {
 public:
  /// \param dirichlet_op the block-decoupled (communications-off) operator.
  /// \param mask the block decomposition the operator was cut along.
  SchwarzPreconditioner(const LinearOperator<Field>& dirichlet_op,
                        const BlockMask& mask, MrParams mr,
                        std::function<void(Field&)> low_store = nullptr)
      : op_(&dirichlet_op), mask_(&mask), mr_(mr),
        low_store_(std::move(low_store)) {}

  void apply(Field& out, const Field& in) const override {
    ScopedSpan span("schwarz.apply");
    set_zero(out);
    Field rhs(op_->geometry());
    copy(rhs, in);
    if (low_store_) low_store_(rhs);
    const SolverStats s = mr_solve(*op_, out, rhs, mr_, mask_, low_store_);
    inner_steps_ += s.iterations;
    metric_counter("solver.schwarz.mr_steps")
        .add(static_cast<std::uint64_t>(s.iterations));
  }

  const LatticeGeometry& geometry() const override { return op_->geometry(); }

  /// Total MR steps spent inside the preconditioner since construction,
  /// cumulative across applies.
  int inner_steps() const { return inner_steps_; }

 private:
  const LinearOperator<Field>* op_;
  const BlockMask* mask_;
  MrParams mr_;
  std::function<void(Field&)> low_store_;
  mutable int inner_steps_ = 0;
};

}  // namespace lqcd
