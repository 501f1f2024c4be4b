#pragma once
/// \file gcr_dd.h
/// \brief The paper's headline solver (contribution (ii)): GCR with a
/// non-overlapping additive-Schwarz (domain-decomposed) preconditioner in
/// the single-half-half mixed-precision configuration of §8.1:
///
///  * outer system: even-odd preconditioned Wilson-clover in single
///    precision, with GCR restarts recomputing the true residual in single;
///  * Krylov space: built and orthogonalized in (emulated) half precision;
///  * preconditioner: a fixed number of MR steps on the Dirichlet-cut
///    operator, entirely in half precision, with block-local reductions —
///    the blocks matching the per-GPU subdomains of the partitioning.  Each
///    block runs its whole MR solve as one task on its own sublattice
///    (solvers/block_task_schwarz.h), bitwise equal to the masked
///    whole-lattice SchwarzPreconditioner; block extents must be even.
///
/// One solver serves every batch width, through the one GCR driver of
/// solvers/gcr.h.  solve(xs, bs) issues the outer Krylov matvecs and the
/// preconditioner applies as multi-RHS batches: every reconstructed
/// gauge-link load services the whole batch, and each Schwarz block task
/// runs the MR steps of every RHS in lockstep.  solve(x, b) is the width-1
/// call of the same body, with the outer operator and the Schwarz served
/// per RHS, so it records the single-RHS spans (`gcrdd.solve`,
/// `schwarz.apply`, `mr.op`) where the batch records `block_gcrdd.solve`,
/// `schwarz.apply_multi` and `mr.op_multi`.  Each RHS of a batch is
/// bitwise equal to a solve(x, b) of it, solution and SolverStats
/// (tests/test_serve.cpp).
///
/// With `rank_grid` set, the outer operator runs through the virtual
/// cluster per RHS (the overlap schedule is per-field), while the comm-free
/// Schwarz preconditioner stays natively batched — the same split the
/// paper's multi-GPU practice implies, where the Dirichlet-cut
/// preconditioner is the comms-free bulk of the work.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dirac/even_odd.h"
#include "dirac/partitioned_schur.h"
#include "dirac/twisted_mass.h"
#include "fields/precision.h"
#include "lattice/partition.h"
#include "solvers/block_task_schwarz.h"
#include "solvers/gcr.h"

namespace lqcd {

struct GcrDdParams {
  double mass = -0.2;
  double tol = 1e-5;           ///< relative residual (single precision regime)
  int kmax = 16;
  /// Algorithm 1 early-restart threshold.  Deliberately looser than the
  /// general-purpose GcrParams::delta = 0.1 (solvers/gcr.h): with the
  /// Krylov space stored in emulated half precision, the iterated residual
  /// drifts from the true residual faster, so restarting already on a 4x
  /// in-cycle drop (rather than 10x) recomputes the true residual more
  /// often and keeps the half-precision trajectory honest (§8.1).
  double delta = 0.25;
  int max_iter = 2000;
  MrParams mr{10, 1.0};        ///< paper: 10 MR steps in the preconditioner
  std::array<int, kNDim> block_grid{1, 1, 1, 2};  ///< Schwarz domains (= GPUs)
  bool half_preconditioner = true;  ///< run K in emulated half precision
  bool half_krylov = true;          ///< store the Krylov space in half

  /// Twisted-mass term i*mu*gamma5*tau3 (dirac/twisted_mass.h): when
  /// nonzero, the twist is folded into the solver's single-precision
  /// clover copy, so the outer Schur operator and the Dirichlet-cut
  /// Schwarz preconditioner run the twisted action at every batch width
  /// with no further changes.  `twist_flavor` (+1/-1) selects the flavor
  /// of the degenerate doublet (tau3 eigenvalue).
  double twisted_mu = 0.0;
  int twist_flavor = +1;

  /// When set, the *outer* Schur operator runs through the virtual-cluster
  /// partitioned dslash on this rank grid (ghost exchange + interior /
  /// exterior overlap, honoring LQCD_RANK_MODE).  The Schwarz
  /// preconditioner stays block-local (Dirichlet cuts need no comms).
  /// Under an active FaultPlan (fault/fault.h) the exchanges repair
  /// injected faults transparently, and GCR rolls back to the last
  /// reliable update whenever a repair is reported
  /// (SolverStats::rollbacks, metric `solver.rollbacks`).
  std::optional<std::array<int, kNDim>> rank_grid;
};

/// GCR-DD solver for the Wilson-clover system M x = b on the full lattice,
/// one RHS or a batch at a time.  The clover field may be null (plain
/// Wilson).
/// \throws std::invalid_argument if a Schwarz block extent is odd.
class GcrDdWilsonSolver {
 public:
  GcrDdWilsonSolver(const GaugeField<double>& u,
                    const CloverField<double>* clover, GcrDdParams params)
      : params_(params), u_single_(convert_gauge<float>(u)) {
    // Every operator keeps what it needs of the clover term (its diagonal
    // blocks), so the single-precision copy lives only while they are built.
    const std::optional<CloverField<float>> clover_single =
        single_clover(u.geometry(), clover, params);
    const CloverField<float>* a = clover_single ? &*clover_single : nullptr;
    if (params.rank_grid) {
      op_part_ = std::make_unique<PartitionedWilsonCloverSchur<float>>(
          Partitioning(u.geometry(), *params.rank_grid), *u_single_, a,
          params.mass);
    } else {
      op_ = std::make_unique<WilsonCloverSchurOperator<float>>(*u_single_, a,
                                                               params.mass);
    }
    // The block hops keep their own copy of the links, so the half
    // round-tripped gauge field of a half preconditioner lives only while
    // they are built.
    std::optional<GaugeField<float>> u_half;
    if (params.half_preconditioner) {
      u_half.emplace(*u_single_);
      half_roundtrip(*u_half);
    }
    precond_ = std::make_unique<BlockTaskSchwarzPreconditioner<float>>(
        u_half ? *u_half : *u_single_, a, params.mass, params.block_grid,
        params.mr, store(params.half_preconditioner));
    // The partitioned operator holds its own per-rank links; only the
    // single-domain operator keeps pointing at these.
    if (op_part_) u_single_.reset();
  }

  /// Solves M x = b (both on the full lattice, double precision I/O): the
  /// width-1 call, with the outer operator and the Schwarz served per RHS.
  /// Returns GCR stats; the final residual reported is the true
  /// single-precision Schur residual.  `inner_iterations` counts the MR
  /// steps of this solve only: the driver adds `mr.steps` per
  /// preconditioner apply.
  SolverStats solve(WilsonField<double>& x, const WilsonField<double>& b) {
    ScopedSpan span("gcrdd.solve");
    metric_counter("solver.gcrdd.solves").add();
    const PerRhsMultiOperator<WilsonField<float>> m(schur_operator());
    const PerRhsPreconditioner<WilsonField<float>> k(*precond_,
                                                     params_.mr.steps);
    return run(m, k, {&x}, {&b}, nullptr)[0];
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
    ScopedSpan span("block_gcrdd.solve");
    metric_counter("solver.gcrdd.solves").add(xs.size());
    if (op_part_) {
      return run(PerRhsMultiOperator<WilsonField<float>>(*op_part_),
                 *precond_, xs, bs, ckpt);
    }
    return run(*op_, *precond_, xs, bs, ckpt);
  }

  const LinearOperator<WilsonField<float>>& schur_operator() const {
    if (op_part_) return *op_part_;
    return *op_;
  }
  /// Non-null iff `rank_grid` was set: exposes the cluster operator's
  /// traffic meters and partitioning for inspection.
  const PartitionedWilsonCloverSchur<float>* partitioned_operator() const {
    return op_part_.get();
  }
  /// The Schwarz preconditioner (its comms-off block hops' traffic meters
  /// and MR-step tally).
  const BlockTaskSchwarzPreconditioner<float>& preconditioner() const {
    return *precond_;
  }

 private:
  /// The single-precision clover copy.  With a twisted-mass term,
  /// i*mu*gamma5 is folded into it (an empty clover is materialized for
  /// plain twisted Wilson — see dirac/twisted_mass.h for the chiral-block
  /// encoding), so every operator built from it runs the twisted action.
  static std::optional<CloverField<float>> single_clover(
      const LatticeGeometry& g, const CloverField<double>* clover,
      const GcrDdParams& p) {
    std::optional<CloverField<float>> a;
    if (clover != nullptr) a = convert_clover<float>(*clover);
    if (p.twisted_mu != 0.0) {
      if (!a.has_value()) a.emplace(g);
      for (std::int64_t s = 0; s < g.volume(); ++s) {
        add_twist(a->at(s), static_cast<float>(p.twisted_mu), p.twist_flavor);
      }
    }
    return a;
  }

  /// Emulated half-precision storage of a Schur-system field when \p half
  /// is set, none otherwise.  Schur-system fields keep the odd checkerboard
  /// zero, so truncating only the even half is bitwise identical (see
  /// precision.h).
  static std::function<void(WilsonField<float>&)> store(bool half) {
    if (!half) return nullptr;
    return [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };
  }

  /// The body of both solves: converts and prepares each source, runs the
  /// GCR driver on the Schur system with outer operator \p m and the
  /// Schwarz as \p k, and reconstructs each solution.  A kill-captured
  /// batch returns its partial stats; the iterates live in the checkpoint,
  /// so the output fields are left untouched.
  std::vector<SolverStats> run(
      const MultiRhsOperator<WilsonField<float>>& m,
      const BlockPreconditioner<WilsonField<float>>& k,
      const std::vector<WilsonField<double>*>& xs,
      const std::vector<const WilsonField<double>*>& bs,
      BlockGcrCheckpointIo<WilsonField<float>>* ckpt) {
    const std::size_t n = xs.size();
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

    GcrParams gp;
    gp.tol = params_.tol;
    gp.kmax = params_.kmax;
    gp.delta = params_.delta;
    gp.max_iter = params_.max_iter;
    std::vector<SolverStats> stats = block_gcr_solve(
        m, x_ptr, b_hat_ptr, &k, gp, store(params_.half_krylov), ckpt);
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

  GcrDdParams params_;
  /// The single-precision links; released once built with a rank grid.
  std::optional<GaugeField<float>> u_single_;
  std::unique_ptr<WilsonCloverSchurOperator<float>> op_;
  std::unique_ptr<PartitionedWilsonCloverSchur<float>> op_part_;
  std::unique_ptr<BlockTaskSchwarzPreconditioner<float>> precond_;
};

/// The batched solver's former name.  perfbench's serve workload still
/// spells it; it goes with the next benchmark change.
using MultiRhsGcrDdWilsonSolver = GcrDdWilsonSolver;

}  // namespace lqcd
