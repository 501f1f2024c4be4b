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
/// Both this solver and its batched twin (core/block_gcr_dd.h) run the one
/// GCR driver of solvers/gcr.h, this one at width 1, with the same
/// block-task Schwarz preconditioner, and share their set-up helpers
/// (detail::gcr_dd_clover, gcr_dd_outer_params, gcr_dd_store,
/// gcr_dd_schwarz).

#include <array>
#include <functional>
#include <memory>
#include <optional>

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
  /// clover copy, so the outer Schur operator, the Dirichlet-cut Schwarz
  /// preconditioner, and the multi-RHS batch path all run the twisted
  /// action with no further changes.  `twist_flavor` (+1/-1) selects the
  /// flavor of the degenerate doublet (tau3 eigenvalue).
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

namespace detail {

/// The GCR-DD solvers' single-precision clover copy.  With a twisted-mass
/// term, i*mu*gamma5 is folded into it (an empty clover is materialized
/// for plain twisted Wilson — see dirac/twisted_mass.h for the chiral-block
/// encoding), so every operator built from it runs the twisted action.
inline std::optional<CloverField<float>> gcr_dd_clover(
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

/// The outer GCR settings of a GCR-DD solve.
inline GcrParams gcr_dd_outer_params(const GcrDdParams& p) {
  GcrParams gp;
  gp.tol = p.tol;
  gp.kmax = p.kmax;
  gp.delta = p.delta;
  gp.max_iter = p.max_iter;
  return gp;
}

/// Emulated half-precision storage of a Schur-system field when \p half is
/// set, none otherwise.  Schur-system fields keep the odd checkerboard
/// zero, so truncating only the even half is bitwise identical (see
/// precision.h).
inline std::function<void(WilsonField<float>&)> gcr_dd_store(bool half) {
  if (!half) return nullptr;
  return [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };
}

/// The block-task Schwarz preconditioner of a GCR-DD solve on the
/// single-precision links \p u and clover \p a.  The block hops keep
/// their own copy of the links, so the half round-tripped gauge field of
/// a half preconditioner lives only while they are built.
/// \throws std::invalid_argument if a Schwarz block extent is odd.
inline std::unique_ptr<BlockTaskSchwarzPreconditioner<float>> gcr_dd_schwarz(
    const GaugeField<float>& u, const CloverField<float>* a,
    const GcrDdParams& p) {
  std::optional<GaugeField<float>> u_half;
  if (p.half_preconditioner) {
    u_half.emplace(u);
    half_roundtrip(*u_half);
  }
  return std::make_unique<BlockTaskSchwarzPreconditioner<float>>(
      u_half ? *u_half : u, a, p.mass, p.block_grid, p.mr,
      gcr_dd_store(p.half_preconditioner));
}

}  // namespace detail

/// GCR-DD solver for the Wilson-clover system M x = b on the full lattice.
/// The clover field may be null (plain Wilson).
/// \throws std::invalid_argument if a Schwarz block extent is odd.
class GcrDdWilsonSolver {
 public:
  GcrDdWilsonSolver(const GaugeField<double>& u,
                    const CloverField<double>* clover, GcrDdParams params)
      : params_(params), u_single_(convert_gauge<float>(u)),
        clover_single_(detail::gcr_dd_clover(u.geometry(), clover, params)) {
    const CloverField<float>* a = clover_single_ ? &*clover_single_ : nullptr;
    if (params.rank_grid) {
      op_part_ = std::make_unique<PartitionedWilsonCloverSchur<float>>(
          Partitioning(u.geometry(), *params.rank_grid), u_single_, a,
          params.mass);
    } else {
      op_ = std::make_unique<WilsonCloverSchurOperator<float>>(u_single_, a,
                                                               params.mass);
    }
    precond_ = detail::gcr_dd_schwarz(u_single_, a, params);
  }

  /// Solves M x = b (both on the full lattice, double precision I/O).
  /// Returns GCR stats; the final residual reported is the true
  /// single-precision Schur residual.  `inner_iterations` counts the MR
  /// steps of this solve only: the driver adds `mr.steps` per
  /// preconditioner apply.
  SolverStats solve(WilsonField<double>& x, const WilsonField<double>& b) {
    ScopedSpan span("gcrdd.solve");
    metric_counter("solver.gcrdd.solves").add();
    WilsonField<float> b_f = convert_field<float>(b);
    WilsonField<float> b_hat(b.geometry());
    if (op_part_) {
      op_part_->prepare_source(b_hat, b_f);
    } else {
      op_->prepare_source(b_hat, b_f);
    }

    WilsonField<float> x_f(b.geometry());
    set_zero(x_f);
    const PerRhsMultiOperator<WilsonField<float>> m(schur_operator());
    const PerRhsPreconditioner<WilsonField<float>> k(*precond_,
                                                     params_.mr.steps);
    SolverStats stats = block_gcr_solve<WilsonField<float>>(
        m, {&x_f}, {&b_hat}, &k, detail::gcr_dd_outer_params(params_),
        detail::gcr_dd_store(params_.half_krylov))[0];

    if (op_part_) {
      op_part_->reconstruct_solution(x_f, b_f);
    } else {
      op_->reconstruct_solution(x_f, b_f);
    }
    x = convert_field<double>(x_f);
    return stats;
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

 private:
  GcrDdParams params_;
  GaugeField<float> u_single_;
  std::optional<CloverField<float>> clover_single_;
  std::unique_ptr<WilsonCloverSchurOperator<float>> op_;
  std::unique_ptr<PartitionedWilsonCloverSchur<float>> op_part_;
  std::unique_ptr<BlockTaskSchwarzPreconditioner<float>> precond_;
};

}  // namespace lqcd
