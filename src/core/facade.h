#pragma once
/// \file facade.h
/// \brief High-level entry points — the "QUDA interface" of this library.
/// Applications hand over a thin gauge configuration and a source; the
/// facade builds the derived fields (clover term, asqtad fat/long links),
/// selects and configures the solver stack, and reports true residuals.

#include <optional>

#include "core/gcr_dd.h"
#include "core/mixed_bicgstab.h"
#include "core/staggered_multishift.h"
#include "gauge/staggered_links.h"

namespace lqcd {

enum class WilsonSolverKind {
  MixedBiCgStab,  ///< baseline: even-odd mixed-precision BiCGstab
  GcrDd,          ///< headline: domain-decomposed mixed-precision GCR
};

struct WilsonSolveRequest {
  double mass = -0.2;
  double csw = 1.0;  ///< clover coefficient; 0 disables the clover term
  double tol = 1e-5;
  WilsonSolverKind kind = WilsonSolverKind::GcrDd;
  /// Schwarz block grid for GCR-DD (the virtual GPU grid).
  std::array<int, kNDim> block_grid{1, 1, 1, 2};
  int mr_steps = 10;
  int kmax = 16;
  double delta = 0.25;
};

struct WilsonSolveOutcome {
  SolverStats stats;
  double true_residual = 0;  ///< double-precision |b - M x| / |b|
};

/// Solves the Wilson-clover system M x = b on the full lattice.
WilsonSolveOutcome solve_wilson_clover(const GaugeField<double>& u,
                                       const WilsonField<double>& b,
                                       WilsonField<double>& x,
                                       const WilsonSolveRequest& req);

/// Outcome of a distributed (virtual-cluster) solve, including the
/// communication record of both operator roles.
struct DistributedSolveOutcome {
  SolverStats stats;
  double true_residual = 0;
  std::uint64_t outer_ghost_bytes = 0;    ///< exchanged by the outer solver
  std::uint64_t precond_ghost_bytes = 0;  ///< must be 0 (Schwarz is comm-free)
  /// One-time link halo of the outer operator (the comms-off Dirichlet
  /// operator exchanges none).
  std::uint64_t gauge_ghost_bytes = 0;
};

/// The paper's production configuration end to end on the virtual cluster:
/// even-odd preconditioned Wilson-clover through the multi-dimensionally
/// partitioned stencil over \p gpu_grid ranks, GCR outer solver, additive
/// Schwarz preconditioner on the communications-off operator.
DistributedSolveOutcome solve_wilson_clover_distributed(
    const GaugeField<double>& u, const WilsonField<double>& b,
    WilsonField<double>& x, const WilsonSolveRequest& req,
    std::array<int, kNDim> gpu_grid);

struct StaggeredSolveRequest {
  double mass = 0.05;
  std::vector<double> shifts{0.0, 0.01, 0.05, 0.25};
  double tol = 1e-10;
  AsqtadCoefficients coefficients{};
};

/// Builds the asqtad links from the thin field \p u and runs the two-stage
/// multi-shift solve of (M^dag M + sigma_i) x_i = b on the even
/// checkerboard.
StaggeredMultishiftResult solve_staggered_multishift(
    const GaugeField<double>& u, const StaggeredField<double>& b_even,
    const StaggeredSolveRequest& req);

/// |b - M x| / |b| for the Wilson-clover operator in double precision.
double wilson_clover_residual(const GaugeField<double>& u, double mass,
                              double csw, const WilsonField<double>& x,
                              const WilsonField<double>& b);

}  // namespace lqcd
