#pragma once
/// \file mixed_cg.h
/// \brief Mixed-precision defect-correction CG: the sequential refinement
/// stage of the paper's staggered strategy (§8.2) — a high-precision outer
/// loop recomputing the true residual, with CG solving the correction
/// equation in low precision.

#include <cmath>

#include "dirac/operator.h"
#include "fields/blas.h"
#include "solvers/cg.h"

namespace lqcd {

struct MixedCgParams {
  double tol = 1e-10;       ///< outer (true-residual) target
  double inner_tol = 1e-4;  ///< relative reduction per inner solve
  int inner_max_iter = 2000;
  int max_outer = 50;
};

/// Solves A x = b with A Hermitian positive definite; \p x is refined in
/// place (a warm start from the single-precision multi-shift solve is the
/// intended use).  \p down/up convert fields between the outer and inner
/// precisions.
template <typename FieldHigh, typename FieldLow, typename Down, typename Up>
SolverStats mixed_cg_solve(const LinearOperator<FieldHigh>& a_high,
                           const LinearOperator<FieldLow>& a_low, FieldHigh& x,
                           const FieldHigh& b, const MixedCgParams& params,
                           Down&& down, Up&& up) {
  SolverStats stats;
  const double b2 = norm2(b);
  if (b2 == 0) {
    set_zero(x);
    stats.converged = true;
    return stats;
  }
  FieldHigh r(a_high.geometry());
  FieldHigh tmp(a_high.geometry());
  for (int outer = 0; outer < params.max_outer; ++outer) {
    a_high.apply(tmp, x);
    ++stats.matvecs;
    const double r2 = xmy_norm2(b, tmp, r);  // r = b - A x
    stats.final_residual = std::sqrt(r2 / b2);
    if (stats.final_residual <= params.tol) {
      stats.converged = true;
      return stats;
    }
    FieldLow r_low = down(r);
    FieldLow e_low(a_low.geometry());
    set_zero(e_low);
    CgParams inner;
    inner.tol = params.inner_tol;
    inner.max_iter = params.inner_max_iter;
    const SolverStats s = cg_solve(a_low, e_low, r_low, inner);
    stats.inner_iterations += s.iterations;
    stats.matvecs += s.matvecs;
    axpy(1.0, up(e_low), x);
    ++stats.iterations;
    ++stats.restarts;
  }
  // max_outer ran out: the last residual above predates the last
  // correction, so report the true residual of the returned x.
  a_high.apply(tmp, x);
  ++stats.matvecs;
  stats.final_residual = std::sqrt(xmy_norm2(b, tmp, r) / b2);
  stats.converged = stats.final_residual <= params.tol;
  return stats;
}

}  // namespace lqcd
