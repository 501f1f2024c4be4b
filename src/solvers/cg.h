#pragma once
/// \file cg.h
/// \brief Conjugate gradients for Hermitian positive definite systems —
/// the staggered workhorse (§3.1) and, through the normal equations, the
/// CGNE/CGNR fallback for Wilson-type systems.

#include <cmath>
#include <functional>

#include "dirac/operator.h"
#include "fields/blas.h"
#include "solvers/solver_stats.h"

namespace lqcd {

struct CgParams {
  double tol = 1e-8;   ///< relative residual target |r|/|b|
  int max_iter = 5000;
  /// Recompute the true residual every N iterations (0 = never): guards the
  /// recursion against drift in low precision.
  int reliable_every = 0;
};

/// Solves A x = b by CG.  \p x is used as the initial guess.
template <typename Field>
SolverStats cg_solve(const LinearOperator<Field>& a, Field& x, const Field& b,
                     const CgParams& params = {}) {
  SolverStats stats;
  const double b2 = norm2(b);
  if (b2 == 0) {
    set_zero(x);
    stats.converged = true;
    return stats;
  }
  Field r(a.geometry());
  Field p(a.geometry());
  Field ap(a.geometry());

  a.apply(ap, x);
  ++stats.matvecs;
  double rr = xmy_norm2(b, ap, r);  // r = b - A x
  copy(p, r);

  const double target2 = params.tol * params.tol * b2;

  while (rr > target2 && stats.iterations < params.max_iter) {
    a.apply(ap, p);
    ++stats.matvecs;
    const double pap = dot(p, ap).real();
    if (pap <= 0) break;  // loss of positive definiteness (breakdown)
    const double alpha = rr / pap;
    double rr_new = 0;
    if (params.reliable_every > 0 &&
        (stats.iterations + 1) % params.reliable_every == 0) {
      axpy(alpha, p, x);
      a.apply(ap, x);
      ++stats.matvecs;
      rr_new = xmy_norm2(b, ap, r);
      ++stats.restarts;
    } else {
      // x += alpha p and r -= alpha ap, with |r|^2, in one pass.
      rr_new = cg_update_norm2({alpha}, {&p}, {&x}, -alpha, ap, r);
    }
    xpay(r, rr_new / rr, p);
    rr = rr_new;
    ++stats.iterations;
  }
  stats.final_residual = std::sqrt(rr / b2);
  stats.converged = rr <= target2;
  return stats;
}

}  // namespace lqcd
