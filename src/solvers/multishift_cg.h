#pragma once
/// \file multishift_cg.h
/// \brief Multi-shift (multi-mass) conjugate gradients (Jegerlehner,
/// ref. [12] of the paper): solves (A + sigma_i) x_i = b for all shifts
/// simultaneously in the iteration count of the smallest shift, exploiting
/// the shift invariance of Krylov spaces (§3.1, Eq. (4)).
///
/// Restrictions the paper discusses (§8.2) are inherent: no restarts and
/// hence no mixed precision inside the multi-shift iteration; large memory
/// footprint (a solution and direction vector per shift); heavy BLAS-1
/// load.  The production strategy wraps this with sequential
/// mixed-precision refinement (core/staggered_multishift.h).

#include <algorithm>
#include <cmath>
#include <vector>

#include "dirac/operator.h"
#include "fields/blas.h"
#include "solvers/solver_stats.h"

namespace lqcd {

struct MultishiftParams {
  double tol = 1e-6;   ///< relative residual target for every shift
  int max_iter = 5000;
};

/// Result per shift.
struct ShiftResult {
  double sigma = 0;
  double final_residual = 0;
  bool converged = false;
};

/// Solves (A + sigma_i) x_i = b, i = 0..N-1, from zero initial guesses.
/// \p shifts must be non-negative with A positive definite; they are
/// internally rebased on the smallest shift for stability.
/// \p xs must be presized: one field per shift.
template <typename Field>
SolverStats multishift_cg_solve(const LinearOperator<Field>& a,
                                std::vector<Field>& xs,
                                const std::vector<double>& shifts,
                                const Field& b,
                                const MultishiftParams& params,
                                std::vector<ShiftResult>* per_shift = nullptr) {
  SolverStats stats;
  const std::size_t ns = shifts.size();
  const double b2 = norm2(b);
  if (per_shift != nullptr) {
    per_shift->assign(ns, {});
    for (std::size_t i = 0; i < ns; ++i) (*per_shift)[i].sigma = shifts[i];
  }
  if (b2 == 0) {
    for (auto& x : xs) set_zero(x);
    stats.converged = true;
    return stats;
  }

  // Rebase on the smallest shift: solve (A') x = b with A' = A + s_min,
  // remaining shifts relative.
  const double s_min = *std::min_element(shifts.begin(), shifts.end());
  std::vector<double> rel(ns);
  for (std::size_t i = 0; i < ns; ++i) rel[i] = shifts[i] - s_min;

  const LatticeGeometry& geom = a.geometry();
  Field r(geom);
  Field p(geom);
  Field ap(geom);
  copy(r, b);
  copy(p, b);
  std::vector<Field> ps;
  ps.reserve(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    set_zero(xs[i]);
    ps.emplace_back(geom);
    copy(ps.back(), b);
  }

  // Jegerlehner recurrence state.
  std::vector<double> zeta(ns, 1.0), zeta_prev(ns, 1.0);
  std::vector<double> beta_shift(ns, 0.0);
  std::vector<bool> active(ns, true);
  double beta_prev = 1.0;  // beta_{-1}
  double alpha_prev = 0.0; // alpha_{-1}
  double rr = norm2(r);
  const double target2 = params.tol * params.tol * b2;

  // Per-iteration operands of the two fused passes, over the active shifts.
  std::vector<std::size_t> act;
  std::vector<double> x_coef, p_alpha, p_zeta;
  std::vector<const Field*> p_src;
  std::vector<Field*> x_dst, p_dst;

  while (stats.iterations < params.max_iter) {
    // ap = (A + s_min) p.
    a.apply(ap, p);
    ++stats.matvecs;
    if (s_min != 0) axpy(s_min, p, ap);

    const double pap = dot(p, ap).real();
    if (pap <= 0) break;
    const double beta = -rr / pap;  // sign convention: x -= beta p

    // Shifted coefficient recurrences.
    act.clear();
    x_coef.clear();
    p_src.clear();
    x_dst.clear();
    p_dst.clear();
    for (std::size_t i = 0; i < ns; ++i) {
      if (!active[i]) continue;
      const double zi = zeta[i];
      const double zim = zeta_prev[i];
      const double denom = beta * alpha_prev * (zim - zi) +
                           zim * beta_prev * (1.0 - rel[i] * beta);
      const double zeta_new = denom != 0 ? zi * zim * beta_prev / denom : 0.0;
      const double beta_i = zi != 0 ? beta * zeta_new / zi : 0.0;
      act.push_back(i);
      x_coef.push_back(-beta_i);  // x_i -= beta_i p_i
      p_src.push_back(&ps[i]);
      x_dst.push_back(&xs[i]);
      p_dst.push_back(&ps[i]);
      zeta_prev[i] = zi;
      zeta[i] = zeta_new;
      beta_shift[i] = beta_i;  // needed for alpha_i once alpha is known
    }

    // x_i -= beta_i p_i and r_{k+1} = r_k + beta ap, with |r_{k+1}|^2.
    const double rr_new = cg_update_norm2(x_coef, p_src, x_dst, beta, ap, r);
    const double alpha = rr_new / rr;

    p_alpha.clear();
    p_zeta.clear();
    for (const std::size_t i : act) {
      p_alpha.push_back((zeta_prev[i] != 0 && beta != 0)
                            ? alpha * zeta[i] * beta_shift[i] /
                                  (zeta_prev[i] * beta)
                            : 0.0);
      p_zeta.push_back(zeta[i]);
    }
    // p = r + alpha p and p_i = alpha_i p_i + zeta_i r.
    cg_direction_update(r, alpha, p, p_alpha, p_zeta, p_dst);

    for (const std::size_t i : act) {
      // Shifted residual norm = |zeta_i| * |r|.
      const double res2 = zeta[i] * zeta[i] * rr_new;
      if (per_shift != nullptr) {
        (*per_shift)[i].final_residual = std::sqrt(res2 / b2);
      }
      if (res2 <= target2) {
        active[i] = false;
        if (per_shift != nullptr) (*per_shift)[i].converged = true;
      }
    }

    rr = rr_new;
    beta_prev = beta;
    alpha_prev = alpha;
    ++stats.iterations;

    if (std::none_of(active.begin(), active.end(), [](bool v) { return v; })) {
      stats.converged = true;
      break;
    }
  }
  stats.final_residual = std::sqrt(rr / b2);
  return stats;
}

}  // namespace lqcd
