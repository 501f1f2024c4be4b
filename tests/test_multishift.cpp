// Multi-shift CG: every shifted solution must match an independent
// single-shift CG solve, in the iteration count of the hardest shift.  The
// fused-pass solvers must also reproduce the one-op-per-pass loops they
// replaced bit for bit, at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/staggered_multishift.h"
#include "dirac/staggered.h"
#include "fields/blas.h"
#include "fields/precision.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "obs/metrics.h"
#include "solvers/cg.h"
#include "solvers/multishift_cg.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

struct Fixture {
  LatticeGeometry g{{4, 4, 4, 4}};
  GaugeField<double> u = hot_gauge(g, 111);
  AsqtadLinks links = build_asqtad_links(u);
  double mass = 0.1;
  StaggeredField<double> b = even_source();

  StaggeredField<double> even_source() {
    StaggeredField<double> s = gaussian_staggered_source(g, 112);
    for (std::int64_t i = g.half_volume(); i < g.volume(); ++i) {
      s.at(i) = ColorVector<double>{};
    }
    return s;
  }
};

TEST(Multishift, MatchesIndividualSolves) {
  Fixture f;
  const std::vector<double> shifts{0.0, 0.02, 0.1, 0.5};
  StaggeredSchurOperator<double> base(f.links.fat, f.links.lng, f.mass, 0.0);

  std::vector<StaggeredField<double>> xs(shifts.size(),
                                         StaggeredField<double>(f.g));
  MultishiftParams p;
  p.tol = 1e-10;
  std::vector<ShiftResult> per_shift;
  const SolverStats stats =
      multishift_cg_solve(base, xs, shifts, f.b, p, &per_shift);
  ASSERT_TRUE(stats.converged);

  for (std::size_t i = 0; i < shifts.size(); ++i) {
    EXPECT_TRUE(per_shift[i].converged) << "shift " << shifts[i];
    StaggeredSchurOperator<double> shifted(f.links.fat, f.links.lng, f.mass,
                                           shifts[i]);
    // True residual of the multishift solution.
    StaggeredField<double> r(f.g);
    shifted.apply(r, xs[i]);
    scale(-1.0, r);
    axpy(1.0, f.b, r);
    EXPECT_LT(std::sqrt(norm2(r) / norm2(f.b)), 5e-9) << "shift " << shifts[i];

    // Compare against an independent CG solve.
    StaggeredField<double> x_ref(f.g);
    set_zero(x_ref);
    CgParams cp;
    cp.tol = 1e-11;
    ASSERT_TRUE(cg_solve(shifted, x_ref, f.b, cp).converged);
    axpy(-1.0, x_ref, xs[i]);
    EXPECT_LT(std::sqrt(norm2(xs[i]) / norm2(x_ref)), 1e-7)
        << "shift " << shifts[i];
  }
}

TEST(Multishift, IterationCountThatOfSmallestShift) {
  // The multishift iteration count must be close to a plain CG solve of the
  // hardest (smallest-shift) system, not the sum over shifts.
  Fixture f;
  const std::vector<double> shifts{0.0, 0.05, 0.3};
  StaggeredSchurOperator<double> base(f.links.fat, f.links.lng, f.mass, 0.0);

  std::vector<StaggeredField<double>> xs(shifts.size(),
                                         StaggeredField<double>(f.g));
  MultishiftParams p;
  p.tol = 1e-8;
  const SolverStats multi = multishift_cg_solve(base, xs, shifts, f.b, p);

  StaggeredField<double> x(f.g);
  set_zero(x);
  CgParams cp;
  cp.tol = 1e-8;
  const SolverStats single = cg_solve(base, x, f.b, cp);

  EXPECT_LE(std::abs(multi.iterations - single.iterations), 3);
}

TEST(Multishift, LargerShiftsConvergeFaster) {
  Fixture f;
  const std::vector<double> shifts{0.0, 1.0};
  StaggeredSchurOperator<double> base(f.links.fat, f.links.lng, f.mass, 0.0);
  std::vector<StaggeredField<double>> xs(shifts.size(),
                                         StaggeredField<double>(f.g));
  MultishiftParams p;
  p.tol = 1e-9;
  std::vector<ShiftResult> per_shift;
  multishift_cg_solve(base, xs, shifts, f.b, p, &per_shift);
  // The heavily shifted system is better conditioned; its residual at exit
  // is at or below the base system's.
  EXPECT_LE(per_shift[1].final_residual, per_shift[0].final_residual * 1.01);
}

TEST(Multishift, NonZeroBaseShiftRebased) {
  // All shifts strictly positive: internal rebase on the smallest.
  Fixture f;
  const std::vector<double> shifts{0.04, 0.2};
  StaggeredSchurOperator<double> base(f.links.fat, f.links.lng, f.mass, 0.0);
  std::vector<StaggeredField<double>> xs(shifts.size(),
                                         StaggeredField<double>(f.g));
  MultishiftParams p;
  p.tol = 1e-9;
  ASSERT_TRUE(multishift_cg_solve(base, xs, shifts, f.b, p).converged);
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    StaggeredSchurOperator<double> shifted(f.links.fat, f.links.lng, f.mass,
                                           shifts[i]);
    StaggeredField<double> r(f.g);
    shifted.apply(r, xs[i]);
    scale(-1.0, r);
    axpy(1.0, f.b, r);
    EXPECT_LT(std::sqrt(norm2(r) / norm2(f.b)), 1e-8);
  }
}

TEST(Multishift, SingleShiftReducesToCg) {
  Fixture f;
  const std::vector<double> shifts{0.0};
  StaggeredSchurOperator<double> base(f.links.fat, f.links.lng, f.mass, 0.0);
  std::vector<StaggeredField<double>> xs(1, StaggeredField<double>(f.g));
  MultishiftParams p;
  p.tol = 1e-9;
  const SolverStats multi = multishift_cg_solve(base, xs, shifts, f.b, p);
  StaggeredField<double> x(f.g);
  set_zero(x);
  CgParams cp;
  cp.tol = 1e-9;
  const SolverStats single = cg_solve(base, x, f.b, cp);
  EXPECT_LE(std::abs(multi.iterations - single.iterations), 2);
  axpy(-1.0, x, xs[0]);
  EXPECT_LT(std::sqrt(norm2(xs[0])), 1e-6 * std::sqrt(norm2(x)));
}

// multishift_cg_solve as it ran before the fused passes, one BLAS op per
// pass: the bitwise reference of the fused solver.
template <typename Field>
SolverStats unfused_multishift_cg(const LinearOperator<Field>& a,
                                  std::vector<Field>& xs,
                                  const std::vector<double>& shifts,
                                  const Field& b,
                                  const MultishiftParams& params,
                                  std::vector<ShiftResult>* per_shift) {
  SolverStats stats;
  const std::size_t ns = shifts.size();
  const double b2 = norm2(b);
  per_shift->assign(ns, {});
  for (std::size_t i = 0; i < ns; ++i) (*per_shift)[i].sigma = shifts[i];
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
  std::vector<double> zeta(ns, 1.0), zeta_prev(ns, 1.0);
  std::vector<double> beta_shift(ns, 0.0);
  std::vector<bool> active(ns, true);
  double beta_prev = 1.0;
  double alpha_prev = 0.0;
  double rr = norm2(r);
  const double target2 = params.tol * params.tol * b2;
  while (stats.iterations < params.max_iter) {
    a.apply(ap, p);
    ++stats.matvecs;
    if (s_min != 0) axpy(s_min, p, ap);
    const double pap = dot(p, ap).real();
    if (pap <= 0) break;
    const double beta = -rr / pap;
    for (std::size_t i = 0; i < ns; ++i) {
      if (!active[i]) continue;
      const double zi = zeta[i];
      const double zim = zeta_prev[i];
      const double denom = beta * alpha_prev * (zim - zi) +
                           zim * beta_prev * (1.0 - rel[i] * beta);
      const double zeta_new = denom != 0 ? zi * zim * beta_prev / denom : 0.0;
      const double beta_i = zi != 0 ? beta * zeta_new / zi : 0.0;
      axpy(-beta_i, ps[i], xs[i]);
      zeta_prev[i] = zi;
      zeta[i] = zeta_new;
      beta_shift[i] = beta_i;
    }
    axpy(beta, ap, r);
    const double rr_new = norm2(r);
    const double alpha = rr_new / rr;
    xpay(r, alpha, p);
    for (std::size_t i = 0; i < ns; ++i) {
      if (!active[i]) continue;
      const double alpha_i =
          (zeta_prev[i] != 0 && beta != 0)
              ? alpha * zeta[i] * beta_shift[i] / (zeta_prev[i] * beta)
              : 0.0;
      scale(alpha_i, ps[i]);
      axpy(zeta[i], r, ps[i]);
      const double res2 = zeta[i] * zeta[i] * rr_new;
      (*per_shift)[i].final_residual = std::sqrt(res2 / b2);
      if (res2 <= target2) {
        active[i] = false;
        (*per_shift)[i].converged = true;
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

// cg_solve as it ran before the fused passes.
template <typename Field>
SolverStats unfused_cg(const LinearOperator<Field>& a, Field& x,
                       const Field& b, const CgParams& params) {
  SolverStats stats;
  const double b2 = norm2(b);
  Field r(a.geometry());
  Field p(a.geometry());
  Field ap(a.geometry());
  a.apply(ap, x);
  ++stats.matvecs;
  copy(r, b);
  axpy(-1.0, ap, r);
  copy(p, r);
  double rr = norm2(r);
  const double target2 = params.tol * params.tol * b2;
  while (rr > target2 && stats.iterations < params.max_iter) {
    a.apply(ap, p);
    ++stats.matvecs;
    const double pap = dot(p, ap).real();
    if (pap <= 0) break;
    const double alpha = rr / pap;
    axpy(alpha, p, x);
    if (params.reliable_every > 0 &&
        (stats.iterations + 1) % params.reliable_every == 0) {
      a.apply(ap, x);
      ++stats.matvecs;
      copy(r, b);
      axpy(-1.0, ap, r);
      ++stats.restarts;
    } else {
      axpy(-alpha, ap, r);
    }
    const double rr_new = norm2(r);
    xpay(r, rr_new / rr, p);
    rr = rr_new;
    ++stats.iterations;
  }
  stats.final_residual = std::sqrt(rr / b2);
  stats.converged = rr <= target2;
  return stats;
}

template <typename Site>
bool same_bits(const LatticeField<Site>& a, const LatticeField<Site>& b) {
  const auto sa = a.sites();
  const auto sb = b.sites();
  return sa.size_bytes() == sb.size_bytes() &&
         std::memcmp(sa.data(), sb.data(), sa.size_bytes()) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_stats(const SolverStats& a, const SolverStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.matvecs, b.matvecs) << where;
  EXPECT_EQ(a.restarts, b.restarts) << where;
  EXPECT_TRUE(same_bits(a.final_residual, b.final_residual)) << where;
  EXPECT_EQ(a.converged, b.converged) << where;
  EXPECT_EQ(a.inner_iterations, b.inner_iterations) << where;
  ASSERT_EQ(a.residual_history.size(), b.residual_history.size()) << where;
  for (std::size_t k = 0; k < a.residual_history.size(); ++k) {
    EXPECT_TRUE(same_bits(a.residual_history[k], b.residual_history[k]))
        << where << " history entry " << k;
  }
}

template <typename Real>
void expect_fused_multishift_matches_unfused(
    const Fixture& f, const std::vector<double>& shifts) {
  const GaugeField<Real> fat = convert_gauge<Real>(f.links.fat);
  const GaugeField<Real> lng = convert_gauge<Real>(f.links.lng);
  const StaggeredField<Real> b = convert_field<Real>(f.b);
  const StaggeredSchurOperator<Real> base(fat, lng, f.mass, 0.0);
  MultishiftParams p;
  p.tol = sizeof(Real) == 4 ? 1e-5 : 1e-10;
  const std::string where =
      "bytes/real " + std::to_string(sizeof(Real)) + ", min shift " +
      std::to_string(*std::min_element(shifts.begin(), shifts.end()));

  std::vector<StaggeredField<Real>> xs_ref(shifts.size(),
                                           StaggeredField<Real>(f.g));
  std::vector<ShiftResult> per_ref;
  const SolverStats ref =
      unfused_multishift_cg(base, xs_ref, shifts, b, p, &per_ref);

  Counter& sweeps = metric_counter("blas.sweeps");
  const std::uint64_t before = sweeps.value();
  std::vector<StaggeredField<Real>> xs(shifts.size(),
                                       StaggeredField<Real>(f.g));
  std::vector<ShiftResult> per;
  const SolverStats got = multishift_cg_solve(base, xs, shifts, b, p, &per);
  // Setup: norm2(b), two copies, one copy per shift and norm2(r); then one
  // dot and the two fused passes per iteration (one more axpy when the
  // smallest shift is not zero).
  const std::uint64_t per_iter =
      *std::min_element(shifts.begin(), shifts.end()) != 0 ? 4 : 3;
  EXPECT_EQ(sweeps.value() - before,
            4 + shifts.size() +
                per_iter * static_cast<std::uint64_t>(got.iterations))
      << where;

  expect_same_stats(got, ref, where);
  ASSERT_EQ(per.size(), per_ref.size());
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    EXPECT_TRUE(same_bits(xs[i], xs_ref[i])) << where << " shift " << i;
    EXPECT_TRUE(same_bits(per[i].sigma, per_ref[i].sigma)) << where;
    EXPECT_TRUE(same_bits(per[i].final_residual, per_ref[i].final_residual))
        << where << " shift " << i;
    EXPECT_EQ(per[i].converged, per_ref[i].converged) << where;
  }
}

TEST(MultishiftFused, BitwiseMatchesUnfusedLoop) {
  Fixture f;
  for (const auto& shifts : {std::vector<double>{0.0, 0.02, 0.1, 0.5},
                             std::vector<double>{0.04, 0.2}}) {
    expect_fused_multishift_matches_unfused<double>(f, shifts);
    expect_fused_multishift_matches_unfused<float>(f, shifts);
  }
}

TEST(MultishiftFused, CgBitwiseMatchesUnfusedLoop) {
  Fixture f;
  const StaggeredSchurOperator<double> op(f.links.fat, f.links.lng, f.mass,
                                          0.02);
  StaggeredField<double> x0 = f.even_source();
  scale(0.1, x0);  // a non-zero initial guess
  for (const int reliable : {0, 7}) {
    CgParams p;
    p.tol = 1e-10;
    p.reliable_every = reliable;
    const std::string where = "reliable_every " + std::to_string(reliable);
    StaggeredField<double> x_ref = x0;
    const SolverStats ref = unfused_cg(op, x_ref, f.b, p);

    Counter& sweeps = metric_counter("blas.sweeps");
    const std::uint64_t before = sweeps.value();
    StaggeredField<double> x = x0;
    const SolverStats got = cg_solve(op, x, f.b, p);
    if (reliable == 0) {
      // Setup: norm2(b), the residual and the copy to p; then one dot and
      // two passes per iteration.
      EXPECT_EQ(sweeps.value() - before,
                3 + 3 * static_cast<std::uint64_t>(got.iterations));
    }
    EXPECT_GT(got.iterations, 0) << where;
    expect_same_stats(got, ref, where);
    EXPECT_TRUE(same_bits(x, x_ref)) << where;
  }
}

TEST(MultishiftFused, SolverSolutionsEqualAtOneAndFourWorkers) {
  Fixture f;
  StaggeredMultishiftParams p;
  p.mass = f.mass;
  p.shifts = {0.0, 0.02, 0.1, 0.5};
  const int prev = worker_count();
  std::vector<StaggeredMultishiftResult> results;
  for (const int workers : {1, 4}) {
    set_worker_count(workers);
    StaggeredMultishiftSolver solver(f.links.fat, f.links.lng, p);
    results.push_back(solver.solve(f.b));
  }
  set_worker_count(prev);
  const auto& a = results[0];
  const auto& b = results[1];
  ASSERT_EQ(a.solutions.size(), p.shifts.size());
  ASSERT_EQ(b.solutions.size(), p.shifts.size());
  expect_same_stats(a.multishift, b.multishift, "multishift stage");
  for (std::size_t i = 0; i < p.shifts.size(); ++i) {
    EXPECT_TRUE(same_bits(a.solutions[i], b.solutions[i])) << "shift " << i;
    expect_same_stats(a.refines[i], b.refines[i],
                      "refinement " + std::to_string(i));
  }
}

}  // namespace
}  // namespace lqcd
