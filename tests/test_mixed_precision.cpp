// Mixed-precision strategies: defect-correction BiCGstab and CG reach
// double-precision accuracy with single-precision inner work, and the
// staggered two-stage multi-shift strategy refines every shift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "comm/wire.h"
#include "core/gcr_dd.h"
#include "core/mixed_bicgstab.h"
#include "core/staggered_multishift.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "solvers/mixed_cg.h"

namespace lqcd {
namespace {

TEST(MixedPrecision, BiCgStabReachesBeyondSingleAccuracy) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = weak_gauge(g, 141, 0.4);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 142);

  MixedBiCgStabParams p;
  p.mass = 0.2;
  p.tol = 1e-10;  // beyond single precision's ~1e-7
  MixedBiCgStabWilsonSolver solver(u, &a, p);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.restarts, 2);  // needs multiple defect corrections

  WilsonCloverOperator<double> m(u, &a, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-9);
}

TEST(MixedPrecision, MixedCgMatchesDoubleCg) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 143);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredSchurOperator<double> op_d(links.fat, links.lng, 0.1, 0.0);
  const GaugeField<float> fat_f = convert_gauge<float>(links.fat);
  const GaugeField<float> lng_f = convert_gauge<float>(links.lng);
  StaggeredSchurOperator<float> op_f(fat_f, lng_f, 0.1, 0.0);

  StaggeredField<double> b = gaussian_staggered_source(g, 144);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }

  StaggeredField<double> x(g);
  set_zero(x);
  MixedCgParams p;
  p.tol = 1e-11;
  const SolverStats stats = mixed_cg_solve(
      op_d, op_f, x, b, p,
      [](const StaggeredField<double>& f) { return convert_field<float>(f); },
      [](const StaggeredField<float>& f) { return convert_field<double>(f); });
  EXPECT_TRUE(stats.converged);

  StaggeredField<double> r(g);
  op_d.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-10);
}

TEST(MixedPrecision, MixedCgReportsResidualOfReturnedSolution) {
  // With max_outer = 1 the outer loop ends right after a correction; the
  // reported residual must be that of the corrected x, not the one
  // measured before it.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 147);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredSchurOperator<double> op_d(links.fat, links.lng, 0.1, 0.0);
  const GaugeField<float> fat_f = convert_gauge<float>(links.fat);
  const GaugeField<float> lng_f = convert_gauge<float>(links.lng);
  StaggeredSchurOperator<float> op_f(fat_f, lng_f, 0.1, 0.0);
  StaggeredField<double> b = gaussian_staggered_source(g, 148);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }

  StaggeredField<double> x(g);
  set_zero(x);
  MixedCgParams p;
  p.tol = 1e-11;
  p.max_outer = 1;
  const SolverStats stats = mixed_cg_solve(
      op_d, op_f, x, b, p,
      [](const StaggeredField<double>& f) { return convert_field<float>(f); },
      [](const StaggeredField<float>& f) { return convert_field<double>(f); });
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_FALSE(stats.converged);

  StaggeredField<double> r(g);
  op_d.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  const double true_residual = std::sqrt(norm2(r) / norm2(b));
  EXPECT_LT(true_residual, 1e-3);  // the one correction did its work
  EXPECT_DOUBLE_EQ(stats.final_residual, true_residual);
}

TEST(MixedPrecision, StaggeredTwoStageStrategy) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 145);
  const AsqtadLinks links = build_asqtad_links(u);

  StaggeredMultishiftParams p;
  p.mass = 0.1;
  p.shifts = {0.0, 0.05, 0.2};
  p.tol_single = 1e-5;
  p.tol_final = 1e-10;
  StaggeredMultishiftSolver solver(links.fat, links.lng, p);

  StaggeredField<double> b = gaussian_staggered_source(g, 146);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  const StaggeredMultishiftResult result = solver.solve(b);
  ASSERT_EQ(result.solutions.size(), p.shifts.size());

  for (std::size_t i = 0; i < p.shifts.size(); ++i) {
    EXPECT_TRUE(result.refines[i].converged) << "shift " << p.shifts[i];
    StaggeredSchurOperator<double> op(links.fat, links.lng, p.mass,
                                      p.shifts[i]);
    StaggeredField<double> r(g);
    op.apply(r, result.solutions[i]);
    scale(-1.0, r);
    axpy(1.0, b, r);
    EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-9) << "shift " << p.shifts[i];
  }

  // The warm start must make refinement cheap relative to the single stage.
  for (const auto& refine : result.refines) {
    EXPECT_LT(refine.inner_iterations, 3 * result.multishift.iterations + 50);
  }
}

TEST(MixedPrecision, GcrDdWithHalfGhostWireReachesOuterTolerance) {
  // The full mixed-precision stack with compressed ghosts: a double
  // precision system solved by the single-precision GCR-DD engine over a
  // partitioned cluster whose ghost faces travel in HALF precision
  // (LQCD_GHOST_PREC=half, comm/wire.h).
  //
  // What to gate on: NOT the iterate bits.  The half wire quantizes every
  // exchanged face (relative error ~1/32767 per site), so each operator
  // application — and with it the whole Krylov trajectory — differs from
  // the uncompressed run from the first iteration on.  What the
  // compression must NOT change is what the solver promises: the returned
  // x solves the original double-precision system to the outer tolerance.
  // We therefore gate on the final true residual, measured against the
  // exact (uncompressed, double) operator.  The 5e-5 bound is the same
  // slack the uncompressed GcrDd convergence test grants a 1e-5 single
  // precision inner target; the per-application quantization error (~3e-5
  // on face terms only, ~1/8 of the stencil) sits below that slack, so no
  // extra tolerance is needed for the compression.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = weak_gauge(g, 151, 0.4);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 152);

  const char* prev = std::getenv("LQCD_GHOST_PREC");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("LQCD_GHOST_PREC", "half", 1);
  init_ghost_prec_from_env();

  GcrDdParams p;
  p.mass = 0.2;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 1, 2}};  // partitioned: ghosts actually on the wire
  GcrDdWilsonSolver solver(u, &a, p);
  ASSERT_NE(solver.partitioned_operator(), nullptr);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);

  if (prev != nullptr) {
    setenv("LQCD_GHOST_PREC", saved.c_str(), 1);
  } else {
    unsetenv("LQCD_GHOST_PREC");
  }
  init_ghost_prec_from_env();

  EXPECT_TRUE(stats.converged);
  WilsonCloverOperator<double> m(u, &a, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);
}

TEST(MixedPrecision, ConversionRoundTripAccuracy) {
  const LatticeGeometry g({4, 4, 4, 4});
  const WilsonField<double> d = gaussian_wilson_source(g, 147);
  const WilsonField<float> f = convert_field<float>(d);
  const WilsonField<double> back = convert_field<double>(f);
  double max_err = 0;
  auto ds = d.sites();
  auto bs = back.sites();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    WilsonSpinor<double> diff = ds[i];
    diff -= bs[i];
    max_err = std::max(max_err, std::sqrt(norm2(diff) / norm2(ds[i])));
  }
  EXPECT_LT(max_err, 1e-6);  // single-precision rounding only
  EXPECT_GT(max_err, 0.0);   // but conversion genuinely happened
}

}  // namespace
}  // namespace lqcd
