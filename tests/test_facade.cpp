// High-level API: both Wilson solver stacks and the staggered multi-shift
// path through the public facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "comm/counters.h"
#include "core/facade.h"
#include "dirac/staggered.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"

namespace lqcd {
namespace {

TEST(Facade, WilsonCloverGcrDd) {
  const LatticeGeometry g({4, 4, 4, 8});
  GaugeField<double> u = hot_gauge(g, 161);
  HeatbathParams hb;
  hb.beta = 6.0;
  thermalize(u, hb, 2);

  const WilsonField<double> b = gaussian_wilson_source(g, 162);
  WilsonField<double> x(g);
  WilsonSolveRequest req;
  req.mass = 0.1;
  req.csw = 1.0;
  req.tol = 1e-5;
  req.kind = WilsonSolverKind::GcrDd;
  req.block_grid = {1, 1, 1, 2};
  const WilsonSolveOutcome out = solve_wilson_clover(u, b, x, req);
  EXPECT_TRUE(out.stats.converged);
  EXPECT_LT(out.true_residual, 5e-5);
}

TEST(Facade, WilsonCloverMixedBiCgStab) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = weak_gauge(g, 163, 0.4);
  const WilsonField<double> b = gaussian_wilson_source(g, 164);
  WilsonField<double> x(g);
  WilsonSolveRequest req;
  req.mass = 0.15;
  req.csw = 1.0;
  req.tol = 1e-8;
  req.kind = WilsonSolverKind::MixedBiCgStab;
  const WilsonSolveOutcome out = solve_wilson_clover(u, b, x, req);
  EXPECT_TRUE(out.stats.converged);
  EXPECT_LT(out.true_residual, 1e-7);
}

TEST(Facade, BothSolversAgree) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = weak_gauge(g, 165, 0.3);
  const WilsonField<double> b = gaussian_wilson_source(g, 166);

  WilsonSolveRequest req;
  req.mass = 0.2;
  req.csw = 1.0;
  req.tol = 1e-6;
  WilsonField<double> x1(g), x2(g);
  req.kind = WilsonSolverKind::GcrDd;
  req.block_grid = {1, 1, 1, 2};
  solve_wilson_clover(u, b, x1, req);
  req.kind = WilsonSolverKind::MixedBiCgStab;
  solve_wilson_clover(u, b, x2, req);
  axpy(-1.0, x2, x1);
  EXPECT_LT(std::sqrt(norm2(x1) / norm2(x2)), 1e-4);
}

TEST(Facade, StaggeredMultishiftThroughThinLinks) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 167);
  StaggeredField<double> b = gaussian_staggered_source(g, 168);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  StaggeredSolveRequest req;
  req.mass = 0.1;
  req.shifts = {0.0, 0.1};
  req.tol = 1e-9;
  const StaggeredMultishiftResult result =
      solve_staggered_multishift(u, b, req);
  ASSERT_EQ(result.solutions.size(), 2u);

  // Verify against operators built from the same smearing path.
  const AsqtadLinks links = build_asqtad_links(u, req.coefficients);
  for (std::size_t i = 0; i < req.shifts.size(); ++i) {
    StaggeredSchurOperator<double> op(links.fat, links.lng, req.mass,
                                      req.shifts[i]);
    StaggeredField<double> r(g);
    op.apply(r, result.solutions[i]);
    scale(-1.0, r);
    axpy(1.0, b, r);
    EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-8);
  }
}

TEST(Facade, DistributedSolveMatchesSingleDomain) {
  const LatticeGeometry g({4, 4, 4, 8});
  GaugeField<double> u = hot_gauge(g, 171);
  HeatbathParams hb;
  hb.beta = 6.0;
  thermalize(u, hb, 2);
  const WilsonField<double> b = gaussian_wilson_source(g, 172);

  WilsonSolveRequest req;
  req.mass = 0.1;
  req.csw = 1.0;
  req.tol = 1e-6;
  req.block_grid = {1, 1, 2, 2};

  WilsonField<double> x_dist(g);
  const std::uint64_t bytes_before = exchange_counters_snapshot().total_bytes();
  const DistributedSolveOutcome dist =
      solve_wilson_clover_distributed(u, b, x_dist, req, {1, 1, 2, 2});
  const std::uint64_t bytes_after = exchange_counters_snapshot().total_bytes();
  EXPECT_TRUE(dist.stats.converged);
  EXPECT_LT(dist.true_residual, 1e-5);
  EXPECT_EQ(dist.precond_ghost_bytes, 0u);   // Schwarz is communication-free
  EXPECT_GT(dist.outer_ghost_bytes, 0u);
  EXPECT_GT(dist.gauge_ghost_bytes, 0u);
  // Every byte the call exchanged is the outer operator's: the Schwarz
  // preconditioner exchanges nothing.
  EXPECT_EQ(bytes_after - bytes_before,
            dist.outer_ghost_bytes + dist.gauge_ghost_bytes);

  // The distributed solve is the GCR-DD solver with one Schwarz block per
  // virtual GPU, bit for bit.
  GcrDdParams p;
  p.mass = req.mass;
  p.tol = req.tol;
  p.kmax = req.kmax;
  p.delta = req.delta;
  p.mr.steps = req.mr_steps;
  p.block_grid = {1, 1, 2, 2};
  p.rank_grid = {{1, 1, 2, 2}};
  const CloverField<double> a = build_clover_field(u, req.csw);
  GcrDdWilsonSolver direct(u, &a, p);
  WilsonField<double> x_direct(g);
  const SolverStats s = direct.solve(x_direct, b);
  EXPECT_EQ(dist.stats.iterations, s.iterations);
  EXPECT_EQ(dist.stats.matvecs, s.matvecs);
  EXPECT_EQ(dist.stats.restarts, s.restarts);
  EXPECT_EQ(dist.stats.inner_iterations, s.inner_iterations);
  EXPECT_EQ(dist.stats.converged, s.converged);
  EXPECT_EQ(dist.stats.final_residual, s.final_residual);
  EXPECT_EQ(dist.stats.residual_history, s.residual_history);
  EXPECT_EQ(std::memcmp(x_dist.sites().data(), x_direct.sites().data(),
                        x_dist.sites().size_bytes()),
            0);

  WilsonField<double> x_single(g);
  req.kind = WilsonSolverKind::GcrDd;
  const WilsonSolveOutcome single = solve_wilson_clover(u, b, x_single, req);
  EXPECT_TRUE(single.stats.converged);
  WilsonField<double> diff = x_dist;
  axpy(-1.0, x_single, diff);
  EXPECT_LT(std::sqrt(norm2(diff) / norm2(x_single)), 1e-4);
}

TEST(Facade, ResidualHelperConsistent) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = weak_gauge(g, 169, 0.2);
  const WilsonField<double> b = gaussian_wilson_source(g, 170);
  WilsonField<double> x(g);
  set_zero(x);
  // Zero guess: residual = 1 exactly.
  EXPECT_NEAR(wilson_clover_residual(u, 0.1, 1.0, x, b), 1.0, 1e-12);
}

}  // namespace
}  // namespace lqcd
