// Krylov solvers against the dense direct solve and structural checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "obs/metrics.h"

#include "dirac/dense_reference.h"
#include "dirac/even_odd.h"
#include "dirac/staggered.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "solvers/bicgstab.h"
#include "solvers/cg.h"
#include "solvers/gcr.h"
#include "solvers/mr.h"

namespace lqcd {
namespace {

struct WilsonSystem {
  LatticeGeometry g{{4, 4, 4, 4}};
  GaugeField<double> u = weak_gauge(g, 101, 0.3);
  double mass = 0.2;
  WilsonCloverOperator<double> m{u, nullptr, mass};
  WilsonField<double> b = gaussian_wilson_source(g, 102);

  double residual(const WilsonField<double>& x) {
    WilsonField<double> r(g);
    m.apply(r, x);
    scale(-1.0, r);
    axpy(1.0, b, r);
    return std::sqrt(norm2(r) / norm2(b));
  }
};

TEST(Solvers, BiCgStabSolvesWilson) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  BiCgStabParams p;
  p.tol = 1e-10;
  const SolverStats stats = bicgstab_solve(sys.m, x, sys.b, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(sys.residual(x), 1e-9);
  EXPECT_GT(stats.iterations, 2);
}

TEST(Solvers, BiCgStabMatchesDenseDirect) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  BiCgStabParams p;
  p.tol = 1e-12;
  ASSERT_TRUE(bicgstab_solve(sys.m, x, sys.b, p).converged);

  const DenseMatrix<double> md = dense_wilson_clover(sys.u, nullptr, sys.mass);
  const auto x_direct = LuFactorization<double>(md).solve(flatten(sys.b));
  WilsonField<double> xd(sys.g);
  unflatten(x_direct, xd);
  axpy(-1.0, xd, x);
  EXPECT_LT(std::sqrt(norm2(x) / norm2(xd)), 1e-8);
}

TEST(Solvers, GcrUnpreconditionedSolvesWilson) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  GcrParams p;
  p.tol = 1e-9;
  p.kmax = 12;
  p.delta = 0.0;  // no early restart
  const SolverStats stats = gcr_solve(sys.m, x, sys.b, nullptr, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(sys.residual(x), 1e-8);
}

TEST(Solvers, GcrRestartsAndStillConverges) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  GcrParams p;
  p.tol = 1e-9;
  p.kmax = 4;  // force frequent restarts
  const SolverStats stats = gcr_solve(sys.m, x, sys.b, nullptr, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.restarts, 0);
  EXPECT_LT(sys.residual(x), 1e-8);
}

TEST(Solvers, GcrDeltaTriggersEarlyRestart) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  GcrParams p;
  p.tol = 1e-9;
  p.kmax = 64;      // large basis...
  p.delta = 0.5;    // ...but restart on a 2x residual drop
  const SolverStats stats = gcr_solve(sys.m, x, sys.b, nullptr, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.restarts, 1);
}

TEST(Solvers, GcrConvergedCycleSkipsRedundantRestart) {
  // Regression: a cycle that ends because the iterated residual met the
  // target used to run a full restart anyway — one duplicated matvec on a
  // residual the epilogue recomputes, and a phantom entry in
  // stats.restarts.  With a basis large enough for a single cycle and the
  // delta test off, the exact accounting is pinned down: one initial
  // residual matvec, one per iteration, one final check — and no restarts.
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  GcrParams p;
  p.tol = 1e-9;
  p.kmax = 1000;  // never fills within max_iter
  p.delta = 0.0;  // no early restart
  const SolverStats stats = gcr_solve(sys.m, x, sys.b, nullptr, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.matvecs, stats.iterations + 2);
  EXPECT_LT(sys.residual(x), 1e-8);
}

TEST(Solvers, GcrFinalCheckRestartsFromTrueResidual) {
  // Half-precision stores (the GCR-DD configuration) let the iterated
  // residual drift from the true one.  One cycle runs to the target (no
  // early restart, basis never full), and the iterations do not depend on
  // tol until the stop, so tol just above the iterated residual of
  // iteration k stops the solve there.  The first k whose true residual
  // reads above that tol is the case the final check decides: with
  // iterations and restarts left, the solve must restart from the true
  // residual it just computed (Algorithm 1's reliable update, reusing the
  // check's matvec) and converge, not report converged = false.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<float> u = convert_gauge<float>(weak_gauge(g, 101, 0.3));
  const WilsonCloverOperator<float> m(u, nullptr, 0.2);
  const WilsonField<float> b =
      convert_field<float>(gaussian_wilson_source(g, 102));
  const double bnorm = std::sqrt(norm2(b));
  const std::function<void(WilsonField<float>&)> half_store =
      [](WilsonField<float>& f) { half_roundtrip(f); };
  GcrParams p;
  p.kmax = 1000;  // one cycle unless the final check restarts
  p.delta = 0.0;  // no early restart
  WilsonField<float> x(g);
  set_zero(x);
  p.tol = 1e-5;
  const std::vector<double> history =
      gcr_solve(m, x, b, nullptr, p, half_store).residual_history;
  SolverStats stats;
  double tol = 0;
  for (double h : history) {
    p.tol = h / bnorm * (1 + 1e-6);
    set_zero(x);
    stats = gcr_solve(m, x, b, nullptr, p, half_store);
    if (stats.restarts > 0 || !stats.converged) {
      tol = p.tol;
      break;
    }
  }
  ASSERT_GT(tol, 0) << "no iteration ended with a true residual above tol";
  EXPECT_GE(stats.restarts, 1);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.final_residual, tol);
  // One matvec for the initial residual, one per iteration, one per final
  // check; a restart from a final check reuses that check's matvec.
  EXPECT_EQ(stats.matvecs, stats.iterations + 2 + stats.restarts);
}

TEST(Solvers, GcrWithInitialGuess) {
  WilsonSystem sys;
  // Start from a partially converged solution.
  WilsonField<double> x(sys.g);
  set_zero(x);
  GcrParams rough;
  rough.tol = 1e-2;
  gcr_solve(sys.m, x, sys.b, nullptr, rough);
  const double r0 = sys.residual(x);
  GcrParams fine;
  fine.tol = 1e-9;
  const SolverStats stats = gcr_solve(sys.m, x, sys.b, nullptr, fine);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(sys.residual(x), r0);
}

TEST(Solvers, GcrFusedMatchesUnfusedBitwise) {
  // GcrParams::fused swaps one-op-per-pass linear algebra for the fused
  // kernels.  Both run classical Gram-Schmidt with the same per-site
  // operation order on the fixed reduction grid, so every iterate and
  // every residual-history entry must agree BITWISE — the switch only
  // changes memory traffic, never numbers.
  WilsonSystem sys;
  GcrParams p;
  p.tol = 1e-9;
  p.kmax = 12;

  WilsonField<double> x_fused(sys.g);
  set_zero(x_fused);
  p.fused = true;
  const SolverStats s_fused = gcr_solve(sys.m, x_fused, sys.b, nullptr, p);

  WilsonField<double> x_unfused(sys.g);
  set_zero(x_unfused);
  p.fused = false;
  const SolverStats s_unfused = gcr_solve(sys.m, x_unfused, sys.b, nullptr, p);

  EXPECT_TRUE(s_fused.converged);
  EXPECT_TRUE(s_unfused.converged);
  EXPECT_EQ(s_fused.iterations, s_unfused.iterations);
  EXPECT_EQ(s_fused.restarts, s_unfused.restarts);
  EXPECT_EQ(s_fused.final_residual, s_unfused.final_residual);
  ASSERT_EQ(s_fused.residual_history.size(), s_unfused.residual_history.size());
  for (std::size_t i = 0; i < s_fused.residual_history.size(); ++i) {
    EXPECT_EQ(s_fused.residual_history[i], s_unfused.residual_history[i])
        << "i=" << i;
  }
  auto sa = x_fused.sites();
  auto sb = x_unfused.sites();
  EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0);
}

TEST(Solvers, GcrFusedIterationSweepBudget) {
  // The fused-kernel arithmetic: at basis size k an iteration's
  // orthogonalization + residual update takes 4 lattice sweeps fused
  // (block_cdot, block_caxpy_norm2, scale_cdot, caxpy_norm2; 3 when k=0)
  // against 2k+5 unfused.  Both are metered into solver.gcr.iter_sweeps.
  WilsonSystem sys;
  Counter& iter_sweeps = metric_counter("solver.gcr.iter_sweeps");
  GcrParams p;
  p.tol = 1e-9;
  p.kmax = 16;

  WilsonField<double> x(sys.g);
  set_zero(x);
  p.fused = true;
  std::uint64_t before = iter_sweeps.value();
  const SolverStats s_fused = gcr_solve(sys.m, x, sys.b, nullptr, p);
  const std::uint64_t fused_sweeps = iter_sweeps.value() - before;
  ASSERT_GT(s_fused.iterations, 1);
  EXPECT_LE(fused_sweeps,
            4u * static_cast<std::uint64_t>(s_fused.iterations));

  set_zero(x);
  p.fused = false;
  before = iter_sweeps.value();
  const SolverStats s_unfused = gcr_solve(sys.m, x, sys.b, nullptr, p);
  const std::uint64_t unfused_sweeps = iter_sweeps.value() - before;
  // Same iteration count (bitwise-identical trajectories), strictly more
  // memory passes once any iteration ran with k > 0.
  EXPECT_EQ(s_unfused.iterations, s_fused.iterations);
  EXPECT_GT(unfused_sweeps, fused_sweeps);
}

TEST(Solvers, CgSolvesStaggeredSchur) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 103);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredSchurOperator<double> schur(links.fat, links.lng, 0.1, 0.0);
  StaggeredField<double> b = gaussian_staggered_source(g, 104);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  StaggeredField<double> x(g);
  set_zero(x);
  CgParams p;
  p.tol = 1e-10;
  const SolverStats stats = cg_solve(schur, x, b, p);
  EXPECT_TRUE(stats.converged);
  StaggeredField<double> r(g);
  schur.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-9);
}

TEST(Solvers, CgNormalEquationsSolveWilson) {
  // CGNE via the gamma5 trick: solve M^dag M y = M^dag b.
  WilsonSystem sys;
  WilsonNormalOperator<double> n(sys.m);
  // rhs = M^dag b = g5 M g5 b.
  WilsonField<double> rhs = sys.b;
  apply_gamma5_field(rhs);
  WilsonField<double> tmp(sys.g);
  sys.m.apply(tmp, rhs);
  rhs = tmp;
  apply_gamma5_field(rhs);

  WilsonField<double> x(sys.g);
  set_zero(x);
  CgParams p;
  p.tol = 1e-10;
  p.max_iter = 10000;
  const SolverStats stats = cg_solve(n, x, rhs, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(sys.residual(x), 1e-7);
}

TEST(Solvers, CgReliableUpdates) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 105);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredSchurOperator<double> schur(links.fat, links.lng, 0.05, 0.0);
  StaggeredField<double> b = gaussian_staggered_source(g, 106);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  StaggeredField<double> x(g);
  set_zero(x);
  CgParams p;
  p.tol = 1e-10;
  p.reliable_every = 25;
  const SolverStats stats = cg_solve(schur, x, b, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.restarts, 0);
}

TEST(Solvers, MrReducesResidual) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  MrParams p;
  p.steps = 20;
  const SolverStats stats = mr_solve(sys.m, x, sys.b, p);
  EXPECT_LT(stats.final_residual, std::sqrt(norm2(sys.b)));
  EXPECT_LT(sys.residual(x), 1.0);
}

TEST(Solvers, BlockMrEqualsGlobalOnDirichletOperator) {
  // On a block-decoupled operator, block-local MR and global MR minimize
  // the same decoupled functionals; both must strictly reduce each block's
  // residual, and block MR must match running MR per block.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 107);
  BlockMask mask(g, {1, 1, 1, 2});
  WilsonCloverOperator<double> dirichlet(u, nullptr, 0.3, &mask);
  const WilsonField<double> b = gaussian_wilson_source(g, 108);

  WilsonField<double> x_block(g);
  set_zero(x_block);
  MrParams p;
  p.steps = 5;
  mr_solve(dirichlet, x_block, b, p, &mask);

  // Per-block residuals must all have decreased.
  WilsonField<double> r(g);
  dirichlet.apply(r, x_block);
  scale(-1.0, r);
  axpy(1.0, b, r);
  const auto res = block_norm2(r, mask);
  const auto b2 = block_norm2(b, mask);
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_LT(res[i], b2[i]);
  }
}

TEST(Solvers, ZeroRhsGivesZeroSolution) {
  WilsonSystem sys;
  WilsonField<double> zero_b(sys.g);
  set_zero(zero_b);
  WilsonField<double> x = sys.b;  // non-zero initial content
  const SolverStats s1 = bicgstab_solve(sys.m, x, zero_b, {});
  EXPECT_TRUE(s1.converged);
  EXPECT_EQ(norm2(x), 0.0);
  x = sys.b;
  GcrParams gp;
  const SolverStats s2 = gcr_solve(sys.m, x, zero_b, nullptr, gp);
  EXPECT_TRUE(s2.converged);
  EXPECT_EQ(norm2(x), 0.0);
}

}  // namespace
}  // namespace lqcd
