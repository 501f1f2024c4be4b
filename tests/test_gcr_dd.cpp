// GCR-DD (Algorithm 1): convergence, the benefit of the Schwarz
// preconditioner, block-size dependence, and the half-precision emulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/domain_map.h"
#include "comm/virtual_cluster.h"
#include "core/gcr_dd.h"
#include "dirac/wilson_ops.h"
#include "fault/fault.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "obs/metrics.h"
#include "solvers/block_task_schwarz.h"
#include "solvers/schwarz.h"
#include "tune/tune_cache.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

GaugeField<double> thermalized(const LatticeGeometry& g, std::uint64_t seed) {
  GaugeField<double> u = hot_gauge(g, seed);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 3);
  return u;
}

template <typename Site>
bool bitwise_equal(const LatticeField<Site>& a, const LatticeField<Site>& b) {
  return a.sites().size_bytes() == b.sites().size_bytes() &&
         std::memcmp(a.sites().data(), b.sites().data(),
                     a.sites().size_bytes()) == 0;
}

TEST(GcrDd, SolvesWilsonCloverToSinglePrecision) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 121);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 122);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  GcrDdWilsonSolver solver(u, &a, p);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);

  // Full-system double-precision residual must be near the single target.
  WilsonCloverOperator<double> m(u, &a, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);
}

TEST(GcrDd, PreconditionerReducesOuterIterations) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 123);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 124);

  GcrDdParams with;
  with.mass = 0.05;
  with.tol = 1e-5;
  with.block_grid = {1, 1, 1, 2};
  with.mr.steps = 8;
  GcrDdWilsonSolver s_with(u, &a, with);
  WilsonField<double> x1(g);
  const SolverStats stats_with = s_with.solve(x1, b);

  // Baseline: plain GCR (no preconditioner) on the same single-precision
  // Schur system.
  const GaugeField<float> u_f = convert_gauge<float>(u);
  const CloverField<float> a_f = convert_clover<float>(a);
  WilsonCloverSchurOperator<float> schur(u_f, &a_f, with.mass);
  WilsonField<float> b_f = convert_field<float>(b);
  WilsonField<float> b_hat(g);
  schur.prepare_source(b_hat, b_f);
  WilsonField<float> x2(g);
  set_zero(x2);
  GcrParams gp;
  gp.tol = with.tol;
  gp.kmax = with.kmax;
  gp.delta = with.delta;
  const SolverStats stats_without = gcr_solve(schur, x2, b_hat, nullptr, gp);

  EXPECT_TRUE(stats_with.converged);
  EXPECT_TRUE(stats_without.converged);
  EXPECT_LT(stats_with.iterations, stats_without.iterations);
}

TEST(GcrDd, MoreBlocksWeakenPreconditioner) {
  // Smaller Dirichlet blocks approximate the operator less well: the outer
  // iteration count must not decrease when the block grid refines.
  const LatticeGeometry g({4, 4, 8, 8});
  const GaugeField<double> u = thermalized(g, 125);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 126);

  auto iterations_for = [&](std::array<int, 4> grid) {
    GcrDdParams p;
    p.mass = 0.05;
    p.tol = 1e-5;
    p.block_grid = grid;
    p.mr.steps = 8;
    GcrDdWilsonSolver solver(u, &a, p);
    WilsonField<double> x(g);
    const SolverStats stats = solver.solve(x, b);
    EXPECT_TRUE(stats.converged);
    return stats.iterations;
  };

  const int coarse = iterations_for({1, 1, 1, 2});
  const int fine = iterations_for({2, 2, 4, 4});
  EXPECT_LE(coarse, fine);
}

TEST(GcrDd, HalfEmulationStillConverges) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 127);
  const WilsonField<double> b = gaussian_wilson_source(g, 128);

  GcrDdParams half;
  half.mass = 0.1;
  half.tol = 1e-4;
  half.block_grid = {1, 1, 1, 2};
  half.half_krylov = true;
  half.half_preconditioner = true;
  GcrDdWilsonSolver s_half(u, nullptr, half);
  WilsonField<double> x(g);
  const SolverStats stats = s_half.solve(x, b);
  EXPECT_TRUE(stats.converged);

  WilsonCloverOperator<double> m(u, nullptr, half.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-4);
}

TEST(GcrDd, SinglePrecisionKrylovNoWorseThanHalf) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 129);
  const WilsonField<double> b = gaussian_wilson_source(g, 130);

  auto run = [&](bool half_krylov) {
    GcrDdParams p;
    p.mass = 0.1;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, 2};
    p.half_krylov = half_krylov;
    GcrDdWilsonSolver solver(u, nullptr, p);
    WilsonField<double> x(g);
    return solver.solve(x, b);
  };
  const SolverStats s_half = run(true);
  const SolverStats s_single = run(false);
  EXPECT_TRUE(s_half.converged);
  EXPECT_TRUE(s_single.converged);
  // Half storage may cost extra iterations but not an order of magnitude.
  EXPECT_LE(s_single.iterations, s_half.iterations + 2);
  EXPECT_LT(s_half.iterations, 4 * std::max(1, s_single.iterations));
}

TEST(GcrDd, CountsPreconditionerWork) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 131);
  const WilsonField<double> b = gaussian_wilson_source(g, 132);
  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-4;
  p.block_grid = {1, 1, 1, 2};
  p.mr.steps = 6;
  GcrDdWilsonSolver solver(u, nullptr, p);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);
  // inner_iterations tallies MR steps: 6 per outer Krylov step (plus any
  // restart-discarded work).
  EXPECT_GE(stats.inner_iterations, 6 * stats.iterations);
}

TEST(GcrDd, ReusedSolverReportsPerSolveInnerIterations) {
  // Regression: the Schwarz preconditioner's MR-step tally is cumulative
  // across applies, and solve() used to report it verbatim — so a reused
  // solver's second solve claimed roughly double the preconditioner work.
  // Identical back-to-back solves must report identical per-solve counts.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 137);
  const WilsonField<double> b = gaussian_wilson_source(g, 138);
  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-4;
  p.block_grid = {1, 1, 1, 2};
  p.mr.steps = 6;
  GcrDdWilsonSolver solver(u, nullptr, p);

  WilsonField<double> x1(g), x2(g);
  const SolverStats first = solver.solve(x1, b);
  const SolverStats second = solver.solve(x2, b);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(second.converged);
  ASSERT_GT(first.inner_iterations, 0);
  // Same system, same zero initial guess: the trajectories are identical,
  // so so must be the reported preconditioner work.
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_EQ(second.inner_iterations, first.inner_iterations);
}

TEST(GcrDd, PartitionedOuterOperatorConverges) {
  // rank_grid routes the outer Schur operator through the virtual-cluster
  // partitioned dslash; the solve must still converge to the same target.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 133);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 134);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 2, 2}};
  GcrDdWilsonSolver solver(u, &a, p);
  EXPECT_NE(solver.partitioned_operator(), nullptr);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(static_cast<int>(stats.residual_history.size()),
            stats.iterations);

  WilsonCloverOperator<double> m(u, &a, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);
  // The cluster operator metered ghost traffic during the solve.
  EXPECT_GT(solver.partitioned_operator()->traffic().spinor.total_bytes(), 0u);
}

TEST(GcrDd, RollsBackAndConvergesAfterCorruptedExchange) {
  // Fault-recovery regression: one ghost message is bit-flipped mid-solve.
  // The exchange repairs it (checksum + resend from the retained copy), the
  // repair is metered as a comm retry, and GCR must observe it, roll back
  // to the last reliable update, and still converge to the same tolerance.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 139);
  const WilsonField<double> b = gaussian_wilson_source(g, 140);

  const RankMode prev = rank_mode();
  set_rank_mode(RankMode::Threads);
  clear_fault_plan();

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 1, 2}};
  // Full single precision: keeps the iterated residual close to the true
  // one so the post-rollback monotonicity check below is meaningful.
  p.half_krylov = false;
  p.half_preconditioner = false;
  GcrDdWilsonSolver solver(u, nullptr, p);

  // One-shot bit-flip a few exchanges in: each Schur matvec on this rank
  // grid posts 8 messages (2 ranks x 1 dim x 2 dirs x 2 hops), so ordinal
  // 20 lands inside an outer GCR iteration, past the initial residual.
  FaultSpec spec;
  spec.seed = 31;
  spec.once[static_cast<int>(FaultKind::BitFlip)] = 20;
  spec.max_retries = 4;
  set_fault_plan(spec);
  const std::uint64_t rollbacks_before =
      metric_counter("solver.rollbacks").value();
  const std::uint64_t retries_before = metric_counter("comm.retries").value();

  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  clear_fault_plan();
  set_rank_mode(prev);

  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.rollbacks, 1);
  ASSERT_FALSE(stats.rollback_iterations.empty());
  EXPECT_GE(metric_counter("solver.rollbacks").value(), rollbacks_before + 1);
  EXPECT_GE(metric_counter("comm.retries").value(), retries_before + 1);

  // Converges to the same tolerance as a fault-free solve.
  WilsonCloverOperator<double> m(u, nullptr, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);

  // Monotone residual history after the rollback point: the rollback
  // re-anchored on the true residual, so from there the trajectory must
  // descend (5% slack absorbs single-precision re-anchoring at restarts).
  const std::size_t from =
      static_cast<std::size_t>(stats.rollback_iterations.front());
  ASSERT_LT(from, stats.residual_history.size());
  for (std::size_t i = from; i + 1 < stats.residual_history.size(); ++i) {
    EXPECT_LE(stats.residual_history[i + 1],
              stats.residual_history[i] * 1.05)
        << "iter " << i;
  }
}

TEST(GcrDd, ResidualHistoryIdenticalAcrossRankModes) {
  // The whole GCR-DD trajectory — every iterated-residual norm, the
  // iteration count, and the final residual — must be bitwise reproducible
  // between the sequential reference and the concurrent rank runtime.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 135);
  const WilsonField<double> b = gaussian_wilson_source(g, 136);

  auto run = [&](RankMode m) {
    const RankMode prev = rank_mode();
    set_rank_mode(m);
    GcrDdParams p;
    p.mass = 0.1;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, 2};
    p.rank_grid = {{1, 1, 1, 2}};
    GcrDdWilsonSolver solver(u, nullptr, p);
    WilsonField<double> x(g);
    const SolverStats stats = solver.solve(x, b);
    set_rank_mode(prev);
    return stats;
  };
  const SolverStats seq = run(RankMode::Seq);
  const SolverStats thr = run(RankMode::Threads);

  EXPECT_TRUE(seq.converged);
  EXPECT_TRUE(thr.converged);
  EXPECT_EQ(seq.iterations, thr.iterations);
  EXPECT_EQ(seq.restarts, thr.restarts);
  EXPECT_EQ(seq.final_residual, thr.final_residual);
  ASSERT_EQ(seq.residual_history.size(), thr.residual_history.size());
  for (std::size_t i = 0; i < seq.residual_history.size(); ++i) {
    EXPECT_EQ(seq.residual_history[i], thr.residual_history[i]) << "iter " << i;
  }
}

// ---------------------------------------------------------------------------
// Block-task Schwarz: the preconditioner GcrDdWilsonSolver runs.
// ---------------------------------------------------------------------------

struct BlockTaskCase {
  std::array<int, kNDim> dims;
  std::array<int, kNDim> grid;
};

/// The masked reference — SchwarzPreconditioner over the masked Schur
/// operator — and the block-task preconditioner on the same links, clover
/// and stores, both running \p mr_steps MR steps.  The twist mu is folded
/// into the clover the way GcrDdWilsonSolver folds it; \p half (float
/// only) selects the half preconditioner (half links and half stores).
template <typename Real>
struct SchwarzPair {
  SchwarzPair(const BlockTaskCase& c, const GaugeField<double>& u,
              const CloverField<double>* a, double mu, bool half,
              int mr_steps = 10)
      : uk(links(u, half)), store(stores(half)),
        clover(twisted(u.geometry(), a, mu)), mask(u.geometry(), c.grid),
        mr{mr_steps, 1.0}, masked(uk, ap(), -0.2, &mask),
        ref(masked, mask, mr, store),
        blocks(uk, ap(), -0.2, c.grid, mr, store) {}

  static GaugeField<Real> links(const GaugeField<double>& u, bool half) {
    GaugeField<Real> uk = convert_gauge<Real>(u);
    if constexpr (std::is_same_v<Real, float>) {
      if (half) half_roundtrip(uk);
    }
    return uk;
  }
  static std::function<void(WilsonField<Real>&)> stores(bool half) {
    if constexpr (std::is_same_v<Real, float>) {
      if (half) {
        return [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };
      }
    }
    return nullptr;
  }
  static std::optional<CloverField<Real>> twisted(const LatticeGeometry& g,
                                                  const CloverField<double>* a,
                                                  double mu) {
    std::optional<CloverField<Real>> clover;
    if (a != nullptr) clover = convert_clover<Real>(*a);
    if (mu != 0.0) {
      if (!clover) clover.emplace(g);
      for (std::int64_t s = 0; s < g.volume(); ++s) {
        add_twist(clover->at(s), static_cast<Real>(mu), +1);
      }
    }
    return clover;
  }
  const CloverField<Real>* ap() const { return clover ? &*clover : nullptr; }

  GaugeField<Real> uk;
  std::function<void(WilsonField<Real>&)> store;
  std::optional<CloverField<Real>> clover;
  BlockMask mask;
  MrParams mr;
  WilsonCloverSchurOperator<Real> masked;
  SchwarzPreconditioner<WilsonField<Real>> ref;
  BlockTaskSchwarzPreconditioner<Real> blocks;
};

/// Applies the masked reference and the block-task preconditioner to two
/// sources; the outputs must be memcmp-equal.
template <typename Real>
void expect_matches_masked(const BlockTaskCase& c, const GaugeField<double>& u,
                           const CloverField<double>* a, double mu,
                           bool half) {
  const LatticeGeometry& g = u.geometry();
  SchwarzPair<Real> k(c, u, a, mu, half);
  ASSERT_EQ(k.blocks.num_blocks(), k.mask.num_blocks());
  // Full fields (both parities live) are stricter inputs than the
  // Schur-system vectors GCR passes, whose odd half is zero.  The second
  // apply reuses the persistent block fields.
  for (const std::uint64_t seed : {402u, 403u}) {
    const WilsonField<Real> in =
        convert_field<Real>(gaussian_wilson_source(g, seed));
    WilsonField<Real> want(g), got(g);
    k.ref.apply(want, in);
    k.blocks.apply(got, in);
    EXPECT_TRUE(bitwise_equal(want, got)) << "source " << seed;
  }
  EXPECT_EQ(k.blocks.inner_steps(), k.ref.inner_steps());
}

/// The block-task preconditioner's apply_multi at each of \p widths, on
/// each worker count of \p workers, against the masked reference applied
/// to each source: every RHS must be memcmp-equal, and the batch must
/// report `mr.steps` inner steps per RHS.  The reference outputs do not
/// depend on the worker count, so they are computed once.  Four MR steps
/// keep the sanitizer runs short; every step runs the same code.
template <typename Real>
void expect_batches_match_masked(const BlockTaskCase& c,
                                 const GaugeField<double>& u,
                                 const CloverField<double>* a, double mu,
                                 bool half, const std::vector<int>& widths,
                                 const std::vector<int>& workers) {
  const LatticeGeometry& g = u.geometry();
  SchwarzPair<Real> k(c, u, a, mu, half, /*mr_steps=*/4);
  const int most = *std::max_element(widths.begin(), widths.end());
  std::vector<WilsonField<Real>> in;
  std::vector<WilsonField<Real>> want;
  for (int i = 0; i < most; ++i) {
    in.push_back(convert_field<Real>(
        gaussian_wilson_source(g, 420u + std::uint64_t(i))));
    want.emplace_back(g);
    k.ref.apply(want.back(), in.back());
  }
  const int saved = worker_count();
  int applied = 0;
  for (const int nw : workers) {
    set_worker_count(nw);
    for (const int w : widths) {
      SCOPED_TRACE("workers " + std::to_string(nw) + " width " +
                   std::to_string(w));
      std::vector<WilsonField<Real>> got(static_cast<std::size_t>(w),
                                         WilsonField<Real>(g));
      std::vector<WilsonField<Real>*> outs;
      std::vector<const WilsonField<Real>*> ins;
      for (int i = 0; i < w; ++i) {
        outs.push_back(&got[static_cast<std::size_t>(i)]);
        ins.push_back(&in[static_cast<std::size_t>(i)]);
      }
      std::vector<int> inner;
      k.blocks.apply_multi(outs, ins, &inner);
      applied += w;
      EXPECT_EQ(inner, std::vector<int>(static_cast<std::size_t>(w),
                                        k.mr.steps));
      for (int i = 0; i < w; ++i) {
        EXPECT_TRUE(bitwise_equal(want[static_cast<std::size_t>(i)],
                                  got[static_cast<std::size_t>(i)]))
            << "rhs " << i;
      }
    }
  }
  set_worker_count(saved);
  EXPECT_EQ(k.blocks.inner_steps(), applied * k.mr.steps);
}

TEST(BlockTaskSchwarz, BitwiseMatchesMaskedReference) {
  // Over lattice and block shapes, half and single stores, with and
  // without clover, and with a twisted-mass term.  The double runs keep
  // alpha in double, so they also catch a change in the order of the
  // block reductions, which a float alpha usually rounds away.  Two
  // workers run every case one task per block; sixteen run the 2- and
  // 4-block cases block after block with the site loops on the pool (the
  // 64-block case would run as tasks again, so it is skipped there).
  const BlockTaskCase cases[] = {{{4, 4, 4, 8}, {1, 1, 1, 2}},
                                 {{8, 8, 8, 8}, {1, 1, 2, 2}},
                                 {{4, 4, 8, 8}, {2, 2, 4, 4}}};
  const int workers = worker_count();
  for (const int w : {2, 16}) {
    set_worker_count(w);
    for (const BlockTaskCase& c : cases) {
      if (w == 16 && c.grid[0] * c.grid[1] * c.grid[2] * c.grid[3] >= 8) {
        continue;
      }
      const LatticeGeometry g(c.dims);
      const GaugeField<double> u = hot_gauge(g, 401);
      const CloverField<double> a = build_clover_field(u, 1.0);
      for (const bool with_clover : {false, true}) {
        for (const double mu : {0.0, 0.15}) {
          const CloverField<double>* ap = with_clover ? &a : nullptr;
          SCOPED_TRACE("workers " + std::to_string(w) + " volume " +
                       std::to_string(g.volume()) + " grid t " +
                       std::to_string(c.grid[3]) + " clover " +
                       std::to_string(with_clover) + " mu " +
                       std::to_string(mu));
          for (const bool half : {true, false}) {
            SCOPED_TRACE(half ? "float, half" : "float, single");
            expect_matches_masked<float>(c, u, ap, mu, half);
          }
          SCOPED_TRACE("double");
          expect_matches_masked<double>(c, u, ap, mu, false);
        }
      }
    }
  }
  set_worker_count(workers);
}

TEST(BlockTaskSchwarz, BatchedBitwiseMatchesMaskedReference) {
  // apply_multi, the batched preconditioner GcrDdWilsonSolver's batched
  // solve runs, over the cases of BitwiseMatchesMaskedReference.  The float
  // widths cover the four-lane SIMD groups of the batched hop (4, 8), a
  // ragged scalar tail (3, 5), width 1 (the interior kernel) and two hop
  // groups (17 > kMaxMultiRhs); the last width, narrower than the one
  // before, reruns on grown block workspaces.  Two workers run every case
  // one task per block, sixteen the 2- and 4-block cases block after
  // block.  The double run keeps alpha in double (see above).
  const BlockTaskCase cases[] = {{{4, 4, 4, 8}, {1, 1, 1, 2}},
                                 {{8, 8, 8, 8}, {1, 1, 2, 2}},
                                 {{4, 4, 8, 8}, {2, 2, 4, 4}}};
  const std::vector<int> widths{1, 3, 4, 5, 8, 17, 5};
  for (const BlockTaskCase& c : cases) {
    const int blocks = c.grid[0] * c.grid[1] * c.grid[2] * c.grid[3];
    const std::vector<int> workers =
        blocks >= 8 ? std::vector<int>{2} : std::vector<int>{2, 16};
    const LatticeGeometry g(c.dims);
    const GaugeField<double> u = hot_gauge(g, 401);
    const CloverField<double> a = build_clover_field(u, 1.0);
    for (const bool with_clover : {false, true}) {
      for (const double mu : {0.0, 0.15}) {
        const CloverField<double>* ap = with_clover ? &a : nullptr;
        SCOPED_TRACE("volume " + std::to_string(g.volume()) + " grid t " +
                     std::to_string(c.grid[3]) + " clover " +
                     std::to_string(with_clover) + " mu " +
                     std::to_string(mu));
        for (const bool half : {true, false}) {
          SCOPED_TRACE(half ? "float, half" : "float, single");
          expect_batches_match_masked<float>(c, u, ap, mu, half, widths,
                                             workers);
        }
        SCOPED_TRACE("double");
        expect_batches_match_masked<double>(c, u, ap, mu, false, {5},
                                            workers);
      }
    }
  }
}

TEST(BlockTaskSchwarz, LinkFormatFollowsTheMaskedOperator) {
  // The masked reference runs the masked operator and both GCR-DD solvers
  // the block hops, so both must store the links in the same format under
  // every LQCD_RECON setting.  For `tune`, the cache is seeded so that the
  // masked operator's entry and the partitioned operator's own entry
  // disagree: the block hops must follow the masked one.
  const LatticeGeometry g({4, 4, 4, 8});
  const std::array<int, kNDim> grid{1, 1, 1, 2};
  GaugeField<float> u = convert_gauge<float>(hot_gauge(g, 409));
  half_roundtrip(u);
  const auto store = [](WilsonField<float>& f) {
    half_roundtrip(f, Parity::Even);
  };
  const BlockMask mask(g, grid);
  const MrParams mr{10, 1.0};
  const auto recon_row = [](Reconstruct r) {
    TuneResult res;
    res.param = std::string("recon=") + to_string(r);
    return res;
  };
  const TuneKey masked_key{"wilson_schur_recon", "f32,cut", g.half_volume(),
                           worker_count()};
  const TuneKey part_key{"wilson_part_recon", "f32",
                         Partitioning(g, grid).local().volume(),
                         worker_count()};
  global_tune_cache().import_entries(
      {{masked_key, recon_row(Reconstruct::Eight)},
       {part_key, recon_row(Reconstruct::Twelve)}});
  const bool tuning = tuning_enabled();
  set_tuning_enabled(true);
  const char* env = std::getenv("LQCD_RECON");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;
  const WilsonField<float> in =
      convert_field<float>(gaussian_wilson_source(g, 410));
  for (const char* setting : {"12", "8", "tune"}) {
    SCOPED_TRACE(std::string("LQCD_RECON=") + setting);
    ASSERT_EQ(setenv("LQCD_RECON", setting, 1), 0);
    init_recon_from_env();
    WilsonCloverSchurOperator<float> masked(u, nullptr, -0.2, &mask);
    SchwarzPreconditioner<WilsonField<float>> ref(masked, mask, mr, store);
    BlockTaskSchwarzPreconditioner<float> blocks(u, nullptr, -0.2, grid, mr,
                                                 store);
    EXPECT_EQ(blocks.recon(), masked.recon());
    EXPECT_NE(blocks.recon(), Reconstruct::None);
    WilsonField<float> want(g), got(g);
    ref.apply(want, in);
    blocks.apply(got, in);
    EXPECT_TRUE(bitwise_equal(want, got));
    // A width-4 batch runs the four-lane hop on the same links.
    std::vector<WilsonField<float>> batch(4, WilsonField<float>(g));
    std::vector<WilsonField<float>*> outs;
    for (auto& f : batch) outs.push_back(&f);
    blocks.apply_multi(outs, {&in, &in, &in, &in});
    for (const auto& f : batch) EXPECT_TRUE(bitwise_equal(want, f));
  }
  if (saved) {
    setenv("LQCD_RECON", saved->c_str(), 1);
  } else {
    unsetenv("LQCD_RECON");
  }
  init_recon_from_env();
  set_tuning_enabled(tuning);
  global_tune_cache().invalidate(masked_key);
  global_tune_cache().invalidate(part_key);
}

TEST(BlockTaskSchwarz, MetersStepsPerApplyNotPerBlock) {
  const LatticeGeometry g({4, 4, 8, 8});
  const GaugeField<float> u = convert_gauge<float>(hot_gauge(g, 404));
  const MrParams mr{7, 1.0};
  BlockTaskSchwarzPreconditioner<float> blocks(u, nullptr, -0.2, {1, 1, 2, 2},
                                               mr);
  ASSERT_EQ(blocks.num_blocks(), 4);
  const WilsonField<float> in =
      convert_field<float>(gaussian_wilson_source(g, 405));
  WilsonField<float> out(g);
  Counter& steps = metric_counter("solver.schwarz.mr_steps");
  Counter& sweeps = metric_counter("blas.sweeps");
  const std::uint64_t steps0 = steps.value();
  const std::uint64_t sweeps0 = sweeps.value();
  blocks.apply(out, in);
  blocks.apply(out, in);
  EXPECT_EQ(blocks.inner_steps(), 2 * mr.steps);
  EXPECT_EQ(steps.value() - steps0, 2u * mr.steps);
  // Per apply: copy in, copy out, and two fused passes per MR step, each
  // one lattice-wide pass however many blocks run it.
  EXPECT_EQ(sweeps.value() - sweeps0, 2u * (2 + 2 * mr.steps));
}

TEST(GcrDd, RejectsOddBlockExtentNamingTheDimension) {
  // Block-local even-odd order equals the global order only when block
  // origins are even, so odd block extents are refused up front, with a
  // message naming the block grid, the dimension and the block extent.
  struct Bad {
    std::array<int, kNDim> dims;
    std::array<int, kNDim> grid;
    const char* want;
  };
  for (const Bad& c :
       {Bad{{4, 4, 4, 6}, {1, 1, 1, 2},
            "block grid {1,1,1,2} gives blocks of odd extent 3 in "
            "dimension 3 (lattice extent 6)"},
        Bad{{10, 4, 4, 4}, {2, 1, 1, 2},
            "block grid {2,1,1,2} gives blocks of odd extent 5 in "
            "dimension 0 (lattice extent 10)"}}) {
    const LatticeGeometry g(c.dims);
    const GaugeField<double> u = hot_gauge(g, 406);
    GcrDdParams p;
    p.block_grid = c.grid;
    try {
      GcrDdWilsonSolver solver(u, nullptr, p);
      ADD_FAILURE() << "odd block extent accepted: " << c.want;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.want), std::string::npos)
          << e.what();
    }
  }
}

TEST(DomainMap, RepeatedScatterKeepsStorageAndValues) {
  const LatticeGeometry g({4, 4, 8, 8});
  const Partitioning part(g, {1, 2, 2, 2});
  const DomainMap map(part);
  const WilsonField<double> first = gaussian_wilson_source(g, 407);
  const WilsonField<double> second = gaussian_wilson_source(g, 408);

  std::vector<WilsonField<double>> locals;
  map.scatter(first, locals);
  ASSERT_EQ(static_cast<int>(locals.size()), part.num_ranks());
  std::vector<const WilsonSpinor<double>*> storage;
  for (const auto& f : locals) storage.push_back(f.sites().data());

  map.scatter(second, locals);
  std::vector<WilsonField<double>> fresh;
  map.scatter(second, fresh);
  for (std::size_t r = 0; r < locals.size(); ++r) {
    EXPECT_EQ(locals[r].sites().data(), storage[r]) << "rank " << r;
    EXPECT_TRUE(bitwise_equal(locals[r], fresh[r])) << "rank " << r;
  }
  WilsonField<double> back(g);
  map.gather(locals, back);
  EXPECT_TRUE(bitwise_equal(back, second));
}

}  // namespace
}  // namespace lqcd
