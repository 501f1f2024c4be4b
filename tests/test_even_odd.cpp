// Even-odd (Schur) preconditioning: the half-size solve plus
// back-substitution must reproduce the full-system solution.
#include <gtest/gtest.h>

#include <stdexcept>

#include "dirac/dense_reference.h"
#include "dirac/even_odd.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "solvers/bicgstab.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

TEST(EvenOdd, SchurSolutionSolvesFullSystem) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 41);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const double mass = 0.2;

  const WilsonField<double> b = gaussian_wilson_source(g, 42);

  WilsonCloverSchurOperator<double> schur(u, &a, mass);
  WilsonField<double> b_hat(g);
  schur.prepare_source(b_hat, b);

  WilsonField<double> x(g);
  set_zero(x);
  BiCgStabParams params;
  params.tol = 1e-12;
  params.max_iter = 4000;
  const SolverStats stats = bicgstab_solve(schur, x, b_hat, params);
  ASSERT_TRUE(stats.converged);

  schur.reconstruct_solution(x, b);

  // Check the full-system residual.
  WilsonCloverOperator<double> m(u, &a, mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-9);
}

TEST(EvenOdd, SchurOperatorMatchesDenseSchurComplement) {
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 43);
  const CloverField<double> a = build_clover_field(u, 0.7);
  const double mass = 0.15;

  WilsonCloverSchurOperator<double> schur(u, &a, mass);

  // Dense M in the eo basis; extract blocks.
  const DenseMatrix<double> md = dense_wilson_clover(u, &a, mass);
  const int n = md.rows();
  const int h = n / 2;  // 12 * half_volume: even sites come first.

  WilsonField<double> in = gaussian_wilson_source(g, 44);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    in.at(s) = WilsonSpinor<double>{};
  }
  WilsonField<double> out(g);
  schur.apply(out, in);
  const auto flat_in = flatten(in);
  const auto flat_out = flatten(out);

  // Dense Schur: A_ee x_e - M_eo (A_oo)^{-1} M_oe x_e where M_eo already
  // carries the -1/2 factors from the assembly.
  DenseMatrix<double> a_ee(h, h), m_eo(h, h), m_oe(h, h), a_oo(h, h);
  for (int r = 0; r < h; ++r) {
    for (int c = 0; c < h; ++c) {
      a_ee(r, c) = md(r, c);
      m_eo(r, c) = md(r, h + c);
      m_oe(r, c) = md(h + r, c);
      a_oo(r, c) = md(h + r, h + c);
    }
  }
  std::vector<std::complex<double>> xe(static_cast<std::size_t>(h));
  for (int i = 0; i < h; ++i) xe[static_cast<std::size_t>(i)] = flat_in[static_cast<std::size_t>(i)];
  const auto t1 = m_oe.multiply(xe);
  const auto t2 = LuFactorization<double>(a_oo).solve(t1);
  const auto t3 = m_eo.multiply(t2);
  const auto t4 = a_ee.multiply(xe);
  double err = 0, nrm = 0;
  for (int i = 0; i < h; ++i) {
    const auto expect = t4[static_cast<std::size_t>(i)] - t3[static_cast<std::size_t>(i)];
    err += std::norm(flat_out[static_cast<std::size_t>(i)] - expect);
    nrm += std::norm(expect);
  }
  EXPECT_LT(err, 1e-18 * nrm);
  // Odd part of the output must be zero.
  for (int i = h; i < n; ++i) {
    EXPECT_EQ(flat_out[static_cast<std::size_t>(i)], std::complex<double>{});
  }
}

TEST(EvenOdd, PlainWilsonSchurAlsoWorks) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = weak_gauge(g, 45, 0.2);
  const double mass = 0.3;
  WilsonCloverSchurOperator<double> schur(u, nullptr, mass);
  const WilsonField<double> b = gaussian_wilson_source(g, 46);
  WilsonField<double> b_hat(g);
  schur.prepare_source(b_hat, b);
  WilsonField<double> x(g);
  set_zero(x);
  BiCgStabParams params;
  params.tol = 1e-11;
  const SolverStats stats = bicgstab_solve(schur, x, b_hat, params);
  ASSERT_TRUE(stats.converged);
  schur.reconstruct_solution(x, b);
  WilsonCloverOperator<double> m(u, nullptr, mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-8);
}

TEST(EvenOdd, SingularDiagonalThrowsFromConstructor) {
  // Plain Wilson at m = -4 has a zero diagonal, so A_oo^{-1} does not
  // exist: the constructor must throw to its caller on a pool of 4
  // workers, as on one.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = weak_gauge(g, 47, 0.2);
  const int workers = worker_count();
  set_worker_count(4);
  EXPECT_THROW(
      { const WilsonCloverSchurOperator<double> schur(u, nullptr, -4.0); },
      std::runtime_error);
  set_worker_count(workers);
}

}  // namespace
}  // namespace lqcd
