// The twisted-mass Wilson operator (dirac/twisted_mass.h): dense-reference
// agreement, the gamma5-Hermiticity identity gamma5 M(mu) gamma5 =
// M(-mu)^dagger (the gamma5.tau1 Hermiticity of the degenerate doublet),
// flavor-sign symmetry, even-odd/Schur consistency with the full operator,
// bitwise seq==threads determinism of the partitioned solve at nonzero mu,
// GCR-DD convergence on the twisted system, and the batched serve path in
// both rank modes (with the coalescing key keeping twisted requests apart).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "comm/virtual_cluster.h"
#include "core/gcr_dd.h"
#include "dirac/dense_reference.h"
#include "dirac/even_odd.h"
#include "dirac/twisted_mass.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "linalg/gamma.h"
#include "serve/service.h"

namespace lqcd {
namespace {

GaugeField<double> thermalized(const LatticeGeometry& g, std::uint64_t seed) {
  GaugeField<double> u = hot_gauge(g, seed);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 3);
  return u;
}

class ScopedRankMode {
 public:
  explicit ScopedRankMode(RankMode m) : prev_(rank_mode()) { set_rank_mode(m); }
  ~ScopedRankMode() { set_rank_mode(prev_); }

 private:
  RankMode prev_;
};

double relative_residual(const LinearOperator<WilsonField<double>>& m,
                         const WilsonField<double>& x,
                         const WilsonField<double>& b) {
  WilsonField<double> r(x.geometry());
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  return std::sqrt(norm2(r) / norm2(b));
}

TEST(TwistedMass, OperatorMatchesDenseReference) {
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 171);
  const CloverField<double> a = build_clover_field(u, 0.8);
  const double mass = 0.12, mu = 0.3;

  for (int flavor : {+1, -1}) {
    const DenseMatrix<double> md = dense_twisted_mass(u, &a, mass, mu, flavor);
    TwistedMassOperator<double> op(u, &a, mass, mu, flavor);

    const WilsonField<double> in = gaussian_wilson_source(g, 172);
    WilsonField<double> out(g);
    op.apply(out, in);

    const auto want = md.multiply(flatten(in));
    const auto got = flatten(out);
    ASSERT_EQ(want.size(), got.size());
    double num = 0, den = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      num += std::norm(got[i] - want[i]);
      den += std::norm(want[i]);
    }
    EXPECT_LT(std::sqrt(num / den), 1e-12) << "flavor " << flavor;
  }
}

TEST(TwistedMass, TwistTermIsPureImaginaryGamma5Diagonal) {
  // M(mu) - M(0) must be exactly i*mu*gamma5 — diagonal, spin-dependent
  // sign, no dependence on the gauge field or clover term.
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 173);
  const CloverField<double> a = build_clover_field(u, 1.2);
  const double mass = -0.05, mu = 0.21;

  const DenseMatrix<double> m0 = dense_twisted_mass(u, &a, mass, 0.0);
  const DenseMatrix<double> mmu = dense_twisted_mass(u, &a, mass, mu);
  const int n = m0.rows();
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      std::complex<double> want = 0.0;
      if (r == c) {
        const int spin = (r / 3) % 4;
        want = std::complex<double>(0.0, mu * kGamma5Sign[spin]);
      }
      ASSERT_EQ(mmu(r, c) - m0(r, c), want) << "(" << r << "," << c << ")";
    }
  }
}

TEST(TwistedMass, Gamma5HermiticityIdentity) {
  // gamma5 M(mu) gamma5 = M(-mu)^dagger: the twisted generalization of
  // Wilson gamma5-Hermiticity, equivalently gamma5.tau1 Hermiticity of the
  // doublet (tau1 swaps the flavors and with them the sign of mu).
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 175);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const double mass = 0.1, mu = 0.25;

  const DenseMatrix<double> mp = dense_twisted_mass(u, &a, mass, mu);
  const DenseMatrix<double> mm = dense_twisted_mass(u, &a, mass, -mu);
  const int n = mp.rows();
  double max_err = 0;
  for (int r = 0; r < n; ++r) {
    const double g5r = kGamma5Sign[(r / 3) % 4];
    for (int c = 0; c < n; ++c) {
      const double g5c = kGamma5Sign[(c / 3) % 4];
      const std::complex<double> lhs = g5r * mp(r, c) * g5c;
      const std::complex<double> rhs = std::conj(mm(c, r));
      max_err = std::max(max_err, std::abs(lhs - rhs));
    }
  }
  EXPECT_LT(max_err, 1e-13);
}

TEST(TwistedMass, FlavorSignFlipsMu) {
  // The tau3 = -1 flavor of the doublet is exactly the mu -> -mu operator.
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 177);
  const double mass = 0.07, mu = 0.4;
  TwistedMassOperator<double> minus_flavor(u, nullptr, mass, mu, -1);
  TwistedMassOperator<double> minus_mu(u, nullptr, mass, -mu, +1);

  const WilsonField<double> in = gaussian_wilson_source(g, 178);
  WilsonField<double> out_a(g), out_b(g);
  minus_flavor.apply(out_a, in);
  minus_mu.apply(out_b, in);
  EXPECT_EQ(std::memcmp(out_a.sites().data(), out_b.sites().data(),
                        out_a.sites().size_bytes()),
            0);
}

TEST(TwistedMass, SchurOperatorConsistentWithFull) {
  // If M x = b then the Schur operator maps the even part of x to the
  // prepared source: M_hat x_e = b_hat (even sites).
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 181);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const double mass = 0.15, mu = 0.3;

  TwistedMassOperator<double> full(u, &a, mass, mu);
  // The Schur operator on the twist-augmented clover field, as GCR-DD
  // builds it from GcrDdParams::twisted_mu.
  const CloverField<double> twist = twisted_clover<double>(g, &a, mu);
  WilsonCloverSchurOperator<double> schur(u, &twist, mass);

  const WilsonField<double> x = gaussian_wilson_source(g, 182);
  WilsonField<double> b(g);
  full.apply(b, x);

  WilsonField<double> b_hat(g);
  schur.prepare_source(b_hat, b);

  WilsonField<double> x_e = x;
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    x_e.at(s) = WilsonSpinor<double>{};
  }
  WilsonField<double> got(g);
  schur.apply(got, x_e);

  double num = 0, den = 0;
  for (std::int64_t s = 0; s < g.half_volume(); ++s) {
    WilsonSpinor<double> d = got.at(s);
    d -= b_hat.at(s);
    num += norm2(d);
    den += norm2(b_hat.at(s));
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12);

  // And the back-substitution recovers the odd part of x exactly.
  WilsonField<double> rec = x_e;
  schur.reconstruct_solution(rec, b);
  WilsonField<double> diff = rec;
  axpy(-1.0, x, diff);
  EXPECT_LT(norm2(diff), 1e-24 * norm2(x));
}

TEST(TwistedMass, GcrDdConvergesAtNonzeroMu) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 183);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 184);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.twisted_mu = 0.25;
  GcrDdWilsonSolver solver(u, &a, p);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);

  // The solution must solve the *twisted* system to near the single
  // precision target — checked against the independent double-precision
  // twisted operator, not the solver's own residual.
  TwistedMassOperator<double> m(u, &a, p.mass, p.twisted_mu);
  EXPECT_LT(relative_residual(m, x, b), 5e-5);

  // ...and must NOT solve the untwisted system: the twist genuinely
  // changed the operator the solver ran against.
  WilsonCloverOperator<double> m0(u, &a, p.mass);
  EXPECT_GT(relative_residual(m0, x, b), 1e-3);
}

TEST(TwistedMass, PartitionedSolveSeqThreadsBitwiseAtNonzeroMu) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 185);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 186);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 1, 2}};
  p.twisted_mu = 0.2;

  WilsonField<double> x_seq(g), x_thr(g);
  SolverStats st_seq, st_thr;
  {
    ScopedRankMode mode(RankMode::Seq);
    GcrDdWilsonSolver solver(u, &a, p);
    st_seq = solver.solve(x_seq, b);
  }
  {
    ScopedRankMode mode(RankMode::Threads);
    GcrDdWilsonSolver solver(u, &a, p);
    st_thr = solver.solve(x_thr, b);
  }
  EXPECT_TRUE(st_seq.converged);
  EXPECT_EQ(st_seq.iterations, st_thr.iterations);
  EXPECT_EQ(st_seq.final_residual, st_thr.final_residual);
  EXPECT_EQ(std::memcmp(x_seq.sites().data(), x_thr.sites().data(),
                        x_seq.sites().size_bytes()),
            0);
}

TEST(TwistedMass, ServeTwistedRequestsBothRankModes) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 187);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b1 = gaussian_wilson_source(g, 188);
  const WilsonField<double> b2 = gaussian_wilson_source(g, 189);
  const double mass = 0.1, tol = 1e-5, mu = 0.25;

  for (RankMode rm : {RankMode::Seq, RankMode::Threads}) {
    ScopedRankMode mode(rm);
    serve::Config cfg;
    cfg.max_batch = 4;
    cfg.solver.mass = mass;
    cfg.solver.tol = tol;
    cfg.solver.block_grid = {1, 1, 1, 2};
    cfg.solver.rank_grid = {{1, 1, 1, 2}};
    serve::SolveService svc(u, &a, cfg);

    serve::Request req;
    req.action = serve::Action::TwistedMass;
    req.mass = mass;
    req.tol = tol;
    req.twisted_mu = mu;
    req.rhs.push_back(b1);
    req.rhs.push_back(b2);
    const serve::Result res = svc.submit(std::move(req)).get();
    ASSERT_EQ(res.status, serve::Status::Ok);
    ASSERT_EQ(res.solutions.size(), 2u);
    EXPECT_TRUE(res.stats[0].converged);
    EXPECT_TRUE(res.stats[1].converged);

    TwistedMassOperator<double> m(u, &a, mass, mu);
    EXPECT_LT(relative_residual(m, res.solutions[0], b1), 5e-5);
    EXPECT_LT(relative_residual(m, res.solutions[1], b2), 5e-5);
  }
}

TEST(TwistedMass, ServeKeyNormalizesStrayMuForWilsonClover) {
  // A WilsonClover request carrying a stray twisted_mu must neither split
  // the coalescing key nor twist the solve: the result is bitwise the
  // result of the same request with mu = 0.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 191);
  const WilsonField<double> b = gaussian_wilson_source(g, 192);

  serve::Config cfg;
  cfg.max_batch = 4;
  cfg.solver.mass = 0.1;
  cfg.solver.tol = 1e-5;
  cfg.solver.block_grid = {1, 1, 1, 2};
  serve::SolveService svc(u, nullptr, cfg);

  auto submit = [&](serve::Action action, double mu) {
    serve::Request req;
    req.action = action;
    req.mass = 0.1;
    req.tol = 1e-5;
    req.twisted_mu = mu;
    req.rhs.push_back(b);
    return svc.submit(std::move(req)).get();
  };
  const serve::Result plain = submit(serve::Action::WilsonClover, 0.0);
  const serve::Result stray = submit(serve::Action::WilsonClover, 0.4);
  const serve::Result twisted = submit(serve::Action::TwistedMass, 0.4);
  ASSERT_EQ(plain.status, serve::Status::Ok);
  ASSERT_EQ(stray.status, serve::Status::Ok);
  ASSERT_EQ(twisted.status, serve::Status::Ok);

  EXPECT_EQ(std::memcmp(plain.solutions[0].sites().data(),
                        stray.solutions[0].sites().data(),
                        plain.solutions[0].sites().size_bytes()),
            0);
  // The genuinely twisted request solved a different system.
  WilsonField<double> diff = twisted.solutions[0];
  axpy(-1.0, plain.solutions[0], diff);
  EXPECT_GT(norm2(diff), 0.0);
}

}  // namespace
}  // namespace lqcd
