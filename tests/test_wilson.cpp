// Wilson / Wilson-clover operator correctness against the independent
// dense assembly, plus structural identities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "dirac/dense_reference.h"
#include "dirac/even_odd.h"
#include "dirac/recon_policy.h"
#include "dirac/wilson_kernel.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "fields/compressed_gauge.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "util/rng.h"

namespace lqcd {
namespace {

TEST(Wilson, HopMatchesFullSpinorReference) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 1);
  const WilsonField<double> in = gaussian_wilson_source(g, 2);
  WilsonField<double> fast(g), ref(g);
  wilson_hop(fast, u, in);
  wilson_hop_reference(ref, u, in);
  axpy(-1.0, ref, fast);
  EXPECT_LT(norm2(fast), 1e-22 * norm2(ref));
}

/// A random float of magnitude 10^e, e uniform in [-30, max_exp], with a
/// random sign; one draw in 16 is instead +-0 or a subnormal.
float spread_float(Rng& rng, double max_exp) {
  using Lim = std::numeric_limits<float>;
  const float specials[] = {0.0f, -0.0f, Lim::denorm_min(), -Lim::denorm_min(),
                            Lim::min() / 1024.0f, -Lim::min() / 3.0f};
  if (rng.below(16) == 0) return specials[rng.below(std::size(specials))];
  const double mag = std::pow(10.0, rng.uniform(-30.0, max_exp));
  return static_cast<float>(rng.below(2) == 0 ? mag : -mag);
}

Cplx<float> spread_cplx(Rng& rng, double max_exp) {
  const float re = spread_float(rng, max_exp);
  return Cplx<float>(re, spread_float(rng, max_exp));
}

template <typename Gauge>
int count_pair_lane_mismatches(const Gauge& u, const WilsonField<float>& in,
                               const NeighborTable& nt) {
  const WilsonSpinor<float>* psi = in.sites().data();
  int mismatches = 0;
  for (int mask = 0; mask < 256; ++mask) {
    for (std::int64_t s = 0; s < in.geometry().volume(); ++s) {
      std::int64_t sp[kNDim];
      std::int64_t sm[kNDim];
      detail::wilson_neighbors(nt, s, nullptr, sp, sm);
      for (int mu = 0; mu < kNDim; ++mu) {
        if ((mask >> (2 * mu) & 1) != 0) sp[mu] = -1;
        if ((mask >> (2 * mu + 1) & 1) != 0) sm[mu] = -1;
      }
      const WilsonSpinor<float> lanes =
          detail::pair_lane_site_hop(u, psi, s, sp, sm);
      const WilsonSpinor<float> scalar =
          detail::scalar_site_hop<float>(u, psi, s, sp, sm);
      if (std::memcmp(&lanes, &scalar, sizeof lanes) != 0) ++mismatches;
    }
  }
  return mismatches;
}

/// The exterior kernels' ghost legs: projected half spinors multiplied and
/// reconstructed on pairs, against the per-vector scalar algebra.
int count_ghost_leg_mismatches(const GaugeField<float>& u, Rng& rng,
                               double spinor_exp, double link_exp) {
  int mismatches = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int mu = trial % kNDim;
    const bool has_fwd = (trial / kNDim) % 2 == 0;
    const bool has_bwd = (trial / (2 * kNDim)) % 2 == 0;
    const std::int64_t s = trial % u.geometry().volume();
    HalfSpinor<float> hf;
    HalfSpinor<float> hb;
    Matrix3<float> ub;
    for (int a = 0; a < 2; ++a) {
      for (int c = 0; c < kNColor; ++c) {
        hf[a][c] = spread_cplx(rng, spinor_exp);
        hb[a][c] = spread_cplx(rng, spinor_exp);
      }
    }
    for (auto& z : ub.m) z = spread_cplx(rng, link_exp);
    WilsonSpinor<float> expect{};
    if (has_fwd) {
      HalfSpinor<float> t;
      t[0] = u.link(mu, s) * hf[0];
      t[1] = u.link(mu, s) * hf[1];
      accumulate_reconstruct(mu, -1, t, expect);
    }
    if (has_bwd) {
      HalfSpinor<float> t;
      t[0] = adj_mul(ub, hb[0]);
      t[1] = adj_mul(ub, hb[1]);
      accumulate_reconstruct(mu, +1, t, expect);
    }
    const WilsonSpinor<float> got = detail::ghost_site_hop(
        u, mu, s, has_fwd ? &hf : nullptr, &ub, has_bwd ? &hb : nullptr);
    if (std::memcmp(&got, &expect, sizeof got) != 0) ++mismatches;
  }
  return mismatches;
}

TEST(Wilson, PairLaneSiteHopBitwiseMatchesScalarBody) {
#ifndef LQCD_LANE_SIMD
  GTEST_SKIP() << "no vector extensions: every hop runs the scalar body";
#else
  // The spin-pair lane body every float AoS hop runs against the scalar
  // body, memcmp per site, for every subset of dropped legs (bit 2mu drops
  // the forward leg of mu, bit 2mu + 1 the backward one) and every gauge
  // format.  Components span 10^-30 to 10^30, +-0 and subnormals, so
  // products underflow and round differently in any other order.  The
  // spinors reach 10^30 with links up to 10^6, then the other way round:
  // a site's sums stay below FLT_MAX, because an Inf - Inf in a sum gives
  // a NaN whose sign IEEE leaves open.  The compressed formats rebuild
  // SU(3) links, so they carry the thermal links under the spread
  // spinors.
  const LatticeGeometry g({4, 4, 4, 4});
  const NeighborTable nt(g, {}, 1);
  Rng rng(31);
  WilsonField<float> in(g);
  GaugeField<float> u(g);
  for (const auto& [spinor_exp, link_exp] : {std::pair{30.0, 6.0},
                                             std::pair{6.0, 30.0}}) {
    for (auto& site : in.sites()) {
      for (int a = 0; a < kNSpin; ++a) {
        for (int c = 0; c < kNColor; ++c) {
          site[a][c] = spread_cplx(rng, spinor_exp);
        }
      }
    }
    for (int mu = 0; mu < kNDim; ++mu) {
      for (std::int64_t s = 0; s < g.volume(); ++s) {
        for (auto& z : u.link(mu, s).m) z = spread_cplx(rng, link_exp);
      }
    }
    EXPECT_EQ(count_pair_lane_mismatches(u, in, nt), 0)
        << "full links, spinors to 1e" << spinor_exp;
    EXPECT_EQ(count_ghost_leg_mismatches(u, rng, spinor_exp, link_exp), 0)
        << "ghost legs, spinors to 1e" << spinor_exp;
  }
  const GaugeField<float> su3 = convert_gauge<float>(hot_gauge(g, 32));
  for (auto& site : in.sites()) {
    for (int a = 0; a < kNSpin; ++a) {
      for (int c = 0; c < kNColor; ++c) site[a][c] = spread_cplx(rng, 30.0);
    }
  }
  for (Reconstruct r : {Reconstruct::Twelve, Reconstruct::Eight}) {
    for (bool half : {false, true}) {
      const CompressedGaugeField<float> cu(su3, r, half);
      EXPECT_EQ(count_pair_lane_mismatches(cu, in, nt), 0)
          << "recon" << to_string(r) << (half ? "/half" : "");
    }
  }
#endif
}

TEST(Wilson, OperatorMatchesDenseMatrix) {
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 3);
  const double mass = -0.1;
  const WilsonField<double> in = gaussian_wilson_source(g, 4);

  WilsonCloverOperator<double> m(u, nullptr, mass);
  WilsonField<double> out(g);
  m.apply(out, in);

  const DenseMatrix<double> md = dense_wilson_clover(u, nullptr, mass);
  const auto dense_out = md.multiply(flatten(in));
  WilsonField<double> expect(g);
  unflatten(dense_out, expect);

  axpy(-1.0, expect, out);
  EXPECT_LT(norm2(out), 1e-20 * norm2(expect));
}

TEST(WilsonClover, OperatorMatchesDenseMatrix) {
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 5);
  const CloverField<double> a = build_clover_field(u, 1.3);
  const double mass = 0.05;
  const WilsonField<double> in = gaussian_wilson_source(g, 6);

  WilsonCloverOperator<double> m(u, &a, mass);
  WilsonField<double> out(g);
  m.apply(out, in);

  const DenseMatrix<double> md = dense_wilson_clover(u, &a, mass);
  const auto dense_out = md.multiply(flatten(in));
  WilsonField<double> expect(g);
  unflatten(dense_out, expect);

  axpy(-1.0, expect, out);
  EXPECT_LT(norm2(out), 1e-20 * norm2(expect));
}

TEST(WilsonClover, Gamma5Hermiticity) {
  // gamma5 M gamma5 = M^dag: <x, g5 M g5 y> = conj(<y, g5 M g5 x>) ...
  // equivalently <g5 x, M g5 y> = conj(<g5 y, M g5 x>).  Test via
  // <a, M b> = <g5 M g5 a, b>.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 7);
  const CloverField<double> cl = build_clover_field(u, 0.8);
  WilsonCloverOperator<double> m(u, &cl, -0.3);

  const WilsonField<double> a = gaussian_wilson_source(g, 8);
  const WilsonField<double> b = gaussian_wilson_source(g, 9);
  WilsonField<double> mb(g);
  m.apply(mb, b);
  const std::complex<double> lhs = dot(a, mb);

  // rhs = <g5 M g5 a, b>.
  WilsonField<double> g5a = a;
  apply_gamma5_field(g5a);
  WilsonField<double> mg5a(g);
  m.apply(mg5a, g5a);
  apply_gamma5_field(mg5a);
  const std::complex<double> rhs = std::conj(dot(b, mg5a));

  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

TEST(Wilson, FreeFieldActsDiagonallyOnConstant) {
  // On the free field a constant spinor field is an eigenvector of the
  // hopping term with eigenvalue 8 (all projectors sum to 2 per direction
  // pair), so M psi = (4 + m - 4) psi = m psi.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = unit_gauge(g);
  WilsonField<double> in(g);
  for (auto& s : in.sites()) {
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) s[sp][c] = Cplx<double>(1.0, -2.0);
    }
  }
  const double mass = 0.37;
  WilsonCloverOperator<double> m(u, nullptr, mass);
  WilsonField<double> out(g);
  m.apply(out, in);
  WilsonField<double> expect = in;
  scale(mass, expect);
  axpy(-1.0, expect, out);
  EXPECT_LT(norm2(out), 1e-20 * norm2(in));
}

TEST(Wilson, GaugeCovariance) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 10);
  const auto omega = random_gauge_rotation(g, 11);
  const GaugeField<double> v = gauge_transform(u, omega);
  const WilsonField<double> in = gaussian_wilson_source(g, 12);

  WilsonCloverOperator<double> mu_op(u, nullptr, 0.1);
  WilsonCloverOperator<double> mv_op(v, nullptr, 0.1);

  // M_v (Omega in) == Omega (M_u in).
  WilsonField<double> in_rot = gauge_transform(in, omega);
  WilsonField<double> lhs(g);
  mv_op.apply(lhs, in_rot);
  WilsonField<double> mu_in(g);
  mu_op.apply(mu_in, in);
  WilsonField<double> rhs = gauge_transform(mu_in, omega);
  axpy(-1.0, rhs, lhs);
  EXPECT_LT(norm2(lhs), 1e-20 * norm2(rhs));
}

TEST(Wilson, ParityRestrictedHopOnlyTouchesTarget) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 13);
  const WilsonField<double> in = gaussian_wilson_source(g, 14);
  WilsonField<double> out(g);
  // Poison the field; the Odd-target hop must rewrite odd sites only.
  for (auto& s : out.sites()) s[0][0] = Cplx<double>(777.0);
  wilson_hop(out, u, in, Parity::Odd);
  WilsonField<double> full(g);
  wilson_hop(full, u, in);
  for (std::int64_t s = 0; s < g.half_volume(); ++s) {
    EXPECT_EQ(out.at(s)[0][0], Cplx<double>(777.0));
  }
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    ASSERT_LT(norm2(out.at(s) - full.at(s)), 1e-24);
  }
}

TEST(Wilson, DirichletMaskDropsCrossBlockCoupling) {
  // With the mask, a source supported on one block produces output only in
  // that block.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 15);
  BlockMask mask(g, {1, 1, 1, 2});
  WilsonField<double> in(g);
  set_zero(in);
  // Delta source in block 0.
  in.at(Coord{1, 1, 1, 1})[0][0] = Cplx<double>(1.0);
  WilsonField<double> out(g);
  wilson_hop(out, u, in, std::nullopt, &mask);
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    if (mask.block_of_site(s) != 0) {
      ASSERT_EQ(norm2(out.at(s)), 0.0);
    }
  }
}

TEST(Wilson, NormalOperatorHermitianPositive) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 16);
  WilsonCloverOperator<double> m(u, nullptr, 0.2);
  WilsonNormalOperator<double> n(m);
  const WilsonField<double> a = gaussian_wilson_source(g, 17);
  const WilsonField<double> b = gaussian_wilson_source(g, 18);
  WilsonField<double> na(g), nb(g);
  n.apply(na, a);
  n.apply(nb, b);
  const auto ab = dot(a, nb);
  const auto ba = dot(b, na);
  EXPECT_NEAR(std::abs(ab - std::conj(ba)), 0.0, 1e-8 * std::abs(ab));
  EXPECT_GT(dot(a, na).real(), 0.0);
}

TEST(WilsonRecon, HopFromCompressedGaugeMatchesFull) {
  // The reconstruction executed in the hot path: the same hop kernel fed
  // from a reconstruct-N field must reproduce the full-gauge result to the
  // codec's round-trip accuracy (links are exactly unitary here).
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 21);
  const WilsonField<double> in = gaussian_wilson_source(g, 22);
  WilsonField<double> full(g);
  wilson_hop(full, u, in);

  const CompressedGaugeField<double> c12(u, Reconstruct::Twelve);
  WilsonField<double> out12(g);
  wilson_hop(out12, c12, in);
  axpy(-1.0, full, out12);
  EXPECT_LT(norm2(out12), 1e-24 * norm2(full));

  const CompressedGaugeField<double> c8(u, Reconstruct::Eight);
  WilsonField<double> out8(g);
  wilson_hop(out8, c8, in);
  axpy(-1.0, full, out8);
  EXPECT_LT(norm2(out8), 1e-16 * norm2(full));
}

TEST(WilsonRecon, OperatorReconMatchesDenseMatrix) {
  // The full fused operator running on compressed links still matches the
  // independent dense assembly (clover on).
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 23);
  const CloverField<double> a = build_clover_field(u, 1.1);
  const double mass = 0.05;
  const WilsonField<double> in = gaussian_wilson_source(g, 24);

  const DenseMatrix<double> md = dense_wilson_clover(u, &a, mass);
  const auto dense_out = md.multiply(flatten(in));
  WilsonField<double> expect(g);
  unflatten(dense_out, expect);

  for (Reconstruct r : {Reconstruct::Twelve, Reconstruct::Eight}) {
    WilsonCloverOperator<double> m(u, &a, mass, nullptr, r);
    EXPECT_EQ(m.recon(), r);
    WilsonField<double> out(g);
    m.apply(out, in);
    axpy(-1.0, expect, out);
    EXPECT_LT(norm2(out), 1e-16 * norm2(expect)) << to_string(r);
  }
}

TEST(WilsonRecon, SchurOperatorReconMatchesFull) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 25);
  const CloverField<double> a = build_clover_field(u, 0.9);
  WilsonCloverSchurOperator<double> ref(u, &a, 0.1);
  WilsonCloverSchurOperator<double> r12(u, &a, 0.1, nullptr,
                                        Reconstruct::Twelve);

  WilsonField<double> in = gaussian_wilson_source(g, 26);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    in.at(s) = WilsonSpinor<double>{};
  }
  WilsonField<double> expect(g), got(g);
  ref.apply(expect, in);
  r12.apply(got, in);
  axpy(-1.0, expect, got);
  EXPECT_LT(norm2(got), 1e-22 * norm2(expect));
}

TEST(WilsonRecon, EnvForcesSchemeOverCtorDefault) {
  // LQCD_RECON=12 must override the constructor's format everywhere.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 27);
  ASSERT_EQ(setenv("LQCD_RECON", "12", 1), 0);
  init_recon_from_env();
  WilsonCloverOperator<double> forced(u, nullptr, 0.2);
  unsetenv("LQCD_RECON");
  init_recon_from_env();
  EXPECT_EQ(forced.recon(), Reconstruct::Twelve);

  // And with it unset, the ctor default (seed behaviour) is back.
  WilsonCloverOperator<double> plain(u, nullptr, 0.2);
  EXPECT_EQ(plain.recon(), Reconstruct::None);
}

}  // namespace
}  // namespace lqcd
