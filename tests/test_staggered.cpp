// Improved staggered (asqtad) operator: dense cross-check, anti-Hermitian
// derivative, parity decoupling of M^dag M, the colour-row lane site body
// against the scalar one, and the table-driven Schur apply against the
// hop-by-hop sequence it replaced, bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dirac/dense_reference.h"
#include "dirac/staggered.h"
#include "fields/blas.h"
#include "fields/precision.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "obs/metrics.h"
#include "util/parallel_for.h"
#include "util/rng.h"

namespace lqcd {
namespace {

struct Fixture {
  LatticeGeometry g{{4, 4, 4, 4}};
  GaugeField<double> u = hot_gauge(g, 21);
  AsqtadLinks links = build_asqtad_links(u);
};

TEST(Staggered, OperatorMatchesDenseMatrix) {
  Fixture f;
  const double mass = 0.08;
  const StaggeredField<double> in = gaussian_staggered_source(f.g, 22);
  StaggeredOperator<double> m(f.links.fat, f.links.lng, mass);
  StaggeredField<double> out(f.g);
  m.apply(out, in);

  const DenseMatrix<double> md = dense_staggered(f.links.fat, f.links.lng, mass);
  const auto dense_out = md.multiply(flatten(in));
  StaggeredField<double> expect(f.g);
  unflatten(dense_out, expect);
  axpy(-1.0, expect, out);
  EXPECT_LT(norm2(out), 1e-20 * norm2(expect));
}

TEST(Staggered, DerivativeAntiHermitian) {
  // <a, D b> = -conj(<b, D a>) with D = 2 (M - m).
  Fixture f;
  StaggeredOperator<double> m(f.links.fat, f.links.lng, 0.0);  // pure D/2
  const StaggeredField<double> a = gaussian_staggered_source(f.g, 23);
  const StaggeredField<double> b = gaussian_staggered_source(f.g, 24);
  StaggeredField<double> da(f.g), db(f.g);
  m.apply(da, a);
  m.apply(db, b);
  const auto lhs = dot(a, db);
  const auto rhs = -std::conj(dot(b, da));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * std::abs(lhs));
}

TEST(Staggered, EigenvaluesPureImaginaryShiftedByMass) {
  // For anti-Hermitian D, |M x|^2 = m^2 |x|^2 + |D x / 2|^2.
  Fixture f;
  const double mass = 0.1;
  StaggeredOperator<double> m(f.links.fat, f.links.lng, mass);
  StaggeredOperator<double> d_half(f.links.fat, f.links.lng, 0.0);
  const StaggeredField<double> x = gaussian_staggered_source(f.g, 25);
  StaggeredField<double> mx(f.g), dx(f.g);
  m.apply(mx, x);
  d_half.apply(dx, x);
  EXPECT_NEAR(norm2(mx), mass * mass * norm2(x) + norm2(dx),
              1e-8 * norm2(mx));
}

TEST(Staggered, HopFlipsParity) {
  Fixture f;
  StaggeredField<double> in(f.g);
  set_zero(in);
  // Even-site source.
  in.at(static_cast<std::int64_t>(0))[0] = 1.0;
  StaggeredField<double> out(f.g);
  staggered_hop(out, f.links.fat, f.links.lng, in);
  for (std::int64_t s = 0; s < f.g.half_volume(); ++s) {
    ASSERT_EQ(norm2(out.at(s)), 0.0) << "even site touched";
  }
}

TEST(Staggered, SchurOperatorMatchesDenseSchur) {
  // (M^dag M)_ee from the dense matrix == StaggeredSchurOperator.
  Fixture f;
  const double mass = 0.07;
  const double sigma = 0.02;
  StaggeredSchurOperator<double> schur(f.links.fat, f.links.lng, mass, sigma);

  StaggeredField<double> in = gaussian_staggered_source(f.g, 26);
  // Zero the odd part (operator convention).
  for (std::int64_t s = f.g.half_volume(); s < f.g.volume(); ++s) {
    in.at(s) = ColorVector<double>{};
  }
  StaggeredField<double> out(f.g);
  schur.apply(out, in);

  const DenseMatrix<double> md = dense_staggered(f.links.fat, f.links.lng, mass);
  const DenseMatrix<double> mdagm = md.adjoint() * md;
  auto flat = flatten(in);
  auto dense_out = mdagm.multiply(flat);
  // Add sigma and restrict to even sites.
  StaggeredField<double> expect(f.g);
  unflatten(dense_out, expect);
  for (std::int64_t s = 0; s < f.g.half_volume(); ++s) {
    ColorVector<double> v = in.at(s);
    v *= sigma;
    expect.at(s) += v;
  }
  for (std::int64_t s = f.g.half_volume(); s < f.g.volume(); ++s) {
    expect.at(s) = ColorVector<double>{};
  }
  axpy(-1.0, expect, out);
  EXPECT_LT(norm2(out), 1e-18 * norm2(expect));
}

TEST(Staggered, SchurHermitianPositiveDefinite) {
  Fixture f;
  StaggeredSchurOperator<double> schur(f.links.fat, f.links.lng, 0.05, 0.0);
  StaggeredField<double> a = gaussian_staggered_source(f.g, 27);
  StaggeredField<double> b = gaussian_staggered_source(f.g, 28);
  for (std::int64_t s = f.g.half_volume(); s < f.g.volume(); ++s) {
    a.at(s) = ColorVector<double>{};
    b.at(s) = ColorVector<double>{};
  }
  StaggeredField<double> sa(f.g), sb(f.g);
  schur.apply(sa, a);
  schur.apply(sb, b);
  const auto ab = dot(a, sb);
  const auto ba = dot(b, sa);
  EXPECT_NEAR(std::abs(ab - std::conj(ba)), 0.0, 1e-9 * std::abs(ab));
  EXPECT_GT(dot(a, sa).real(), 0.0);
}

TEST(Staggered, ShiftActsAsConstant) {
  Fixture f;
  StaggeredSchurOperator<double> base(f.links.fat, f.links.lng, 0.05, 0.0);
  StaggeredSchurOperator<double> shifted(f.links.fat, f.links.lng, 0.05, 0.3);
  StaggeredField<double> in = gaussian_staggered_source(f.g, 29);
  for (std::int64_t s = f.g.half_volume(); s < f.g.volume(); ++s) {
    in.at(s) = ColorVector<double>{};
  }
  StaggeredField<double> a(f.g), b(f.g);
  base.apply(a, in);
  shifted.apply(b, in);
  axpy(0.3, in, a);
  axpy(-1.0, a, b);
  EXPECT_LT(norm2(b), 1e-20 * norm2(a));
}

TEST(Staggered, GaugeCovariance) {
  Fixture f;
  const auto omega = random_gauge_rotation(f.g, 30);
  const GaugeField<double> v = gauge_transform(f.u, omega);
  const AsqtadLinks links_v = build_asqtad_links(v);
  const StaggeredField<double> in = gaussian_staggered_source(f.g, 31);

  StaggeredOperator<double> mu_op(f.links.fat, f.links.lng, 0.1);
  StaggeredOperator<double> mv_op(links_v.fat, links_v.lng, 0.1);

  StaggeredField<double> lhs(f.g);
  mv_op.apply(lhs, gauge_transform(in, omega));
  StaggeredField<double> mu_in(f.g);
  mu_op.apply(mu_in, in);
  const StaggeredField<double> rhs = gauge_transform(mu_in, omega);
  axpy(-1.0, rhs, lhs);
  EXPECT_LT(norm2(lhs), 1e-18 * norm2(rhs));
}

TEST(Staggered, DirichletCutKeepsBlockSupport) {
  LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 32);
  const AsqtadLinks links = build_asqtad_links(u);
  BlockMask mask(g, {1, 1, 1, 2});
  StaggeredField<double> in(g);
  set_zero(in);
  in.at(Coord{0, 0, 0, 1})[0] = 1.0;
  StaggeredField<double> out(g);
  staggered_hop(out, links.fat, links.lng, in, std::nullopt, &mask);
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    if (mask.block_of_site(s) != 0) {
      ASSERT_EQ(norm2(out.at(s)), 0.0);
    }
  }
}

#ifdef LQCD_LANE_SIMD
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

ColorVector<float> spread_vector(Rng& rng, double max_exp) {
  ColorVector<float> v;
  for (int c = 0; c < kNColor; ++c) {
    const float re = spread_float(rng, max_exp);
    v[c] = Cplx<float>(re, spread_float(rng, max_exp));
  }
  return v;
}

Matrix3<float> spread_matrix(Rng& rng, double max_exp) {
  Matrix3<float> u;
  for (auto& z : u.m) {
    const float re = spread_float(rng, max_exp);
    z = Cplx<float>(re, spread_float(rng, max_exp));
  }
  return u;
}

/// Sites where the row-lane body and the scalar body differ, over every
/// site and every drop mask (bit 4mu + k drops leg k of mu, legs ordered
/// +1, -1, +3, -3): none dropped, each single leg, and 64 random masks.
int count_row_lane_mismatches(const GaugeField<float>& fat,
                              const GaugeField<float>& lng,
                              const StaggeredField<float>& in, Rng& rng) {
  const LatticeGeometry& g = in.geometry();
  const NeighborTable nt(g, {}, 3);
  std::vector<std::uint32_t> masks{0};
  for (int k = 0; k < 4 * kNDim; ++k) masks.push_back(1u << k);
  for (int k = 0; k < 64; ++k) {
    masks.push_back(static_cast<std::uint32_t>(rng.below(1u << 16)));
  }
  const ColorVector<float>* psi = in.sites().data();
  int mismatches = 0;
  for (const std::uint32_t mask : masks) {
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      std::int64_t nb[4 * kNDim];
      detail::staggered_neighbors(nt, s, nullptr, nb);
      for (int k = 0; k < 4 * kNDim; ++k) {
        if ((mask >> k & 1u) != 0) nb[k] = -1;
      }
      const ColorVector<float> lanes =
          detail::row_lane_site_hop(fat, lng, psi, s, nb);
      const ColorVector<float> scalar =
          detail::scalar_staggered_site_hop<float>(fat, lng, psi, s, nb);
      if (std::memcmp(&lanes, &scalar, sizeof lanes) != 0) ++mismatches;
    }
  }
  return mismatches;
}

/// The exterior kernels' ghost-leg multiply on colour-row lanes against
/// the scalar operator* and adj_mul.
int count_leg_mul_mismatches(Rng& rng, double vector_exp, double link_exp) {
  int mismatches = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const ColorVector<float> v = spread_vector(rng, vector_exp);
    const Matrix3<float> u = spread_matrix(rng, link_exp);
    const ColorVector<float> fwd = detail::staggered_leg_mul<false>(u, v);
    const ColorVector<float> fwd_expect = u * v;
    const ColorVector<float> bwd = detail::staggered_leg_mul<true>(u, v);
    const ColorVector<float> bwd_expect = adj_mul(u, v);
    if (std::memcmp(&fwd, &fwd_expect, sizeof fwd) != 0) ++mismatches;
    if (std::memcmp(&bwd, &bwd_expect, sizeof bwd) != 0) ++mismatches;
  }
  return mismatches;
}
#endif

TEST(Staggered, RowLaneSiteHopBitwiseMatchesScalarBody) {
#ifndef LQCD_LANE_SIMD
  GTEST_SKIP() << "no vector extensions: every hop runs the scalar body";
#else
  // The colour-row lane body every float staggered hop runs against the
  // scalar body, memcmp per site, on lattices where the 3-hop legs wrap.
  // Components span 10^-30 to 10^30, +-0 and subnormals, so products
  // underflow and round differently in any other order.  The spinors
  // reach 10^30 with links up to 10^6, then the other way round: a site's
  // sums stay below FLT_MAX, because an Inf - Inf in a sum gives a NaN
  // whose sign IEEE leaves open.
  Rng rng(51);
  for (const LatticeGeometry& g :
       {LatticeGeometry({4, 4, 4, 4}), LatticeGeometry({4, 4, 6, 8})}) {
    StaggeredField<float> in(g);
    GaugeField<float> fat(g);
    GaugeField<float> lng(g);
    for (const auto& [spinor_exp, link_exp] : {std::pair{30.0, 6.0},
                                               std::pair{6.0, 30.0}}) {
      for (auto& site : in.sites()) site = spread_vector(rng, spinor_exp);
      for (GaugeField<float>* u : {&fat, &lng}) {
        for (int mu = 0; mu < kNDim; ++mu) {
          for (std::int64_t s = 0; s < g.volume(); ++s) {
            u->link(mu, s) = spread_matrix(rng, link_exp);
          }
        }
      }
      const std::string where = "z, t extents " + std::to_string(g.dim(2)) +
                                ", " + std::to_string(g.dim(3)) +
                                "; spinors to 1e" +
                                std::to_string(static_cast<int>(spinor_exp));
      EXPECT_EQ(count_row_lane_mismatches(fat, lng, in, rng), 0) << where;
      EXPECT_EQ(count_leg_mul_mismatches(rng, spinor_exp, link_exp), 0)
          << "ghost legs, " << where;
    }
  }
#endif
}

// The Schur apply as it ran before the neighbour table: staggered_hop on
// odd targets, staggered_hop on even targets, then a serial epilogue.  The
// bitwise reference of the table-driven apply.
template <typename Real>
void hop_by_hop_schur(StaggeredField<Real>& out, const GaugeField<Real>& fat,
                      const GaugeField<Real>& lng, double mass, double sigma,
                      const StaggeredField<Real>& in) {
  const LatticeGeometry& g = in.geometry();
  StaggeredField<Real> tmp(g);
  tmp.set_zero();
  staggered_hop(tmp, fat, lng, in, Parity::Odd);
  out.set_zero();
  staggered_hop(out, fat, lng, tmp, Parity::Even);
  const Real c = static_cast<Real>(mass * mass + sigma);
  for (std::int64_t s = 0; s < g.half_volume(); ++s) {
    ColorVector<Real> v = in.at(s);
    v *= c;
    ColorVector<Real> h = out.at(s);
    h *= Real(-0.25);
    v += h;
    out.at(s) = v;
  }
}

template <typename Real>
void expect_table_schur_matches_hop_by_hop(const LatticeGeometry& g,
                                           std::uint64_t seed) {
  const GaugeField<double> u = hot_gauge(g, seed);
  const AsqtadLinks links = build_asqtad_links(u);
  const GaugeField<Real> fat = convert_gauge<Real>(links.fat);
  const GaugeField<Real> lng = convert_gauge<Real>(links.lng);
  StaggeredField<Real> in =
      convert_field<Real>(gaussian_staggered_source(g, seed + 1));
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    in.at(s) = ColorVector<Real>{};
  }
  const auto bytes = in.sites().size_bytes();
  const auto half_bytes = bytes / 2;
  const std::vector<unsigned char> zeros(half_bytes, 0);
  const int prev_workers = worker_count();
  Counter& gauge_bytes = gauge_bytes_counter(Reconstruct::None);
  for (const double sigma : {0.0, 0.1}) {
    StaggeredField<Real> expect(g);
    std::uint64_t before = gauge_bytes.value();
    hop_by_hop_schur(expect, fat, lng, 0.07, sigma, in);
    const std::uint64_t hop_by_hop_bytes = gauge_bytes.value() - before;
    EXPECT_GT(hop_by_hop_bytes, 0u);
    const StaggeredSchurOperator<Real> op(fat, lng, 0.07, sigma);
    for (const int workers : {1, 4}) {
      set_worker_count(workers);
      StaggeredField<Real> out(g);
      // Poison out: the apply must write every site, the odd half too.
      for (auto& site : out.sites()) {
        for (int c = 0; c < kNColor; ++c) {
          site[c] = Cplx<Real>(std::numeric_limits<Real>::quiet_NaN(),
                               std::numeric_limits<Real>::quiet_NaN());
        }
      }
      before = gauge_bytes.value();
      op.apply(out, in);
      // The same nominal link loads as the two hops it replaces.
      EXPECT_EQ(gauge_bytes.value() - before, hop_by_hop_bytes);
      const std::string where = "dims " + std::to_string(g.dim(0)) + "x" +
                                std::to_string(g.dim(1)) + "x" +
                                std::to_string(g.dim(2)) + "x" +
                                std::to_string(g.dim(3)) + " sigma " +
                                std::to_string(sigma) + " workers " +
                                std::to_string(workers) + " bytes/real " +
                                std::to_string(sizeof(Real));
      EXPECT_EQ(std::memcmp(out.sites().data(), expect.sites().data(), bytes),
                0)
          << where;
      // The odd half is +0.0 everywhere: all-zero bytes.
      EXPECT_EQ(std::memcmp(out.sites().data() + g.half_volume(),
                            zeros.data(), half_bytes),
                0)
          << where;
    }
  }
  set_worker_count(prev_workers);
}

TEST(StaggeredSchurTable, BitwiseMatchesHopByHopSequence) {
  const std::vector<LatticeGeometry> geoms{LatticeGeometry({4, 4, 4, 4}),
                                           LatticeGeometry({4, 4, 6, 8}),
                                           LatticeGeometry({6, 6, 6, 12})};
  std::uint64_t seed = 40;
  for (const LatticeGeometry& g : geoms) {
    expect_table_schur_matches_hop_by_hop<double>(g, seed);
    expect_table_schur_matches_hop_by_hop<float>(g, seed);
    seed += 2;
  }
}

TEST(StaggeredSchurTable, OneTablePerExtentSetWhileHeld) {
  Fixture f;
  const GaugeField<float> fat_f = convert_gauge<float>(f.links.fat);
  const GaugeField<float> lng_f = convert_gauge<float>(f.links.lng);
  const LatticeGeometry g2({4, 4, 4, 8});
  const AsqtadLinks links2 = build_asqtad_links(hot_gauge(g2, 33));
  std::weak_ptr<const NeighborTable> first;
  {
    const StaggeredSchurOperator<double> a(f.links.fat, f.links.lng, 0.05,
                                           0.0);
    const StaggeredSchurOperator<double> b(f.links.fat, f.links.lng, 0.07,
                                           0.3);
    const StaggeredSchurOperator<float> c(fat_f, lng_f, 0.05, 0.0);
    const StaggeredSchurOperator<double> d(links2.fat, links2.lng, 0.05, 0.0);
    ASSERT_NE(a.neighbor_table(), nullptr);
    EXPECT_EQ(a.neighbor_table(), b.neighbor_table());
    EXPECT_EQ(a.neighbor_table(), c.neighbor_table());
    EXPECT_NE(a.neighbor_table(), d.neighbor_table());
    EXPECT_EQ(a.neighbor_table()->geometry(), f.g);
    EXPECT_EQ(d.neighbor_table()->geometry(), g2);
    EXPECT_EQ(a.neighbor_table()->max_hop(), 3);
    first = a.neighbor_table();
  }
  // Every holder is gone, so the table is gone with them ...
  EXPECT_TRUE(first.expired());
  // ... and the next operator gets a fresh one.
  const StaggeredSchurOperator<double> e(f.links.fat, f.links.lng, 0.05, 0.0);
  const std::shared_ptr<const NeighborTable>& fresh = e.neighbor_table();
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(first.owner_before(fresh) || fresh.owner_before(first));
  EXPECT_EQ(fresh->geometry(), f.g);
}

TEST(StaggeredSchurTable, ConcurrentConstructionSharesOneTable) {
  Fixture f;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const NeighborTable>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const StaggeredSchurOperator<double> op(f.links.fat, f.links.lng, 0.05,
                                              0.01 * t);
      got[static_cast<std::size_t>(t)] = op.neighbor_table();
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_NE(got[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], got[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace lqcd
