// Clover term: field strength, chirality blocking, Hermiticity, site
// algebra and inversion.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dirac/even_odd.h"
#include "dirac/wilson_kernel.h"
#include "fields/clover.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "lattice/block_mask.h"
#include "util/parallel_for.h"
#include "util/rng.h"

namespace lqcd {
namespace {

TEST(Clover, FieldStrengthAntiHermitian) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 81);
  for (std::int64_t s = 0; s < 32; ++s) {
    const Coord x = g.eo_coords(s);
    for (int mu = 0; mu < kNDim; ++mu) {
      for (int nu = mu + 1; nu < kNDim; ++nu) {
        const Matrix3<double> f = field_strength(u, x, mu, nu);
        ASSERT_LT(norm2(f + adj(f)), 1e-24);
      }
    }
  }
}

TEST(Clover, FieldStrengthVanishesOnFreeField) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = unit_gauge(g);
  const Matrix3<double> f = field_strength(u, {0, 0, 0, 0}, 0, 1);
  EXPECT_LT(norm2(f), 1e-28);
}

TEST(Clover, FieldStrengthAntisymmetricInPlane) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 82);
  const Coord x{1, 2, 3, 0};
  const Matrix3<double> f01 = field_strength(u, x, 0, 1);
  const Matrix3<double> f10 = field_strength(u, x, 1, 0);
  EXPECT_LT(norm2(f01 + f10), 1e-24);
}

TEST(Clover, SigmaHermitianAndChiralityBlocked) {
  for (int mu = 0; mu < kNDim; ++mu) {
    for (int nu = mu + 1; nu < kNDim; ++nu) {
      const DenseMatrix<double> s = sigma_munu(mu, nu);
      for (int r = 0; r < kNSpin; ++r) {
        for (int c = 0; c < kNSpin; ++c) {
          EXPECT_NEAR(std::abs(s(r, c) - std::conj(s(c, r))), 0.0, 1e-14);
          if (r / 2 != c / 2) {
            EXPECT_NEAR(std::abs(s(r, c)), 0.0, 1e-14);
          }
        }
      }
    }
  }
}

TEST(Clover, TermVanishesOnFreeField) {
  const LatticeGeometry g({4, 4, 4, 4});
  const CloverField<double> a = build_clover_field(unit_gauge(g), 1.0);
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    for (int b = 0; b < 2; ++b) {
      for (const auto& z : a.at(s).chi[static_cast<std::size_t>(b)].m) {
        ASSERT_NEAR(std::abs(z), 0.0, 1e-14);
      }
    }
  }
}

TEST(Clover, TermHermitianBlocks) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 83);
  const CloverField<double> a = build_clover_field(u, 1.2);
  for (std::int64_t s = 0; s < 32; ++s) {
    for (int b = 0; b < 2; ++b) {
      const auto& blk = a.at(s).chi[static_cast<std::size_t>(b)];
      for (int r = 0; r < 6; ++r) {
        for (int c = 0; c < 6; ++c) {
          ASSERT_NEAR(std::abs(blk(r, c) - std::conj(blk(c, r))), 0.0, 1e-13);
        }
      }
    }
  }
}

TEST(Clover, LinearInCsw) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 84);
  const CloverField<double> a1 = build_clover_field(u, 1.0);
  const CloverField<double> a2 = build_clover_field(u, 2.0);
  for (std::int64_t s = 0; s < 16; ++s) {
    for (int b = 0; b < 2; ++b) {
      for (std::size_t k = 0; k < 36; ++k) {
        const auto z1 = a1.at(s).chi[static_cast<std::size_t>(b)].m[k];
        const auto z2 = a2.at(s).chi[static_cast<std::size_t>(b)].m[k];
        ASSERT_NEAR(std::abs(z2 - 2.0 * z1), 0.0, 1e-13);
      }
    }
  }
}

TEST(Clover, ApplyMatchesDenseBlocks) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 85);
  const CloverField<double> a = build_clover_field(u, 0.9);
  Rng rng(86);
  WilsonSpinor<double> psi;
  for (int sp = 0; sp < kNSpin; ++sp) {
    for (int c = 0; c < kNColor; ++c) {
      psi[sp][c] = Cplx<double>(rng.gaussian(), rng.gaussian());
    }
  }
  const CloverSite<double>& cs = a.at(5);
  const WilsonSpinor<double> out = clover_apply(cs, psi);
  for (int b = 0; b < 2; ++b) {
    for (int r = 0; r < 6; ++r) {
      Cplx<double> expect{};
      for (int c = 0; c < 6; ++c) {
        expect += cs.chi[static_cast<std::size_t>(b)](r, c) *
                  psi[2 * b + c / 3][c % 3];
      }
      EXPECT_NEAR(std::abs(out[2 * b + r / 3][r % 3] - expect), 0.0, 1e-13);
    }
  }
}

template <typename Real>
void expect_apply_keeps_std_complex_bits(const CloverField<double>& a) {
  const CloverField<Real> ar = convert_clover<Real>(a);
  const WilsonField<Real> in =
      convert_field<Real>(gaussian_wilson_source(a.geometry(), 87));
  for (std::int64_t s = 0; s < a.geometry().volume(); ++s) {
    const CloverSite<Real>& cs = ar.at(s);
    const WilsonSpinor<Real>& psi = in.at(s);
    WilsonSpinor<Real> expect;
    for (int b = 0; b < 2; ++b) {
      for (int r = 0; r < 6; ++r) {
        Cplx<Real> acc{};
        for (int c = 0; c < 6; ++c) {
          acc += cs.chi[static_cast<std::size_t>(b)](r, c) *
                 psi[2 * b + c / 3][c % 3];
        }
        expect[2 * b + r / 3][r % 3] = acc;
      }
    }
    const WilsonSpinor<Real> out = clover_apply(cs, psi);
    ASSERT_EQ(std::memcmp(&out, &expect, sizeof out), 0) << "site " << s;
  }
}

TEST(Clover, ApplyBitwiseMatchesStdComplexForm) {
  // clover_apply writes its products out with cmul; on finite data that
  // keeps every bit of the std::complex accumulation it replaced.
  const LatticeGeometry g({4, 4, 4, 4});
  const CloverField<double> a = build_clover_field(hot_gauge(g, 88), 0.9);
  expect_apply_keeps_std_complex_bits<double>(a);
  expect_apply_keeps_std_complex_bits<float>(a);
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

WilsonSpinor<float> spread_spinor(Rng& rng, double max_exp) {
  WilsonSpinor<float> psi;
  for (int a = 0; a < kNSpin; ++a) {
    for (int c = 0; c < kNColor; ++c) psi[a][c] = spread_cplx(rng, max_exp);
  }
  return psi;
}

CloverSite<float> spread_clover(Rng& rng, double max_exp) {
  CloverSite<float> cs;
  for (auto& blk : cs.chi) {
    for (auto& z : blk.m) z = spread_cplx(rng, max_exp);
  }
  return cs;
}

bool same_bits(const WilsonSpinor<float>& a, const WilsonSpinor<float>& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The Schur site step as the operators ran it before detail::schur_site,
/// on the scalar clover body: A_oo^{-1} hop, or A_ee psi - hop/4.
WilsonSpinor<float> unfused_schur_site(const CloverSite<float>& a,
                                       WilsonSpinor<float> hop,
                                       const WilsonSpinor<float>* psi) {
  if (psi == nullptr) return detail::scalar_clover_apply(a, hop);
  WilsonSpinor<float> v = detail::scalar_clover_apply(a, *psi);
  hop *= -0.25f;
  v += hop;
  return v;
}

/// M_hat in as the operators ran it before: the odd hop, an A_oo^{-1}
/// pass, the even hop, then the A_ee epilogue, each on the scalar bodies.
/// \p a holds A_ee on even sites and A_oo^{-1} on odd sites.
WilsonField<float> unfused_schur_apply(const GaugeField<float>& u,
                                       const CloverField<float>& a,
                                       const WilsonField<float>& in,
                                       const NeighborTable& nt,
                                       const LinkCut* cut) {
  const LatticeGeometry& g = in.geometry();
  const std::int64_t h = g.half_volume();
  WilsonField<float> tmp(g);
  WilsonField<float> out(g);
  std::int64_t sp[kNDim];
  std::int64_t sm[kNDim];
  for (std::int64_t s = h; s < g.volume(); ++s) {
    detail::wilson_neighbors(nt, s, cut, sp, sm);
    tmp.at(s) = detail::scalar_site_hop(u, in.sites().data(), s, sp, sm);
  }
  for (std::int64_t s = h; s < g.volume(); ++s) {
    tmp.at(s) = unfused_schur_site(a.at(s), tmp.at(s), nullptr);
  }
  for (std::int64_t s = 0; s < h; ++s) {
    detail::wilson_neighbors(nt, s, cut, sp, sm);
    out.at(s) = detail::scalar_site_hop(u, tmp.sites().data(), s, sp, sm);
  }
  for (std::int64_t s = 0; s < h; ++s) {
    out.at(s) = unfused_schur_site(a.at(s), out.at(s), &in.at(s));
  }
  return out;
}

/// Sites at which two fields' bits differ.
int count_field_mismatches(const WilsonField<float>& a,
                           const WilsonField<float>& b) {
  int n = 0;
  for (std::int64_t s = 0; s < a.geometry().volume(); ++s) {
    if (!same_bits(a.at(s), b.at(s))) ++n;
  }
  return n;
}

/// The single-domain Schur operator (whole lattice and Dirichlet-cut, one
/// RHS and a batch) against unfused_schur_apply, on the current workers.
/// Every output starts as a copy of an input, so a parity an apply leaves
/// unzeroed shows.
void expect_schur_apply_matches_unfused(
    const GaugeField<float>& u, const CloverField<float>& clover, double mass,
    const std::vector<WilsonField<float>>& ins) {
  const LatticeGeometry& g = u.geometry();
  const float d = static_cast<float>(4.0 + mass);
  CloverField<float> diag(g);
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    diag.at(s) = schur_diagonal_site(&clover.at(s), d, s >= g.half_volume());
  }
  const std::array<int, kNDim> grid{1, 1, 1, 2};
  const BlockMask mask(g, grid);
  const NeighborTable nt(g, {}, 1);
  std::vector<WilsonField<float>> outs = ins;
  std::vector<WilsonField<float>*> out_ptrs;
  std::vector<const WilsonField<float>*> in_ptrs;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    out_ptrs.push_back(&outs[i]);
    in_ptrs.push_back(&ins[i]);
  }
  const WilsonCloverSchurOperator<float> op(u, &clover, mass);
  const WilsonCloverSchurOperator<float> cut_op(u, &clover, mass, &mask);
  op.apply_multi(out_ptrs, in_ptrs);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const WilsonField<float> ref = unfused_schur_apply(u, diag, ins[i], nt,
                                                       nullptr);
    EXPECT_EQ(count_field_mismatches(outs[i], ref), 0) << "apply_multi " << i;
    WilsonField<float> out = ins[i];
    op.apply(out, ins[i]);
    EXPECT_EQ(count_field_mismatches(out, ref), 0) << "apply " << i;
    out = ins[i];
    cut_op.apply(out, ins[i]);
    EXPECT_EQ(count_field_mismatches(
                  out, unfused_schur_apply(u, diag, ins[i], nt, &mask)),
              0)
        << "cut apply " << i;
  }
}

TEST(Clover, PairLaneApplyBitwiseMatchesScalarBody) {
#ifndef LQCD_LANE_SIMD
  GTEST_SKIP() << "no vector extensions: clover_apply runs the scalar body";
#else
  // The spin-pair lane clover body against the scalar body, memcmp per
  // site, over random sites (both chiral blocks) whose components span
  // 10^-30 to 10^30, +-0 and subnormals, so products underflow and round
  // differently in any other order.  The clover reaches 10^30 with
  // spinors up to 10^6, then the other way round: every sum stays below
  // FLT_MAX, because an Inf - Inf gives a NaN whose sign IEEE leaves open
  // and the two bodies order their adds differently.
  Rng rng(41);
  for (const auto& [clover_exp, spinor_exp] : {std::pair{30.0, 6.0},
                                               std::pair{6.0, 30.0}}) {
    int mismatches = 0;
    for (int trial = 0; trial < 20000; ++trial) {
      const CloverSite<float> cs = spread_clover(rng, clover_exp);
      const WilsonSpinor<float> psi = spread_spinor(rng, spinor_exp);
      if (!same_bits(clover_apply(cs, psi),
                     detail::scalar_clover_apply(cs, psi))) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "clover to 1e" << clover_exp;
  }

  // Both forms of the Schur site step (schur_site: odd, and even with
  // its Schur input) against the unfused scalar sequence, on spread links,
  // spinors and clover sites: spinors to 10^20, links to 10^3 and clover
  // to 10^6 keep every sum finite.
  const LatticeGeometry g({4, 4, 4, 8});
  const NeighborTable nt(g, {}, 1);
  GaugeField<float> su(g);
  for (int mu = 0; mu < kNDim; ++mu) {
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      for (auto& z : su.link(mu, s).m) z = spread_cplx(rng, 3.0);
    }
  }
  WilsonField<float> sin(g);
  WilsonField<float> spsi(g);
  CloverField<float> sa(g);
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    sin.at(s) = spread_spinor(rng, 20.0);
    spsi.at(s) = spread_spinor(rng, 20.0);
    sa.at(s) = spread_clover(rng, 6.0);
  }
  int site_mismatches = 0;
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    std::int64_t sp[kNDim];
    std::int64_t sm[kNDim];
    detail::wilson_neighbors(nt, s, nullptr, sp, sm);
    const WilsonSpinor<float> hop =
        detail::scalar_site_hop(su, sin.sites().data(), s, sp, sm);
    const WilsonSpinor<float>* const psis[] = {nullptr, &spsi.at(s)};
    for (const WilsonSpinor<float>* p : psis) {
      if (!same_bits(detail::schur_site(sa.at(s), hop, p),
                     unfused_schur_site(sa.at(s), hop, p))) {
        ++site_mismatches;
      }
    }
  }
  EXPECT_EQ(site_mismatches, 0);

  // The operators on a thermal gauge and clover field, spread spinors to
  // 10^10, on 1 and 4 workers.
  const GaugeField<double> ud = hot_gauge(g, 42);
  const GaugeField<float> u = convert_gauge<float>(ud);
  const CloverField<float> clover =
      convert_clover<float>(build_clover_field(ud, 1.1));
  std::vector<WilsonField<float>> ins(3, WilsonField<float>(g));
  for (auto& f : ins) {
    for (auto& site : f.sites()) site = spread_spinor(rng, 10.0);
  }
  const int workers = worker_count();
  for (int w : {1, 4}) {
    set_worker_count(w);
    SCOPED_TRACE("workers " + std::to_string(w));
    expect_schur_apply_matches_unfused(u, clover, -0.2, ins);
  }
  set_worker_count(workers);
#endif
}

TEST(Clover, AddDiagonalThenInvertIsInverse) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 87);
  const CloverField<double> a = build_clover_field(u, 1.0);
  Rng rng(88);
  for (std::int64_t s = 0; s < 8; ++s) {
    const CloverSite<double> d = clover_add_diagonal(a.at(s), 4.0 - 0.1);
    const CloverSite<double> inv = clover_invert(d);
    WilsonSpinor<double> psi;
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        psi[sp][c] = Cplx<double>(rng.gaussian(), rng.gaussian());
      }
    }
    const WilsonSpinor<double> round = clover_apply(inv, clover_apply(d, psi));
    ASSERT_LT(norm2(round - psi), 1e-20);
  }
}

TEST(Clover, GaugeCovariantSpectrum) {
  // The clover term transforms as A -> Omega A Omega^dag sitewise, so the
  // applied norm on a rotated spinor is invariant.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 89);
  const auto omega = random_gauge_rotation(g, 90);
  const GaugeField<double> v = gauge_transform(u, omega);
  const CloverField<double> au = build_clover_field(u, 1.0);
  const CloverField<double> av = build_clover_field(v, 1.0);
  for (std::int64_t s = 0; s < 16; ++s) {
    Rng rng(91 + static_cast<std::uint64_t>(s));
    WilsonSpinor<double> psi;
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        psi[sp][c] = Cplx<double>(rng.gaussian(), rng.gaussian());
      }
    }
    // psi' = Omega psi at this site.
    WilsonSpinor<double> psi_rot;
    for (int sp = 0; sp < kNSpin; ++sp) psi_rot[sp] = omega.at(s) * psi[sp];
    const WilsonSpinor<double> a_psi = clover_apply(au.at(s), psi);
    WilsonSpinor<double> a_psi_rot;
    for (int sp = 0; sp < kNSpin; ++sp) {
      a_psi_rot[sp] = omega.at(s) * a_psi[sp];
    }
    const WilsonSpinor<double> b_psi = clover_apply(av.at(s), psi_rot);
    ASSERT_LT(norm2(b_psi - a_psi_rot), 1e-18);
  }
}

}  // namespace
}  // namespace lqcd
