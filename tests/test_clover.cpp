// Clover term: field strength, chirality blocking, Hermiticity, site
// algebra and inversion.
#include <gtest/gtest.h>

#include <cstring>

#include "fields/clover.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"

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
