#include "linalg/su3.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>

#include "linalg/gamma.h"

namespace lqcd {
namespace {

/// A random real with magnitude 10^e, e uniform in [-max_exp, max_exp],
/// and a random sign; one draw in 16 is instead +-0 or a subnormal.
template <typename Real>
Real spread_real(Rng& rng, double max_exp) {
  using Lim = std::numeric_limits<Real>;
  const Real specials[] = {Real(0), -Real(0), Lim::denorm_min(),
                           -Lim::denorm_min(), Lim::min() / Real(1024),
                           -Lim::min() / Real(3)};
  if (rng.below(16) == 0) return specials[rng.below(std::size(specials))];
  const double mag = std::pow(10.0, rng.uniform(-max_exp, max_exp));
  return static_cast<Real>(rng.below(2) == 0 ? mag : -mag);
}

bool same_bits(const void* a, const void* b, std::size_t n) {
  return std::memcmp(a, b, n) == 0;
}

/// cmul/cmul_conj against std::complex `*`, `*=` and std::conj(a) * b,
/// memcmp per product.  The magnitudes reach past the type's overflow and
/// underflow thresholds, so Inf/NaN components and subnormal results are
/// among the products compared.
template <typename Real>
void expect_cmul_matches_std_complex(std::uint64_t seed, double max_exp) {
  Rng rng(seed);
  constexpr int kPairs = 1'000'000;
  int mismatches = 0;
  int first_bad = -1;
  for (int i = 0; i < kPairs; ++i) {
    const Cplx<Real> a(spread_real<Real>(rng, max_exp),
                       spread_real<Real>(rng, max_exp));
    const Cplx<Real> b(spread_real<Real>(rng, max_exp),
                       spread_real<Real>(rng, max_exp));
    const Cplx<Real> product = a * b;
    Cplx<Real> in_place = a;
    in_place *= b;
    const Cplx<Real> conj_product = std::conj(a) * b;
    const Cplx<Real> c = cmul(a, b);
    const Cplx<Real> cc = cmul_conj(a, b);
    if (!same_bits(&c, &product, sizeof c) ||
        !same_bits(&c, &in_place, sizeof c) ||
        !same_bits(&cc, &conj_product, sizeof cc)) {
      if (first_bad < 0) first_bad = i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch at pair " << first_bad;
}

/// WilsonSpinor *= a (on 128-bit lanes where the build has vector
/// extensions) against std::complex `*=` per component, memcmp, over the
/// same spread of magnitudes.
template <typename Real>
void expect_spinor_scale_matches_std_complex(std::uint64_t seed,
                                             double max_exp) {
  Rng rng(seed);
  constexpr int kSpinors = 100'000;
  int mismatches = 0;
  for (int i = 0; i < kSpinors; ++i) {
    WilsonSpinor<Real> psi;
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        psi[sp][c] = Cplx<Real>(spread_real<Real>(rng, max_exp),
                                spread_real<Real>(rng, max_exp));
      }
    }
    const Cplx<Real> a(spread_real<Real>(rng, max_exp),
                       spread_real<Real>(rng, max_exp));
    WilsonSpinor<Real> expect = psi;
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) expect[sp][c] *= a;
    }
    psi *= a;
    if (!same_bits(&psi, &expect, sizeof psi)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Su3, SpinorScaleBitwiseMatchesStdComplex) {
  expect_spinor_scale_matches_std_complex<float>(25, 30.0);
  expect_spinor_scale_matches_std_complex<double>(26, 200.0);
}

/// The hop's color multiply on a half spinor (float runs both color
/// vectors on one set of lanes) against the per-vector mat-vecs, memcmp.
template <typename Real>
void expect_half_spinor_multiply_matches_per_vector(std::uint64_t seed,
                                                     double max_exp) {
  Rng rng(seed);
  constexpr int kTrials = 50'000;
  int mismatches = 0;
  for (int i = 0; i < kTrials; ++i) {
    Matrix3<Real> u;
    for (auto& z : u.m) {
      z = Cplx<Real>(spread_real<Real>(rng, max_exp),
                     spread_real<Real>(rng, max_exp));
    }
    HalfSpinor<Real> h;
    for (int a = 0; a < 2; ++a) {
      for (int c = 0; c < kNColor; ++c) {
        h[a][c] = Cplx<Real>(spread_real<Real>(rng, max_exp),
                             spread_real<Real>(rng, max_exp));
      }
    }
    const HalfSpinor<Real> t = u * h;
    const HalfSpinor<Real> ta = adj_mul(u, h);
    const ColorVector<Real> expect[4] = {u * h[0], u * h[1], adj_mul(u, h[0]),
                                         adj_mul(u, h[1])};
    if (!same_bits(&t[0], &expect[0], sizeof expect[0]) ||
        !same_bits(&t[1], &expect[1], sizeof expect[1]) ||
        !same_bits(&ta[0], &expect[2], sizeof expect[2]) ||
        !same_bits(&ta[1], &expect[3], sizeof expect[3])) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Su3, HalfSpinorMultiplyBitwiseMatchesPerVector) {
  // Unit-scale data as the hop sees it, then magnitudes past overflow and
  // underflow.
  expect_half_spinor_multiply_matches_per_vector<float>(27, 1.0);
  expect_half_spinor_multiply_matches_per_vector<float>(28, 30.0);
  expect_half_spinor_multiply_matches_per_vector<double>(29, 200.0);
}

TEST(Su3, CmulBitwiseMatchesStdComplexFloat) {
  expect_cmul_matches_std_complex<float>(21, 30.0);
}

TEST(Su3, CmulBitwiseMatchesStdComplexDouble) {
  expect_cmul_matches_std_complex<double>(22, 30.0);
  // Past double's own overflow and underflow thresholds too.
  expect_cmul_matches_std_complex<double>(23, 200.0);
}

TEST(Su3, SiteAlgebraBitwiseMatchesStdComplexForm) {
  // The AoS site algebra routes its products through cmul/cmul_conj; on
  // finite data every result keeps the bits of the std::complex form it
  // replaced, restated here operation for operation.
  Rng rng(24);
  auto cv = [&] {
    ColorVector<float> v;
    for (int i = 0; i < kNColor; ++i) {
      v[i] = Cplx<float>(static_cast<float>(rng.gaussian()),
                         static_cast<float>(rng.gaussian()));
    }
    return v;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Matrix3<float> u = convert<float>(random_su3(rng));
    const Matrix3<float> w = convert<float>(random_su3(rng));
    const ColorVector<float> a = cv();
    const ColorVector<float> b = cv();
    const Cplx<float> z(static_cast<float>(rng.gaussian()),
                        static_cast<float>(rng.gaussian()));

    ColorVector<float> uv, uhv, scaled = a, cross;
    Cplx<float> dot{};
    Matrix3<float> uw;
    for (int i = 0; i < kNColor; ++i) {
      Cplx<float> s{}, t{};
      for (int j = 0; j < kNColor; ++j) {
        s += u(i, j) * a[j];
        t += std::conj(u(j, i)) * a[j];
      }
      uv[i] = s;
      uhv[i] = t;
      scaled[i] *= z;
      dot += std::conj(a[i]) * b[i];
      for (int k = 0; k < kNColor; ++k) {
        for (int j = 0; j < kNColor; ++j) uw(i, j) += u(i, k) * w(k, j);
      }
    }
    cross[0] = std::conj(a[1] * b[2] - a[2] * b[1]);
    cross[1] = std::conj(a[2] * b[0] - a[0] * b[2]);
    cross[2] = std::conj(a[0] * b[1] - a[1] * b[0]);

    const ColorVector<float> got_uv = u * a;
    const ColorVector<float> got_uhv = adj_mul(u, a);
    const ColorVector<float> got_scaled = z * a;
    const ColorVector<float> got_cross = cross_conj(a, b);
    const Cplx<float> got_dot = inner(a, b);
    const Matrix3<float> got_uw = u * w;
    EXPECT_TRUE(same_bits(&got_uv, &uv, sizeof uv));
    EXPECT_TRUE(same_bits(&got_uhv, &uhv, sizeof uhv));
    EXPECT_TRUE(same_bits(&got_scaled, &scaled, sizeof scaled));
    EXPECT_TRUE(same_bits(&got_cross, &cross, sizeof cross));
    EXPECT_TRUE(same_bits(&got_dot, &dot, sizeof dot));
    EXPECT_TRUE(same_bits(&got_uw, &uw, sizeof uw));
  }
}

TEST(Su3, RandomIsUnitary) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Matrix3<double> u = random_su3(rng);
    EXPECT_LT(unitarity_error(u), 1e-12);
  }
}

TEST(Su3, RandomHasUnitDeterminant) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const Matrix3<double> u = random_su3(rng);
    const Cplx<double> d = det(u);
    EXPECT_NEAR(d.real(), 1.0, 1e-12);
    EXPECT_NEAR(d.imag(), 0.0, 1e-12);
  }
}

TEST(Su3, RandomCoversGroup) {
  // Mean of tr(U)/3 over Haar measure is 0.
  Rng rng(3);
  Cplx<double> mean{};
  const int n = 5000;
  for (int i = 0; i < n; ++i) mean += trace(random_su3(rng));
  mean /= static_cast<double>(3 * n);
  EXPECT_NEAR(std::abs(mean), 0.0, 0.02);
}

TEST(Su3, AdjointIsInverse) {
  Rng rng(4);
  const Matrix3<double> u = random_su3(rng);
  const Matrix3<double> p = u * adj(u);
  EXPECT_LT(std::sqrt(norm2(p - Matrix3<double>::identity())), 1e-12);
}

TEST(Su3, AdjMulMatchesAdjointMultiply) {
  Rng rng(5);
  const Matrix3<double> u = random_su3(rng);
  ColorVector<double> v;
  for (int i = 0; i < kNColor; ++i) {
    v[i] = Cplx<double>(rng.gaussian(), rng.gaussian());
  }
  const ColorVector<double> a = adj_mul(u, v);
  const ColorVector<double> b = adj(u) * v;
  EXPECT_LT(norm2(a - b), 1e-24);
}

TEST(Su3, ReunitarizeProjectsBack) {
  Rng rng(6);
  Matrix3<double> u = random_su3(rng);
  // Perturb.
  for (auto& z : u.m) z += Cplx<double>(0.01 * rng.gaussian(), 0.01 * rng.gaussian());
  const Matrix3<double> v = reunitarize(u);
  EXPECT_LT(unitarity_error(v), 1e-12);
  EXPECT_NEAR(det(v).real(), 1.0, 1e-12);
  // Should stay close to the perturbed matrix.
  EXPECT_LT(std::sqrt(norm2(v - u)), 0.2);
}

TEST(Su3, ExpmOfZeroIsIdentity) {
  const Matrix3<double> e = expm(Matrix3<double>::zero());
  EXPECT_LT(std::sqrt(norm2(e - Matrix3<double>::identity())), 1e-15);
}

TEST(Su3, ExpmOfAntiHermitianIsUnitary) {
  Rng rng(7);
  for (double eps : {0.01, 0.1, 0.5}) {
    const Matrix3<double> a = random_antihermitian(rng, eps);
    const Matrix3<double> e = expm(a);
    EXPECT_LT(unitarity_error(e), 1e-10) << "eps=" << eps;
    EXPECT_NEAR(std::abs(det(e)), 1.0, 1e-10);  // traceless generator
  }
}

TEST(Su3, ExpmAdditionOnCommutingArguments) {
  Rng rng(8);
  const Matrix3<double> a = random_antihermitian(rng, 0.2);
  const Matrix3<double> e1 = expm(a) * expm(a);
  Matrix3<double> a2 = a;
  a2 *= 2.0;
  const Matrix3<double> e2 = expm(a2);
  EXPECT_LT(std::sqrt(norm2(e1 - e2)), 1e-10);
}

TEST(Su3, CrossConjCompletesRightHanded) {
  Rng rng(9);
  const Matrix3<double> u = random_su3(rng);
  const ColorVector<double> r2 = cross_conj(row(u, 0), row(u, 1));
  EXPECT_LT(norm2(r2 - row(u, 2)), 1e-24);
}

TEST(Su3, TraceOfProductCyclic) {
  Rng rng(10);
  const Matrix3<double> a = random_su3(rng);
  const Matrix3<double> b = random_su3(rng);
  const Cplx<double> t1 = trace(a * b);
  const Cplx<double> t2 = trace(b * a);
  EXPECT_NEAR(t1.real(), t2.real(), 1e-12);
  EXPECT_NEAR(t1.imag(), t2.imag(), 1e-12);
}

}  // namespace
}  // namespace lqcd
