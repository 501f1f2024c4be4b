#pragma once
/// \file gamma.h
/// \brief Dirac gamma matrices in the DeGrand-Rossi basis and the spin
/// projector machinery used by the Wilson hopping term.
///
/// Each Euclidean gamma_mu in this basis has exactly one non-zero entry per
/// row, with value in {+1, -1, +i, -i}.  We encode gamma_mu(row, col[row]) =
/// i^phase[row], which lets the Dslash apply projectors with permutations
/// and sign flips only — no general 4x4 spin multiply.
///
/// The key optimization (used by QUDA and implemented in the Dslash here) is
/// spin projection: (1 +- gamma_mu) has rank two, so a projected spinor is
/// fully described by its first two spin components h_0, h_1
/// ("half spinor").  After the color multiply t_a = U h_a, the full spinor
/// is reconstructed as out[a] += t_a, out[col[a]] += s * conj(phase_a) t_a.
/// Transferring half spinors also halves ghost-zone traffic for Wilson-type
/// stencils; the byte accounting in perfmodel assumes it.

#include <array>
#include <type_traits>

#include "lattice/geometry.h"  // kNDim
#include "linalg/types.h"

namespace lqcd {

/// Multiplication by i^p without a complex multiply.
template <typename Real>
inline Cplx<Real> mul_i_pow(int p, const Cplx<Real>& z) {
  switch (p & 3) {
    case 0: return z;
    case 1: return Cplx<Real>(-z.imag(), z.real());
    case 2: return -z;
    default: return Cplx<Real>(z.imag(), -z.real());
  }
}

/// One-nonzero-per-row encoding of a 4x4 gamma matrix.
struct GammaPattern {
  std::array<int, kNSpin> col;    ///< column of the non-zero in each row
  std::array<int, kNSpin> phase;  ///< power of i: entry = i^phase
};

/// DeGrand-Rossi gamma_mu for mu = 0..3 (X, Y, Z, T).
inline constexpr std::array<GammaPattern, kNDim> kGamma = {{
    {{3, 2, 1, 0}, {1, 1, 3, 3}},  // gamma_x
    {{3, 2, 1, 0}, {2, 0, 0, 2}},  // gamma_y
    {{2, 3, 0, 1}, {1, 3, 3, 1}},  // gamma_z
    {{2, 3, 0, 1}, {0, 0, 0, 0}},  // gamma_t
}};

/// gamma5 = gamma_x gamma_y gamma_z gamma_t = diag(+1, +1, -1, -1) in this
/// basis.
inline constexpr std::array<int, kNSpin> kGamma5Sign = {+1, +1, -1, -1};

/// psi -> gamma_mu psi (full spinor form; reference path).
template <typename Real>
WilsonSpinor<Real> apply_gamma(int mu, const WilsonSpinor<Real>& psi) {
  const GammaPattern& g = kGamma[static_cast<std::size_t>(mu)];
  WilsonSpinor<Real> r;
  for (int s = 0; s < kNSpin; ++s) {
    const auto ss = static_cast<std::size_t>(s);
    for (int c = 0; c < kNColor; ++c) {
      r[s][c] = mul_i_pow(g.phase[ss], psi[g.col[ss]][c]);
    }
  }
  return r;
}

/// psi -> gamma5 psi.
template <typename Real>
WilsonSpinor<Real> apply_gamma5(const WilsonSpinor<Real>& psi) {
  WilsonSpinor<Real> r = psi;
  for (int s = 0; s < kNSpin; ++s) {
    if (kGamma5Sign[static_cast<std::size_t>(s)] < 0) r[s] *= Real(-1);
  }
  return r;
}

/// psi -> (1 + sign*gamma_mu) psi (full spinor form; reference path).
template <typename Real>
WilsonSpinor<Real> apply_one_pm_gamma(int mu, int sign,
                                      const WilsonSpinor<Real>& psi) {
  const GammaPattern& g = kGamma[static_cast<std::size_t>(mu)];
  WilsonSpinor<Real> r = psi;
  for (int s = 0; s < kNSpin; ++s) {
    const auto ss = static_cast<std::size_t>(s);
    for (int c = 0; c < kNColor; ++c) {
      const Cplx<Real> t = mul_i_pow(g.phase[ss], psi[g.col[ss]][c]);
      r[s][c] += sign > 0 ? t : -t;
    }
  }
  return r;
}

/// The rank-two content of (1 + sign*gamma_mu) psi: spin components 0 and 1.
template <typename Real>
struct HalfSpinor {
  std::array<ColorVector<Real>, 2> h{};
  ColorVector<Real>& operator[](int a) {
    return h[static_cast<std::size_t>(a)];
  }
  const ColorVector<Real>& operator[](int a) const {
    return h[static_cast<std::size_t>(a)];
  }
};

namespace detail {

#ifdef LQCD_SOA_SIMD
/// U h (Adj false) or U^dagger h (Adj true) for both color vectors of a
/// float half spinor at once, on 4-float lanes holding (h0_j, h1_j): per
/// output row, acc += v_j * re(m) + swap(v_j) * (-im(m), im(m), ...) for
/// j = 0, 1, 2 from acc = 0, with m = u(i,j) or conj(u(j,i)).  Per
/// component that is cmul's (or cmul_conj's) product, re*re + im*(-im)
/// being IEEE's re*re - im*im and the imaginary sum commuted, added to the
/// accumulator in the scalar mat-vec's order, so every bit matches
/// operator*(Matrix3, ColorVector) and adj_mul.
template <bool Adj>
inline HalfSpinor<float> mul_half_lanes(const Matrix3<float>& u,
                                        const HalfSpinor<float>& h) {
  using V = LaneVec<float, 4>;
  static_assert(sizeof(HalfSpinor<float>) == 12 * sizeof(float));
  const float* p = reinterpret_cast<const float*>(&h);
  V v[kNColor]{};
  V sv[kNColor]{};
  for (int j = 0; j < kNColor; ++j) {
    v[j] = V{p[2 * j], p[2 * j + 1], p[6 + 2 * j], p[7 + 2 * j]};
    sv[j] = swap_re_im(v[j]);
  }
  HalfSpinor<float> t;
  for (int i = 0; i < kNColor; ++i) {
    V acc{};
    for (int j = 0; j < kNColor; ++j) {
      const Cplx<float> m = Adj ? std::conj(u(j, i)) : u(i, j);
      acc += v[j] * V{m.real(), m.real(), m.real(), m.real()} +
             sv[j] * V{-m.imag(), m.imag(), -m.imag(), m.imag()};
    }
    t[0][i] = Cplx<float>(acc[0], acc[1]);
    t[1][i] = Cplx<float>(acc[2], acc[3]);
  }
  return t;
}
#endif

}  // namespace detail

/// The hop's color multiply: U applied to both color vectors of h,
/// bitwise operator*(Matrix3, ColorVector) on each.  Float runs the two
/// vectors on one set of lanes (detail::mul_half_lanes).
template <typename Real>
HalfSpinor<Real> operator*(const Matrix3<Real>& u, const HalfSpinor<Real>& h) {
#ifdef LQCD_SOA_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return detail::mul_half_lanes<false>(u, h);
  } else
#endif
  {
    HalfSpinor<Real> t;
    t[0] = u * h[0];
    t[1] = u * h[1];
    return t;
  }
}

/// U^dagger applied to both color vectors of h, bitwise adj_mul on each.
template <typename Real>
HalfSpinor<Real> adj_mul(const Matrix3<Real>& u, const HalfSpinor<Real>& h) {
#ifdef LQCD_SOA_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return detail::mul_half_lanes<true>(u, h);
  } else
#endif
  {
    HalfSpinor<Real> t;
    t[0] = adj_mul(u, h[0]);
    t[1] = adj_mul(u, h[1]);
    return t;
  }
}

/// Projects psi onto the upper two spin rows of (1 + sign*gamma_mu).
template <typename Real>
HalfSpinor<Real> project(int mu, int sign, const WilsonSpinor<Real>& psi) {
  const GammaPattern& g = kGamma[static_cast<std::size_t>(mu)];
  HalfSpinor<Real> out;
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    for (int c = 0; c < kNColor; ++c) {
      const Cplx<Real> t = mul_i_pow(g.phase[aa], psi[g.col[aa]][c]);
      out[a][c] = psi[a][c] + (sign > 0 ? t : -t);
    }
  }
  return out;
}

/// Accumulates the reconstruction of a projected, color-multiplied half
/// spinor into a full spinor: out += R(t) where R inverts project() given
/// the projector's rank-two row structure.
template <typename Real>
void accumulate_reconstruct(int mu, int sign, const HalfSpinor<Real>& t,
                            WilsonSpinor<Real>& out) {
  const GammaPattern& g = kGamma[static_cast<std::size_t>(mu)];
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    const int c_row = g.col[aa];
    // conj(i^p) = i^(-p) = i^((4-p) & 3)
    const int conj_phase = (4 - g.phase[aa]) & 3;
    for (int c = 0; c < kNColor; ++c) {
      out[a][c] += t[a][c];
      const Cplx<Real> v = mul_i_pow(conj_phase, t[a][c]);
      out[c_row][c] += sign > 0 ? v : -v;
    }
  }
}

}  // namespace lqcd
