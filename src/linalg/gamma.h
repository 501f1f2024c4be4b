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
///
/// For float the leg runs on spin-pair lanes (detail, below): a 4-float
/// vector per colour holds spins (0, 1), another spins (2, 3), and
/// projection, colour multiply and reconstruction are lane permutes, sign
/// flips, adds and multiplies derived from kGamma at compile time.  That
/// is the one Wilson lane leg.  The float staggered leg's colour multiply
/// runs on the same vectors with the colour rows across the lanes
/// (detail::mul_color_rows), and the float clover term's chiral blocks on
/// the spin-pair vectors (fields/clover.h); both sum their columns with
/// detail::ColumnLanes.

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
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

#ifdef LQCD_LANE_SIMD
// ---------------------------------------------------------------------------
// Spin-pair lanes: the float Wilson leg of every hop.
//
// A 4-float vector holds two spins of one colour, (re, im, re, im): per
// colour c, one vector holds spins (0, 1) and one spins (2, 3) of a
// spinor, or the two rows of a half spinor.  Every gamma_mu of the
// DeGrand-Rossi basis maps rows 0 and 1 to columns in {2, 3}, so
// project(), the colour multiply and accumulate_reconstruct() become a
// lane permute with sign flips, an add and a multiply on six vectors.
// Each lane op is the scalar step's IEEE op: i^p is a re/im swap plus a
// sign-bit flip, x + (-t) is the scalar's `x + (sign > 0 ? t : -t)`, and
// the multiply keeps cmul's product and the mat-vec's order.
// ---------------------------------------------------------------------------

/// Two spins of one colour: (re, im, re, im).
using PairLanes = LaneVec<float, 4>;

static_assert(
    [] {
      for (const GammaPattern& g : kGamma) {
        if (g.col[0] < 2 || g.col[1] < 2 || g.col[0] == g.col[1]) return false;
      }
      return true;
    }(),
    "spin-pair lanes need gamma_mu to map rows 0, 1 onto columns 2, 3");

/// A lane permutation with sign flips: lane l of the result is lane src[l]
/// of the operand with its sign bit flipped where neg[l].
struct PairShuffle {
  std::array<int, 4> src{};
  std::array<bool, 4> neg{};
};

/// Writes +-i^p z into slot \p to (lanes 2to, 2to+1) of \p s, z being the
/// complex in slot \p from of the operand; sign < 0 flips the whole term.
constexpr void place_i_pow(PairShuffle& s, int to, int from, int p,
                           int sign) {
  const int q = p & 3;
  const bool swap = (q & 1) != 0;
  const auto re = static_cast<std::size_t>(2 * to);
  s.src[re] = 2 * from + (swap ? 1 : 0);
  s.src[re + 1] = 2 * from + (swap ? 0 : 1);
  s.neg[re] = (q == 1 || q == 2) != (sign < 0);
  s.neg[re + 1] = (q == 2 || q == 3) != (sign < 0);
}

/// project(mu, sign)'s second term from the (2, 3) pair: row a gets
/// +-i^phase[a] psi[col[a]].
constexpr PairShuffle project_shuffle(int mu, int sign) {
  const GammaPattern& g = kGamma[static_cast<std::size_t>(mu)];
  PairShuffle s;
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    place_i_pow(s, a, g.col[aa] - 2, g.phase[aa], sign);
  }
  return s;
}

/// accumulate_reconstruct(mu, sign)'s second term into the (2, 3) pair:
/// spin col[a] gets +-conj(i^phase[a]) t[a].
constexpr PairShuffle reconstruct_shuffle(int mu, int sign) {
  const GammaPattern& g = kGamma[static_cast<std::size_t>(mu)];
  PairShuffle s;
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    place_i_pow(s, g.col[aa] - 2, a, (4 - g.phase[aa]) & 3, sign);
  }
  return s;
}

/// Applies \p S: one shuffle and, where a lane flips, one xor.
template <PairShuffle S>
inline PairLanes shuffle_pair(const PairLanes& v) {
  using Bits = LaneVec<std::int32_t, 4>;
  constexpr std::int32_t kSign = std::numeric_limits<std::int32_t>::min();
  const PairLanes r{v[S.src[0]], v[S.src[1]], v[S.src[2]], v[S.src[3]]};
  constexpr Bits mask{S.neg[0] ? kSign : 0, S.neg[1] ? kSign : 0,
                      S.neg[2] ? kSign : 0, S.neg[3] ? kSign : 0};
  return std::bit_cast<PairLanes>(std::bit_cast<Bits>(r) ^ mask);
}

/// Colour c of spins \p x and \p y on one pair.
inline PairLanes load_pair(const ColorVector<float>& x,
                           const ColorVector<float>& y, int c) {
  return PairLanes{x[c].real(), x[c].imag(), y[c].real(), y[c].imag()};
}

inline void store_pair(const PairLanes& v, ColorVector<float>& x,
                       ColorVector<float>& y, int c) {
  x[c] = Cplx<float>(v[0], v[1]);
  y[c] = Cplx<float>(v[2], v[3]);
}

/// The two rows of a half spinor on pairs, one per colour.
inline void load_half_pairs(const HalfSpinor<float>& h, PairLanes v[kNColor]) {
  for (int c = 0; c < kNColor; ++c) v[c] = load_pair(h[0], h[1], c);
}

/// Spins (0, 1) of \p psi into \p lo and (2, 3) into \p hi, per colour.
inline void load_spinor_pairs(const WilsonSpinor<float>& psi,
                              PairLanes lo[kNColor], PairLanes hi[kNColor]) {
  for (int c = 0; c < kNColor; ++c) {
    lo[c] = load_pair(psi[0], psi[1], c);
    hi[c] = load_pair(psi[2], psi[3], c);
  }
}

/// A spinor held as spins (0, 1) in \p lo and (2, 3) in \p hi.
inline WilsonSpinor<float> store_spinor_pairs(const PairLanes lo[kNColor],
                                              const PairLanes hi[kNColor]) {
  WilsonSpinor<float> psi;
  for (int c = 0; c < kNColor; ++c) {
    store_pair(lo[c], psi[0], psi[1], c);
    store_pair(hi[c], psi[2], psi[3], c);
  }
  return psi;
}

/// project(Mu, Sign, psi) on pairs: h[c] holds rows (0, 1) of colour c.
template <int Mu, int Sign>
inline void project_pairs(const WilsonSpinor<float>& psi,
                          PairLanes h[kNColor]) {
  constexpr PairShuffle kS = project_shuffle(Mu, Sign);
  for (int c = 0; c < kNColor; ++c) {
    h[c] = load_pair(psi[0], psi[1], c) +
           shuffle_pair<kS>(load_pair(psi[2], psi[3], c));
  }
}

/// U h (Adj false) or U^dagger h (Adj true) on pairs: per output row,
/// t[i] = sum_j h[j] * re(m) + swap(h[j]) * (-im(m), im(m), ...) from
/// t[i] = 0, in j order, with m = u(i,j) or conj(u(j,i)).  Per component
/// that is cmul's (or cmul_conj's) product, re*re + im*(-im) being IEEE's
/// re*re - im*im and the imaginary sum commuted, added to the accumulator
/// in the scalar mat-vec's order, so every bit matches
/// operator*(Matrix3, ColorVector) and adj_mul on each row.
template <bool Adj>
inline void mul_half_lanes(const Matrix3<float>& u,
                           const PairLanes h[kNColor], PairLanes t[kNColor]) {
  // re(m) and (-im(m), im(m), ...) are shuffles of the entry of u: conj's
  // sign flip folds into the mask, -(-x) being x exactly.
  constexpr PairShuffle kRe{{0, 0, 0, 0}, {}};
  constexpr PairShuffle kIm{{1, 1, 1, 1}, {!Adj, Adj, !Adj, Adj}};
  PairLanes sh[kNColor];
  for (int j = 0; j < kNColor; ++j) sh[j] = swap_re_im(h[j]);
  for (int i = 0; i < kNColor; ++i) {
    PairLanes acc{};
    for (int j = 0; j < kNColor; ++j) {
      const Cplx<float>& m = Adj ? u(j, i) : u(i, j);
      const PairLanes z{m.real(), m.imag(), m.real(), m.imag()};
      acc += h[j] * shuffle_pair<kRe>(z) + sh[j] * shuffle_pair<kIm>(z);
    }
    t[i] = acc;
  }
}

/// accumulate_reconstruct(Mu, Sign, t, acc) on pairs: lo and hi hold
/// spins (0, 1) and (2, 3) of the accumulator.
template <int Mu, int Sign>
inline void reconstruct_pairs(const PairLanes t[kNColor],
                              PairLanes lo[kNColor], PairLanes hi[kNColor]) {
  constexpr PairShuffle kS = reconstruct_shuffle(Mu, Sign);
  for (int c = 0; c < kNColor; ++c) {
    lo[c] += t[c];
    hi[c] += shuffle_pair<kS>(t[c]);
  }
}

/// The float half-spinor multiply of operator* and adj_mul on pairs.
template <bool Adj>
inline HalfSpinor<float> mul_half_pairs(const Matrix3<float>& u,
                                        const HalfSpinor<float>& h) {
  PairLanes v[kNColor];
  PairLanes t[kNColor];
  load_half_pairs(h, v);
  mul_half_lanes<Adj>(u, v, t);
  HalfSpinor<float> r;
  for (int c = 0; c < kNColor; ++c) store_pair(t[c], r[0], r[1], c);
  return r;
}

// ---------------------------------------------------------------------------
// Colour-row lanes: the float staggered leg.
//
// One colour vector on two 4-float vectors: rows (0, 1) in one as
// (re, im, re, im), row 2 in the low half of the other, +0 in its high
// half.  A mat-vec broadcasts v[j] across the lanes for each column j and
// multiplies it by the link entries of the output rows, so the lanes carry
// the rows and a leg needs no transpose or horizontal add.
// ---------------------------------------------------------------------------

/// A colour vector on colour-row lanes: rows (0, 1) in lo, row 2 in hi.
struct ColorRows {
  PairLanes lo;
  PairLanes hi;

  ColorRows& operator+=(const ColorRows& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  ColorRows& operator-=(const ColorRows& o) {
    lo -= o.lo;
    hi -= o.hi;
    return *this;
  }
};

inline ColorRows load_color_rows(const ColorVector<float>& v) {
  return ColorRows{lane_load<float, 4>(reinterpret_cast<const float*>(&v[0])),
                   PairLanes{v[2].real(), v[2].imag(), 0.0f, 0.0f}};
}

inline ColorVector<float> store_color_rows(const ColorRows& r) {
  ColorVector<float> v;
  lane_store<float, 4>(reinterpret_cast<float*>(&v[0]), r.lo);
  v[2] = Cplx<float>(r.hi[0], r.hi[1]);
  return v;
}

/// The broadcasts of one column of a lane mat-vec: the complex x in slot
/// \p Slot of \p v as p = (re, re, re, re) and q = (-im, im, -im, im), or
/// for an adjoint (Adj true) p = (re, -re, re, -re) and q = (im, im, im,
/// im).
template <int Slot, bool Adj>
struct ColumnLanes {
  PairLanes p;
  PairLanes q;

  explicit ColumnLanes(const PairLanes& v)
      : p(shuffle_pair<PairShuffle{{2 * Slot, 2 * Slot, 2 * Slot, 2 * Slot},
                                   {false, Adj, false, Adj}}>(v)),
        q(shuffle_pair<PairShuffle{
              {2 * Slot + 1, 2 * Slot + 1, 2 * Slot + 1, 2 * Slot + 1},
              {!Adj, false, !Adj, false}}>(v)) {}

  /// t += z * p + swap(z) * q: the column's term of the two complex rows
  /// whose entries z holds, (re, im, re, im).  Per component that is
  /// cmul's (or, for the adjoint, cmul_conj's) two products and one add,
  /// x + (-y) being IEEE's x - y and the imaginary sum commuted, so a
  /// sum from t = +0 in column order keeps the scalar mat-vec's bits.
  void mul_add(PairLanes& t, const PairLanes& z) const {
    t += z * p + swap_re_im(z) * q;
  }
};

/// U v (Adj false) or U^dagger v (Adj true) on colour-row lanes: for each
/// column j, t += z * p + swap(z) * q from t = +0, in j order
/// (ColumnLanes).  z holds the link entries of the output rows, u(i, j),
/// or u(j, i) for the adjoint (rows 0 and 1 one contiguous load); p and q
/// broadcast v[j].  So every bit matches operator*(Matrix3, ColorVector)
/// and adj_mul.
template <bool Adj>
inline ColorRows mul_color_rows(const Matrix3<float>& u, const ColorRows& v) {
  ColorRows t{};
  const auto column = [&]<int J>(std::integral_constant<int, J>) {
    const ColumnLanes<J % 2, Adj> col(J < 2 ? v.lo : v.hi);
    PairLanes zlo;
    if constexpr (Adj) {
      zlo = lane_load<float, 4>(reinterpret_cast<const float*>(&u(J, 0)));
    } else {
      zlo = PairLanes{u(0, J).real(), u(0, J).imag(), u(1, J).real(),
                      u(1, J).imag()};
    }
    const Cplx<float>& c = Adj ? u(J, 2) : u(2, J);
    const PairLanes zhi{c.real(), c.imag(), 0.0f, 0.0f};
    col.mul_add(t.lo, zlo);
    col.mul_add(t.hi, zhi);
  };
  column(std::integral_constant<int, 0>{});
  column(std::integral_constant<int, 1>{});
  column(std::integral_constant<int, 2>{});
  return t;
}

/// Calls fn(std::integral_constant<int, mu>{}): the pair-lane legs take mu
/// as a template argument.
template <typename Fn>
inline decltype(auto) with_static_mu(int mu, Fn&& fn) {
  switch (mu) {
    case 0: return fn(std::integral_constant<int, 0>{});
    case 1: return fn(std::integral_constant<int, 1>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    default: return fn(std::integral_constant<int, 3>{});
  }
}
#endif

}  // namespace detail

/// The hop's color multiply: U applied to both color vectors of h,
/// bitwise operator*(Matrix3, ColorVector) on each.  Float runs the two
/// vectors on one set of lanes (detail::mul_half_lanes).
template <typename Real>
HalfSpinor<Real> operator*(const Matrix3<Real>& u, const HalfSpinor<Real>& h) {
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return detail::mul_half_pairs<false>(u, h);
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
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return detail::mul_half_pairs<true>(u, h);
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
