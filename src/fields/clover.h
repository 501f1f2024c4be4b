#pragma once
/// \file clover.h
/// \brief The packed clover term A_x and its inverse.
///
/// In the DeGrand-Rossi (chiral) basis the clover matrix
/// A = (c_sw/2) sigma_{mu nu} F_{mu nu} is block diagonal over chirality:
/// two 6x6 Hermitian blocks, one acting on spins {0,1} (x) color, one on
/// spins {2,3} (x) color — the "Hermitian block diagonal / anti-Hermitian
/// block off-diagonal" structure of 72 real parameters per site mentioned in
/// the paper.  The diagonal operator of Eq. (2) is (4 + m + A); even-odd
/// preconditioning needs its inverse on the opposite parity, computed
/// blockwise with a dense 6x6 LU.
///
/// A chiral block acts on spins (0, 1) or (2, 3) times colour, which is
/// exactly the spin-pair register layout of the float Wilson hop
/// (linalg/gamma.h): block rows k and 3 + k are the two spins of colour k,
/// so they share one 4-float vector.  Float clover_apply runs there
/// (detail::clover_block_pairs), and every Schur operator's site step
/// calls it (detail::schur_site, dirac/wilson_kernel.h).  Each block row
/// sums its columns with the lane mat-vec's column step from +0 in column
/// order, so the lane body keeps the bits of the scalar cmul sum
/// (detail::scalar_clover_apply, which serves double and builds without
/// vector extensions) for finite input.
/// The site keeps its row-major layout: rows k and 3 + k are two 8-byte
/// loads per column.

#include <array>
#include <type_traits>
#include <utility>

#include "fields/lattice_field.h"
#include "linalg/gamma.h"
#include "linalg/small_matrix.h"
#include "linalg/types.h"

namespace lqcd {

/// One 6x6 complex block, row-major; index = spin_in_block * 3 + color.
template <typename Real>
struct CloverBlock {
  std::array<Cplx<Real>, 36> m{};

  Cplx<Real>& operator()(int r, int c) {
    return m[static_cast<std::size_t>(r * 6 + c)];
  }
  const Cplx<Real>& operator()(int r, int c) const {
    return m[static_cast<std::size_t>(r * 6 + c)];
  }
};

/// Site value of a chirally-blocked clover-type operator.
template <typename Real>
struct CloverSite {
  std::array<CloverBlock<Real>, 2> chi{};
};

template <typename Real>
using CloverField = LatticeField<CloverSite<Real>>;

namespace detail {

/// clover_apply's scalar body: each block row sums cmul products from +0
/// in column order.  Double and builds without vector extensions run it,
/// and it is the reference the lane body mirrors.
template <typename Real>
WilsonSpinor<Real> scalar_clover_apply(const CloverSite<Real>& cs,
                                       const WilsonSpinor<Real>& psi) {
  WilsonSpinor<Real> out;
  for (int b = 0; b < 2; ++b) {
    const CloverBlock<Real>& blk = cs.chi[static_cast<std::size_t>(b)];
    for (int r = 0; r < 6; ++r) {
      Cplx<Real> acc{};
      for (int c = 0; c < 6; ++c) {
        acc += cmul(blk(r, c), psi[2 * b + c / 3][c % 3]);
      }
      out[2 * b + r / 3][r % 3] = acc;
    }
  }
  return out;
}

#ifdef LQCD_LANE_SIMD
/// One chiral block on spin-pair lanes: \p v[j] holds block columns j and
/// 3 + j (the block's two spins of colour j), and t[k] gets block rows k
/// and 3 + k.  Each t[k] sums its columns from +0 in column order with
/// ColumnLanes, so it keeps scalar_clover_apply's bits.
inline void clover_block_pairs(const CloverBlock<float>& blk,
                               const PairLanes v[kNColor],
                               PairLanes t[kNColor]) {
  for (int k = 0; k < kNColor; ++k) t[k] = PairLanes{};
  const auto column = [&]<int C>(std::integral_constant<int, C>) {
    const ColumnLanes<C / 3, false> col(v[C % 3]);
    for (int k = 0; k < kNColor; ++k) {
      const Cplx<float>& a = blk(k, C);
      const Cplx<float>& b = blk(3 + k, C);
      col.mul_add(t[k], PairLanes{a.real(), a.imag(), b.real(), b.imag()});
    }
  };
  [&]<int... C>(std::integer_sequence<int, C...>) {
    (column(std::integral_constant<int, C>{}), ...);
  }(std::make_integer_sequence<int, 6>{});
}
#endif

}  // namespace detail

/// y = C psi with C the block-diagonal site operator: on spin-pair lanes
/// for float, spins (0, 1) through block 0 and (2, 3) through block 1
/// (detail::clover_block_pairs), the scalar body otherwise; both give the
/// same bits for finite input.
template <typename Real>
WilsonSpinor<Real> clover_apply(const CloverSite<Real>& cs,
                                const WilsonSpinor<Real>& psi) {
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    detail::PairLanes lo[kNColor];
    detail::PairLanes hi[kNColor];
    detail::PairLanes out_lo[kNColor];
    detail::PairLanes out_hi[kNColor];
    detail::load_spinor_pairs(psi, lo, hi);
    detail::clover_block_pairs(cs.chi[0], lo, out_lo);
    detail::clover_block_pairs(cs.chi[1], hi, out_hi);
    return detail::store_spinor_pairs(out_lo, out_hi);
  } else
#endif
  {
    return detail::scalar_clover_apply(cs, psi);
  }
}

/// Adds \p diag to both blocks' diagonals (builds 4 + m + A from A).
template <typename Real>
CloverSite<Real> clover_add_diagonal(CloverSite<Real> cs, Real diag) {
  for (auto& blk : cs.chi) {
    for (int i = 0; i < 6; ++i) blk(i, i) += diag;
  }
  return cs;
}

/// Blockwise inverse via dense LU; throws on a singular block.
template <typename Real>
CloverSite<Real> clover_invert(const CloverSite<Real>& cs) {
  CloverSite<Real> out;
  for (int b = 0; b < 2; ++b) {
    DenseMatrix<Real> a(6, 6);
    const auto& blk = cs.chi[static_cast<std::size_t>(b)];
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c < 6; ++c) a(r, c) = blk(r, c);
    }
    const DenseMatrix<Real> inv = LuFactorization<Real>(a).inverse();
    auto& oblk = out.chi[static_cast<std::size_t>(b)];
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c < 6; ++c) oblk(r, c) = inv(r, c);
    }
  }
  return out;
}

/// The even-odd Schur system's diagonal block at one site
/// (dirac/even_odd.h): A_ee = 4 + m + A on an even site, A_oo^{-1} on an
/// odd one.  \p a may be null (plain Wilson); \p diag is 4 + m.
template <typename Real>
CloverSite<Real> schur_diagonal_site(const CloverSite<Real>* a, Real diag,
                                     bool odd) {
  const CloverSite<Real> cs =
      clover_add_diagonal(a != nullptr ? *a : CloverSite<Real>{}, diag);
  return odd ? clover_invert(cs) : cs;
}

/// Precision conversion of a clover site.
template <typename To, typename From>
CloverSite<To> convert(const CloverSite<From>& cs) {
  CloverSite<To> out;
  for (int b = 0; b < 2; ++b) {
    for (std::size_t k = 0; k < 36; ++k) {
      const auto& z = cs.chi[static_cast<std::size_t>(b)].m[k];
      out.chi[static_cast<std::size_t>(b)].m[k] =
          Cplx<To>(static_cast<To>(z.real()), static_cast<To>(z.imag()));
    }
  }
  return out;
}

}  // namespace lqcd
