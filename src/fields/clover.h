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

#include <array>

#include "fields/lattice_field.h"
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

/// y = C psi with C the block-diagonal site operator.
template <typename Real>
WilsonSpinor<Real> clover_apply(const CloverSite<Real>& cs,
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
