#pragma once
/// \file su3.h
/// \brief SU(3)-specific operations: Haar-like random links, reunitarization,
/// matrix exponentials for weak-field starts, cross products.

#include "linalg/types.h"
#include "util/rng.h"

namespace lqcd {

/// Complex 3-vector cross product with conjugation, (a x b)*, the standard
/// third-row completion of an SU(3) matrix from two orthonormal rows.
template <typename Real>
ColorVector<Real> cross_conj(const ColorVector<Real>& a,
                             const ColorVector<Real>& b) {
  ColorVector<Real> r;
  r[0] = std::conj(cmul(a[1], b[2]) - cmul(a[2], b[1]));
  r[1] = std::conj(cmul(a[2], b[0]) - cmul(a[0], b[2]));
  r[2] = std::conj(cmul(a[0], b[1]) - cmul(a[1], b[0]));
  return r;
}

/// Row accessors used by compression and reunitarization.
template <typename Real>
ColorVector<Real> row(const Matrix3<Real>& u, int r) {
  ColorVector<Real> v;
  for (int c = 0; c < kNColor; ++c) v[c] = u(r, c);
  return v;
}

template <typename Real>
void set_row(Matrix3<Real>& u, int r, const ColorVector<Real>& v) {
  for (int c = 0; c < kNColor; ++c) u(r, c) = v[c];
}

/// Projects a nearly-unitary matrix back to SU(3): Gram-Schmidt on the first
/// two rows, third row by conjugated cross product (unit determinant by
/// construction).
template <typename Real>
Matrix3<Real> reunitarize(const Matrix3<Real>& u);

/// Draws a (approximately Haar-distributed) random SU(3) matrix: two complex
/// Gaussian rows orthonormalized, third row completed.
Matrix3<double> random_su3(Rng& rng);

/// Random anti-Hermitian traceless matrix with Gaussian su(3) coefficients
/// scaled by \p eps; exp() of this is a weak-field link for eps -> 0.
Matrix3<double> random_antihermitian(Rng& rng, double eps);

/// Matrix exponential by scaled Taylor series (adequate for anti-Hermitian
/// generators of modest norm).
template <typename Real>
Matrix3<Real> expm(const Matrix3<Real>& a, int terms = 24);

/// Deviation from unitarity: || U U^dag - 1 ||_F.
template <typename Real>
Real unitarity_error(const Matrix3<Real>& u);

extern template Matrix3<float> reunitarize(const Matrix3<float>&);
extern template Matrix3<double> reunitarize(const Matrix3<double>&);
extern template Matrix3<float> expm(const Matrix3<float>&, int);
extern template Matrix3<double> expm(const Matrix3<double>&, int);
extern template float unitarity_error(const Matrix3<float>&);
extern template double unitarity_error(const Matrix3<double>&);

}  // namespace lqcd
