#pragma once
/// \file types.h
/// \brief Site-local linear-algebra value types: complex color vectors
/// (staggered fermions), 3x3 color matrices (gauge links), and 4-spin
/// Wilson spinors.
///
/// Everything is templated on the real type (float or double); the 16-bit
/// fixed-point "half" format of the paper is a *storage* codec (half.h), not
/// an arithmetic type, mirroring GPU behaviour where half data is expanded
/// to fp32 in registers.

#include <array>
#include <complex>
#include <cstddef>

#include "linalg/simd.h"

namespace lqcd {

template <typename Real>
using Cplx = std::complex<Real>;

inline constexpr int kNColor = 3;
inline constexpr int kNSpin = 4;

/// a * b written out: the two products and one subtract or add per
/// component that GCC's inline complex multiply forms, without the C99
/// Annex G fixup behind it (a NaN test that calls __mulsc3/__muldc3).  That
/// branch keeps every site loop built on std::complex `*` scalar; without
/// it the loops vectorize.  The fixup only runs when both components came
/// out NaN, which finite inputs never produce, so cmul is bitwise equal to
/// std::complex `*` whenever a and b are finite, overflow and underflow
/// included (tests/test_su3.cpp fuzzes it).  Complex division stays std::complex: its scaling is not a
/// written-out formula, and clover_invert's LU relies on it.
template <typename Real>
inline Cplx<Real> cmul(const Cplx<Real>& a, const Cplx<Real>& b) {
  return Cplx<Real>(a.real() * b.real() - a.imag() * b.imag(),
                    a.real() * b.imag() + a.imag() * b.real());
}

/// conj(a) * b written out, with the contract of cmul: the products of
/// conj(a) = (ar, -ai) with b, the exact sign flips folded into the add and
/// subtract.
template <typename Real>
inline Cplx<Real> cmul_conj(const Cplx<Real>& a, const Cplx<Real>& b) {
  return Cplx<Real>(a.real() * b.real() + a.imag() * b.imag(),
                    a.real() * b.imag() - a.imag() * b.real());
}

/// A 3-component complex color vector: one staggered fermion site, or one
/// spin component of a Wilson spinor.  6 reals.
template <typename Real>
struct ColorVector {
  std::array<Cplx<Real>, kNColor> c{};

  Cplx<Real>& operator[](int i) { return c[static_cast<std::size_t>(i)]; }
  const Cplx<Real>& operator[](int i) const {
    return c[static_cast<std::size_t>(i)];
  }

  ColorVector& operator+=(const ColorVector& o) {
    for (int i = 0; i < kNColor; ++i) c[static_cast<std::size_t>(i)] += o[i];
    return *this;
  }
  ColorVector& operator-=(const ColorVector& o) {
    for (int i = 0; i < kNColor; ++i) c[static_cast<std::size_t>(i)] -= o[i];
    return *this;
  }
  ColorVector& operator*=(const Cplx<Real>& a) {
    for (auto& x : c) x = cmul(x, a);
    return *this;
  }
  ColorVector& operator*=(Real a) {
    for (auto& x : c) x *= a;
    return *this;
  }

  friend ColorVector operator+(ColorVector a, const ColorVector& b) {
    return a += b;
  }
  friend ColorVector operator-(ColorVector a, const ColorVector& b) {
    return a -= b;
  }
  friend ColorVector operator*(const Cplx<Real>& s, ColorVector a) {
    return a *= s;
  }
  friend ColorVector operator*(Real s, ColorVector a) { return a *= s; }
  friend ColorVector operator-(ColorVector a) {
    return Real(-1) * a;
  }
};

/// <a, b> = sum_i conj(a_i) b_i.
template <typename Real>
Cplx<Real> inner(const ColorVector<Real>& a, const ColorVector<Real>& b) {
  Cplx<Real> s{};
  for (int i = 0; i < kNColor; ++i) s += cmul_conj(a[i], b[i]);
  return s;
}

/// Squared 2-norm.
template <typename Real>
Real norm2(const ColorVector<Real>& a) {
  Real s{};
  for (int i = 0; i < kNColor; ++i) s += std::norm(a[i]);
  return s;
}

#ifdef LQCD_LANE_SIMD
/// Swaps the real and imaginary parts of the complex values on a 128-bit
/// lane pack (an exact permutation).
inline LaneVec<float, 4> swap_re_im(const LaneVec<float, 4>& v) {
  return LaneVec<float, 4>{v[1], v[0], v[3], v[2]};
}
inline LaneVec<double, 2> swap_re_im(const LaneVec<double, 2>& v) {
  return LaneVec<double, 2>{v[1], v[0]};
}
#endif

/// A complex 3x3 color matrix (gauge link).  18 reals.
template <typename Real>
struct Matrix3 {
  // Row-major.
  std::array<Cplx<Real>, kNColor * kNColor> m{};

  Cplx<Real>& operator()(int r, int c) {
    return m[static_cast<std::size_t>(r * kNColor + c)];
  }
  const Cplx<Real>& operator()(int r, int c) const {
    return m[static_cast<std::size_t>(r * kNColor + c)];
  }

  static Matrix3 identity() {
    Matrix3 u;
    for (int i = 0; i < kNColor; ++i) u(i, i) = Cplx<Real>(1);
    return u;
  }
  static Matrix3 zero() { return Matrix3{}; }

  Matrix3& operator+=(const Matrix3& o) {
    for (std::size_t i = 0; i < m.size(); ++i) m[i] += o.m[i];
    return *this;
  }
  Matrix3& operator-=(const Matrix3& o) {
    for (std::size_t i = 0; i < m.size(); ++i) m[i] -= o.m[i];
    return *this;
  }
  Matrix3& operator*=(const Cplx<Real>& a) {
    for (auto& x : m) x = cmul(x, a);
    return *this;
  }
  Matrix3& operator*=(Real a) {
    for (auto& x : m) x *= a;
    return *this;
  }

  friend Matrix3 operator+(Matrix3 a, const Matrix3& b) { return a += b; }
  friend Matrix3 operator-(Matrix3 a, const Matrix3& b) { return a -= b; }
  friend Matrix3 operator*(const Cplx<Real>& s, Matrix3 a) { return a *= s; }
  friend Matrix3 operator*(Real s, Matrix3 a) { return a *= s; }

  friend Matrix3 operator*(const Matrix3& a, const Matrix3& b) {
    Matrix3 r;
    for (int i = 0; i < kNColor; ++i) {
      for (int k = 0; k < kNColor; ++k) {
        const Cplx<Real> aik = a(i, k);
        for (int j = 0; j < kNColor; ++j) r(i, j) += cmul(aik, b(k, j));
      }
    }
    return r;
  }
};

/// Hermitian conjugate.
template <typename Real>
Matrix3<Real> adj(const Matrix3<Real>& a) {
  Matrix3<Real> r;
  for (int i = 0; i < kNColor; ++i) {
    for (int j = 0; j < kNColor; ++j) r(i, j) = std::conj(a(j, i));
  }
  return r;
}

/// Matrix-vector product U v.
template <typename Real>
ColorVector<Real> operator*(const Matrix3<Real>& u, const ColorVector<Real>& v) {
  ColorVector<Real> r;
  for (int i = 0; i < kNColor; ++i) {
    Cplx<Real> s{};
    for (int j = 0; j < kNColor; ++j) s += cmul(u(i, j), v[j]);
    r[i] = s;
  }
  return r;
}

/// Adjoint matrix-vector product U^dagger v without forming the adjoint.
template <typename Real>
ColorVector<Real> adj_mul(const Matrix3<Real>& u, const ColorVector<Real>& v) {
  ColorVector<Real> r;
  for (int i = 0; i < kNColor; ++i) {
    Cplx<Real> s{};
    for (int j = 0; j < kNColor; ++j) s += cmul_conj(u(j, i), v[j]);
    r[i] = s;
  }
  return r;
}

template <typename Real>
Cplx<Real> trace(const Matrix3<Real>& a) {
  return a(0, 0) + a(1, 1) + a(2, 2);
}

template <typename Real>
Cplx<Real> det(const Matrix3<Real>& a) {
  return a(0, 0) * (a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1)) -
         a(0, 1) * (a(1, 0) * a(2, 2) - a(1, 2) * a(2, 0)) +
         a(0, 2) * (a(1, 0) * a(2, 1) - a(1, 1) * a(2, 0));
}

/// Frobenius norm squared.
template <typename Real>
Real norm2(const Matrix3<Real>& a) {
  Real s{};
  for (const auto& x : a.m) s += std::norm(x);
  return s;
}

/// A Wilson color-spinor: 4 spin components of 3 colors each.  24 reals.
template <typename Real>
struct WilsonSpinor {
  std::array<ColorVector<Real>, kNSpin> s{};

  ColorVector<Real>& operator[](int sp) {
    return s[static_cast<std::size_t>(sp)];
  }
  const ColorVector<Real>& operator[](int sp) const {
    return s[static_cast<std::size_t>(sp)];
  }

  WilsonSpinor& operator+=(const WilsonSpinor& o) {
    for (int i = 0; i < kNSpin; ++i) s[static_cast<std::size_t>(i)] += o[i];
    return *this;
  }
  WilsonSpinor& operator-=(const WilsonSpinor& o) {
    for (int i = 0; i < kNSpin; ++i) s[static_cast<std::size_t>(i)] -= o[i];
    return *this;
  }
  /// Every component times a, bitwise cmul(component, a) (the caxpy-type
  /// BLAS passes and the MR update).  With GCC vector extensions the
  /// components run in pairs (float) or one at a time (double) on 128-bit
  /// lanes holding (re, im, re, im): v * ar + swap(v) * (-ai, ai, ...).
  /// Per component that is re * ar + im * (-ai), which IEEE defines as
  /// re * ar - im * ai, and im * ar + re * ai, cmul's sum in the other
  /// order; so the lanes keep cmul's bits.  Left to the compiler, the
  /// twelve cmul calls vectorize into scalar products and shuffles.
  WilsonSpinor& operator*=(const Cplx<Real>& a) {
#ifdef LQCD_LANE_SIMD
    constexpr int kL = static_cast<int>(16 / sizeof(Real));
    using V = LaneVec<Real, kL>;
    static_assert(sizeof(s) == sizeof(Real) * 2 * kNSpin * kNColor);
    V re_scale{};
    V im_scale{};
    for (int l = 0; l < kL; ++l) {
      re_scale[l] = a.real();
      im_scale[l] = l % 2 == 0 ? -a.imag() : a.imag();
    }
    Real* p = reinterpret_cast<Real*>(s.data());
    for (int k = 0; k < 2 * kNSpin * kNColor; k += kL) {
      const V v = lane_load<Real, kL>(p + k);
      lane_store<Real, kL>(p + k, v * re_scale + swap_re_im(v) * im_scale);
    }
#else
    for (auto& v : s) v *= a;
#endif
    return *this;
  }
  WilsonSpinor& operator*=(Real a) {
    for (auto& v : s) v *= a;
    return *this;
  }

  friend WilsonSpinor operator+(WilsonSpinor a, const WilsonSpinor& b) {
    return a += b;
  }
  friend WilsonSpinor operator-(WilsonSpinor a, const WilsonSpinor& b) {
    return a -= b;
  }
  friend WilsonSpinor operator*(const Cplx<Real>& x, WilsonSpinor a) {
    return a *= x;
  }
  friend WilsonSpinor operator*(Real x, WilsonSpinor a) { return a *= x; }
};

template <typename Real>
Cplx<Real> inner(const WilsonSpinor<Real>& a, const WilsonSpinor<Real>& b) {
  Cplx<Real> r{};
  for (int i = 0; i < kNSpin; ++i) r += inner(a[i], b[i]);
  return r;
}

template <typename Real>
Real norm2(const WilsonSpinor<Real>& a) {
  Real r{};
  for (int i = 0; i < kNSpin; ++i) r += norm2(a[i]);
  return r;
}

/// Precision-converting copies (double <-> float) for mixed-precision
/// solvers.
template <typename To, typename From>
ColorVector<To> convert(const ColorVector<From>& v) {
  ColorVector<To> r;
  for (int i = 0; i < kNColor; ++i) {
    r[i] = Cplx<To>(static_cast<To>(v[i].real()), static_cast<To>(v[i].imag()));
  }
  return r;
}

template <typename To, typename From>
WilsonSpinor<To> convert(const WilsonSpinor<From>& v) {
  WilsonSpinor<To> r;
  for (int i = 0; i < kNSpin; ++i) r[i] = convert<To>(v[i]);
  return r;
}

template <typename To, typename From>
Matrix3<To> convert(const Matrix3<From>& u) {
  Matrix3<To> r;
  for (std::size_t i = 0; i < u.m.size(); ++i) {
    r.m[i] = Cplx<To>(static_cast<To>(u.m[i].real()),
                      static_cast<To>(u.m[i].imag()));
  }
  return r;
}

}  // namespace lqcd
