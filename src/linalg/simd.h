#pragma once
/// \file simd.h
/// \brief The library's one lane family: 128-bit GCC vectors of four
/// floats, two doubles or four int32s.  The float Wilson hop runs its
/// legs on spin-pair lanes (two spins' complex values of one colour per
/// vector) and the float staggered hop on colour-row lanes (two colour
/// rows of one colour vector), both built in linalg/gamma.h; the half
/// codec (linalg/half.h) quantizes four components per vector, and
/// WilsonSpinor's complex scale (linalg/types.h) runs two float or one
/// double complex component per vector.
///
/// The vectors exist only on GNU-compatible compilers, where this header
/// defines LQCD_LANE_SIMD.  Every lane kernel is compiled under it; other
/// compilers run the scalar bodies, which give the same values.
///
/// **Bitwise contract.**  Each lane op is the IEEE op the scalar body
/// performs on that real, in the scalar order: adds and multiplies are
/// vertical, and permutes and sign-bit flips are exact.  Combined with
/// the facts that (a) the scalar kernels write every complex product out
/// with cmul/cmul_conj (linalg/types.h), the textbook (ac - bd, ad + bc)
/// the lane multiplies form — std::complex `*` forms the same products
/// but follows them with a NaN test that calls __mulsc3 — and (b) the
/// default build is the SSE2 baseline, so no FMA contraction exists on
/// either path, a lane kernel produces the scalar body's bits for every
/// finite input.  tests/test_wilson.cpp (detail::pair_lane_site_hop) and
/// tests/test_staggered.cpp (detail::row_lane_site_hop) assert it against
/// the scalar site bodies.

#include <cstdint>
#include <cstring>

/// The width of every lane vector, in bytes.
#define LQCD_SIMD_BYTES 16

#if defined(__GNUC__) || defined(__clang__)
#define LQCD_LANE_SIMD 1

namespace lqcd {

namespace detail {

// GCC vector extensions do not accept a dependent vector_size, so the
// (element, lanes) pairs are enumerated explicitly.
template <typename T, int N>
struct LaneVecImpl;
template <>
struct LaneVecImpl<float, 4> {
  typedef float type __attribute__((vector_size(LQCD_SIMD_BYTES)));
};
template <>
struct LaneVecImpl<double, 2> {
  typedef double type __attribute__((vector_size(LQCD_SIMD_BYTES)));
};
template <>
struct LaneVecImpl<std::int32_t, 4> {
  typedef std::int32_t type __attribute__((vector_size(LQCD_SIMD_BYTES)));
};

}  // namespace detail

/// N values of type T on one lane vector.
template <typename T, int N>
using LaneVec = typename detail::LaneVecImpl<T, N>::type;

/// Unaligned load/store (memcpy compiles to movups / plain copies).
template <typename T, int N>
inline LaneVec<T, N> lane_load(const T* p) {
  LaneVec<T, N> r;
  std::memcpy(&r, p, sizeof(r));
  return r;
}

template <typename T, int N>
inline void lane_store(T* p, const LaneVec<T, N>& v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace lqcd

#endif
