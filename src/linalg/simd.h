#pragma once
/// \file simd.h
/// \brief Build-time SIMD lane abstraction, the one lane family of the
/// library's lane kernels, in three uses: across sites in the
/// vector-blocked (SoA) field layout — the CPU analogue of the paper's
/// float4-style coalesced spinor ordering (§6.2) — across the spins of one
/// site in the AoS Wilson hop's spin-pair lanes, and across the colour
/// rows of one staggered site in its colour-row lanes (both
/// linalg/gamma.h).
///
/// A "lane pack" holds one real component of kSoaLanes<Real> consecutive
/// checkerboard sites, two spins' complex values of one colour, or two
/// colour rows of one colour vector.  On
/// GNU-compatible compilers the pack is a native GCC vector type, so every
/// elementwise op is one vertical instruction; on other compilers it
/// degrades to a fixed-size array with elementwise loops (the portable
/// scalar fallback — same values, auto-vectorizable).
///
/// The lane width is selected at build time via LQCD_SIMD_BYTES (16 =
/// 128-bit SSE2 baseline, 32 = 256-bit; default 16).  The width is part of
/// the tunecache aux key (see dirac/dslash_tune.h) and of the persisted
/// cache header (tune/tune_cache.cpp), so caches never migrate between
/// builds with different lane configurations.
///
/// **Bitwise contract.**  All operations here are *vertical*: each lane
/// undergoes exactly the IEEE operation the scalar kernel would perform on
/// that site, and lanes never mix.  Combined with the facts that (a) the
/// scalar kernels write every complex product out with cmul/cmul_conj
/// (linalg/types.h), the textbook (ac - bd, ad + bc) that cl_mul_acc
/// performs per lane — std::complex `*` forms the same products but
/// follows them with a NaN test that calls __mulsc3, so the lane and
/// scalar paths agree for every finite input, (b) unary minus and conj are
/// exact sign-bit flips, and (c) the default build is the SSE2 baseline so
/// no FMA contraction exists on either path, a lane kernel that mirrors
/// the scalar operation sequence step for step produces bit-identical
/// results per site.  There is one Wilson lane leg per layout: AoS fields
/// run spin-pair lanes (detail::pair_lane_site_hop, dirac/wilson_kernel.h;
/// tests/test_wilson.cpp asserts the contract against the scalar body),
/// SoA fields detail::lane_wilson_leg (tests/test_soa.cpp).  Every float
/// staggered hop runs colour-row lanes (detail::row_lane_site_hop,
/// dirac/staggered.h; tests/test_staggered.cpp).

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace lqcd {

#ifndef LQCD_SIMD_BYTES
#define LQCD_SIMD_BYTES 16
#endif

static_assert(LQCD_SIMD_BYTES == 16 || LQCD_SIMD_BYTES == 32,
              "LQCD_SIMD_BYTES must be 16 (128-bit) or 32 (256-bit)");

/// Sites fused per lane block for a given real type (4 floats / 2 doubles
/// at the 128-bit default).
template <typename Real>
inline constexpr int kSoaLanes = LQCD_SIMD_BYTES / static_cast<int>(sizeof(Real));

namespace detail {

/// Tune-key fragment appended by every SoA kernel: the data layout (and
/// lane width, a build-time choice via LQCD_SIMD_BYTES) changes the work
/// per loop iteration, so AoS and SoA variants must never share a
/// tunecache entry.  The persisted cache additionally carries the lane
/// configuration in its header (tune/tune_cache.cpp) and is invalidated
/// wholesale on mismatch.
template <typename Real>
std::string soa_aux() {
  return ",soa" + std::to_string(kSoaLanes<Real>);
}

/// Portable fallback lane pack: fixed-size elementwise arithmetic.  The
/// loops are trivially vectorizable, and each element op is the same IEEE
/// op the native vector path performs, so values are identical.
template <typename Real, int N>
struct LaneArray {
  Real v[N];

  Real operator[](int i) const { return v[i]; }
  Real& operator[](int i) { return v[i]; }

  LaneArray& operator+=(const LaneArray& o) {
    for (int i = 0; i < N; ++i) v[i] += o.v[i];
    return *this;
  }
  LaneArray& operator-=(const LaneArray& o) {
    for (int i = 0; i < N; ++i) v[i] -= o.v[i];
    return *this;
  }
  friend LaneArray operator+(LaneArray a, const LaneArray& b) { return a += b; }
  friend LaneArray operator-(LaneArray a, const LaneArray& b) { return a -= b; }
  friend LaneArray operator*(LaneArray a, const LaneArray& b) {
    for (int i = 0; i < N; ++i) a.v[i] *= b.v[i];
    return a;
  }
  friend LaneArray operator-(LaneArray a) {
    for (int i = 0; i < N; ++i) a.v[i] = -a.v[i];
    return a;
  }
};

template <typename Real, int N>
struct LaneVecImpl {
  using type = LaneArray<Real, N>;
};

#if defined(__GNUC__) || defined(__clang__)
#define LQCD_SOA_SIMD 1
// GCC vector extensions do not accept a dependent vector_size, so the
// supported (Real, lanes) pairs are enumerated explicitly.
template <>
struct LaneVecImpl<float, 4> {
  typedef float type __attribute__((vector_size(16)));
};
template <>
struct LaneVecImpl<double, 2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct LaneVecImpl<float, 8> {
  typedef float type __attribute__((vector_size(32)));
};
template <>
struct LaneVecImpl<double, 4> {
  typedef double type __attribute__((vector_size(32)));
};
// Sign masks of the spin-pair lanes (linalg/gamma.h).
template <>
struct LaneVecImpl<std::int32_t, 4> {
  typedef std::int32_t type __attribute__((vector_size(16)));
};
#endif

}  // namespace detail

/// One real component across N consecutive sites.
template <typename Real, int N = kSoaLanes<Real>>
using LaneVec = typename detail::LaneVecImpl<Real, N>::type;

/// Unaligned load/store (memcpy compiles to movups / plain copies).
template <typename Real, int N = kSoaLanes<Real>>
inline LaneVec<Real, N> lane_load(const Real* p) {
  LaneVec<Real, N> r;
  std::memcpy(&r, p, sizeof(r));
  return r;
}

template <typename Real, int N = kSoaLanes<Real>>
inline void lane_store(Real* p, const LaneVec<Real, N>& v) {
  std::memcpy(p, &v, sizeof(v));
}

/// x in every lane, brace-initialized (a per-lane store loop into an
/// uninitialized vector compiles to a stack round trip).
template <typename Real, int N = kSoaLanes<Real>>
inline LaneVec<Real, N> lane_broadcast(Real x) {
  return [x]<std::size_t... I>(std::index_sequence<I...>) {
    return LaneVec<Real, N>{((void)I, x)...};
  }(std::make_index_sequence<static_cast<std::size_t>(N)>{});
}

/// A complex value per lane, split re/im — vertical complex arithmetic.
template <typename Real, int N = kSoaLanes<Real>>
struct CplxLanes {
  LaneVec<Real, N> re, im;
};

/// Lane-wise complex add/sub (elementwise IEEE add/sub, as std::complex's).
template <typename Real, int N>
inline CplxLanes<Real, N> cl_add(const CplxLanes<Real, N>& a,
                                 const CplxLanes<Real, N>& b) {
  return CplxLanes<Real, N>{a.re + b.re, a.im + b.im};
}
template <typename Real, int N>
inline CplxLanes<Real, N> cl_sub(const CplxLanes<Real, N>& a,
                                 const CplxLanes<Real, N>& b) {
  return CplxLanes<Real, N>{a.re - b.re, a.im - b.im};
}

/// conj per lane: an exact sign-bit flip, mirroring std::conj.
template <typename Real, int N>
inline CplxLanes<Real, N> cl_conj(const CplxLanes<Real, N>& z) {
  return CplxLanes<Real, N>{z.re, -z.im};
}

/// i^p per lane: swaps and sign flips only, mirroring mul_i_pow().
template <typename Real, int N>
inline CplxLanes<Real, N> cl_mul_i_pow(int p, const CplxLanes<Real, N>& z) {
  switch (p & 3) {
    case 0: return z;
    case 1: return CplxLanes<Real, N>{-z.im, z.re};
    case 2: return CplxLanes<Real, N>{-z.re, -z.im};
    default: return CplxLanes<Real, N>{z.im, -z.re};
  }
}

/// acc += a * b with the textbook complex formula (ac - bd, ad + bc) — the
/// exact sequence the scalar `s += u(i,j) * v[j]` performs, per lane.
template <typename Real, int N>
inline void cl_mul_acc(CplxLanes<Real, N>& acc, const CplxLanes<Real, N>& a,
                       const CplxLanes<Real, N>& b) {
  acc.re += a.re * b.re - a.im * b.im;
  acc.im += a.re * b.im + a.im * b.re;
}

}  // namespace lqcd
