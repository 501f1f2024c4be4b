#pragma once
/// \file half.h
/// \brief The 16-bit fixed-point "half precision" storage format (§5 (c)).
///
/// QUDA's half format is not IEEE fp16: each site's components are stored as
/// int16 fixed-point values scaled by a per-site float norm (the site's
/// max-magnitude component), giving ~15 bits of relative precision per site
/// regardless of the site's overall scale.  Gauge links, whose entries are
/// bounded by one, use a fixed unit scale and need no norm array.
///
/// Arithmetic never happens in this format; kernels dequantize to fp32,
/// compute, and requantize on store — exactly the GPU register flow.  The
/// mixed-precision solvers emulate half-precision storage by round-tripping
/// fp32 fields through this codec after each kernel.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "linalg/simd.h"
#include "linalg/types.h"

namespace lqcd {

inline constexpr float kHalfScale = 32767.0f;

/// Deterministic pre-codec clamp/flush shared by every site encode path:
/// NaN -> +0, +-Inf -> +-FLT_MAX, subnormals flushed to (signed) zero.
/// After it, the codec arithmetic is NaN/Inf/denormal-free, so a
/// non-finite component always quantizes to the same int16 — and hence
/// decodes to the same bit pattern (for a clamped Inf the decode
/// q * (norm / kHalfScale) may round back to +-Inf; that too is the same
/// bits everywhere) — whichever entry point encoded it
/// (encode_site_half, roundtrip_site_half, or the inline fixed-width twin
/// below).  That path agreement is what the live-parity == full-field
/// contract of fields/precision.h requires; without it a NaN reached
/// std::min/max (which propagate it) and then an out-of-range
/// float->int16 cast — undefined behaviour, realized as different bits on
/// different paths.  Written as selects, no data-dependent branches.
inline float sanitize_half_component(float x) {
  x = std::isnan(x) ? 0.0f : x;
  x = std::isinf(x) ? std::copysign(std::numeric_limits<float>::max(), x) : x;
  x = std::fabs(x) < std::numeric_limits<float>::min() ? std::copysign(0.0f, x)
                                                       : x;
  return x;
}

/// Quantizes x in [-scale_bound, scale_bound] to int16 (round-to-nearest,
/// saturating).  Branch-free: round half away from zero is expressed as
/// v + copysign(0.5, v) then truncation, which matches the sign-tested
/// form for every input (including -0.0: both truncate to 0) without a
/// data-dependent branch.  The clamps put the constant first so a NaN
/// (possible for direct callers that skip sanitize_half_component, e.g.
/// the gauge codec on pathological links) collapses deterministically to
/// the upper clamp instead of reaching the int16 cast (UB): std::min/max
/// return their *first* argument when the comparison against a NaN is
/// false, and for finite inputs the operand order is irrelevant.
inline std::int16_t quantize_fixed(float x, float inv_scale_bound) {
  float v = x * inv_scale_bound * kHalfScale;
  v = std::min(kHalfScale, v);
  v = std::max(-kHalfScale, v);
  return static_cast<std::int16_t>(v + std::copysign(0.5f, v));
}

inline float dequantize_fixed(std::int16_t q, float scale_bound) {
  return static_cast<float>(q) * (scale_bound / kHalfScale);
}

/// Encodes a site's real components with a per-site norm.  Returns the norm
/// (max |component|, or 1 if the site is exactly zero so decode is exact).
float encode_site_half(std::span<const float> components,
                       std::span<std::int16_t> out);

/// Decodes a site previously encoded with encode_site_half.
void decode_site_half(std::span<const std::int16_t> in, float norm,
                      std::span<float> out);

/// In-place half-precision round trip of a site: the value a GPU kernel
/// would see after storing to and reloading from half storage.
void roundtrip_site_half(std::span<float> components);

namespace detail {

/// One component of the fixed-width round trip after sanitize: scale,
/// clamp, round half away from zero, truncating convert, decode.  The
/// scalar step roundtrip_site_half_n runs on the components its lanes do
/// not cover.
inline float requantize_half_component(float x, float inv, float back) {
  float v = x * inv * kHalfScale;
  v = std::min(kHalfScale, v);
  v = std::max(-kHalfScale, v);
  const int q = static_cast<int>(v + std::copysign(0.5f, v));
  return static_cast<float>(q) * back;
}

#ifdef LQCD_LANE_SIMD
/// Four components of a site on the lanes of one 128-bit float vector, and
/// the int32 vector of the same width.  Casts between the two reinterpret
/// the bits; __builtin_convertvector converts values.  A vector compare
/// yields an all-ones or all-zeros int32 lane, and `m ? a : b` selects per
/// lane.
using HalfLanes = LaneVec<float, 4>;
using HalfLaneInts = LaneVec<std::int32_t, 4>;

/// sanitize_half_component on four lanes, as selects on the IEEE class of
/// the input bits: NaN -> +0, +-Inf -> +-FLT_MAX, subnormal or zero ->
/// signed zero, anything else unchanged.  The classes are disjoint, so
/// this is the scalar select chain's result for every input.
inline HalfLanes sanitize_half_lanes(HalfLanes x) {
  const HalfLaneInts bits = (HalfLaneInts)x;
  const HalfLaneInts sign = bits & INT32_MIN;
  const HalfLaneInts mag = bits & INT32_MAX;
  constexpr std::int32_t kInf = 0x7f800000;
  constexpr std::int32_t kFltMax = 0x7f7fffff;
  constexpr std::int32_t kFltMin = 0x00800000;
  HalfLaneInts out = mag > kInf ? HalfLaneInts{} : bits;
  out = mag == kInf ? (sign | kFltMax) : out;
  out = mag < kFltMin ? sign : out;
  return (HalfLanes)out;
}

/// |x| per lane: clears the sign bit, as std::fabs.
inline HalfLanes half_lane_abs(HalfLanes x) {
  return (HalfLanes)((HalfLaneInts)x & INT32_MAX);
}

/// requantize_half_component on four lanes, operation for operation: the
/// same two multiplies, std::min(kHalfScale, v) and std::max(-kHalfScale,
/// v) as the compare-selects that define them (minps/maxps), copysign as a
/// sign-bit or, one add, a truncating convert (cvttps2dq, like the scalar
/// cvttss2si) and the decode multiply.
inline HalfLanes requantize_half_lanes(HalfLanes x, float inv, float back) {
  HalfLanes v = x * inv * kHalfScale;
  v = v < kHalfScale ? v : HalfLanes{} + kHalfScale;
  v = -kHalfScale < v ? v : HalfLanes{} - kHalfScale;
  const HalfLaneInts half =
      (HalfLaneInts)(HalfLanes{} + 0.5f) | ((HalfLaneInts)v & INT32_MIN);
  const HalfLaneInts q =
      __builtin_convertvector(v + (HalfLanes)half, HalfLaneInts);
  return __builtin_convertvector(q, HalfLanes) * back;
}
#endif

}  // namespace detail

/// Fixed-width inline round trip: element-for-element the same values as
/// encode_site_half + decode_site_half, restated branch-free so the speed
/// is data-independent (the solvers call this after every kernel, so it
/// sits on the mixed-precision hot path; the sign test in the
/// round-half-away step mispredicts ~50% on random-sign spinor data and
/// costs ~4x when written as a branch).  fabs/min/max/copysign compile to
/// bit ops; rounding via v + copysign(0.5, v) then truncation matches the
/// branchy form for every input, including -0.0 (both yield q = 0).  The
/// int32 intermediate is exact — values are already saturated to
/// +/-kHalfScale.  The sanitize pass (also branch-free) must mirror
/// encode_site_half exactly: both paths flush the same components before
/// computing the norm, so NaN/Inf/denormal sites decode to identical bits
/// here and there.
///
/// With GCC vector extensions the components run four at a time on float
/// lanes (the scalar loops do not vectorize: the selects read as control
/// flow).  Every lane step is vertical and performs the scalar step's IEEE
/// operation, so each component sees the scalar sequence.  The norm is a
/// max over sanitized magnitudes, none of them NaN or -0, so the lane-wise
/// max followed by a max across lanes gives the scalar loop's norm in any
/// order.  The N % 4 tail (a staggered site has 6 reals) and compilers
/// without vector extensions take the scalar body.
template <int N>
inline void roundtrip_site_half_n(float* x) {
  float norm = 0.0f;
#ifdef LQCD_LANE_SIMD
  constexpr int kFirst = N - N % 4;  // the scalar loops take the rest
  detail::HalfLanes v[kFirst / 4 + 1]{};
  detail::HalfLanes vmax{};
  for (int k = 0; k < kFirst / 4; ++k) {
    v[k] = detail::sanitize_half_lanes(lane_load<float, 4>(x + 4 * k));
    const detail::HalfLanes a = detail::half_lane_abs(v[k]);
    vmax = vmax < a ? a : vmax;
  }
  for (int l = 0; l < 4; ++l) norm = std::max(norm, vmax[l]);
#else
  constexpr int kFirst = 0;
#endif
  for (int i = kFirst; i < N; ++i) x[i] = sanitize_half_component(x[i]);
  for (int i = kFirst; i < N; ++i) norm = std::max(norm, std::fabs(x[i]));
  if (norm == 0.0f) norm = 1.0f;
  const float inv = 1.0f / norm;
  const float back = norm / kHalfScale;
#ifdef LQCD_LANE_SIMD
  for (int k = 0; k < kFirst / 4; ++k) {
    lane_store<float, 4>(x + 4 * k,
                         detail::requantize_half_lanes(v[k], inv, back));
  }
#endif
  for (int i = kFirst; i < N; ++i) {
    x[i] = detail::requantize_half_component(x[i], inv, back);
  }
}

/// Worst-case absolute error of the per-site codec given the encoded norm.
inline float half_error_bound(float norm) { return norm / kHalfScale; }

}  // namespace lqcd
