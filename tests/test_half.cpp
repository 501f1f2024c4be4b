#include "linalg/half.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "fields/packed_half.h"
#include "fields/precision.h"
#include "linalg/su3.h"
#include "util/rng.h"

namespace lqcd {
namespace {

TEST(Half, QuantizeRoundTripBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float y = dequantize_fixed(quantize_fixed(x, 1.0f), 1.0f);
    EXPECT_NEAR(x, y, 1.0f / kHalfScale);
  }
}

TEST(Half, QuantizeSaturates) {
  EXPECT_EQ(quantize_fixed(2.0f, 1.0f), 32767);
  EXPECT_EQ(quantize_fixed(-2.0f, 1.0f), -32767);
}

TEST(Half, SiteCodecErrorScalesWithNorm) {
  Rng rng(2);
  for (double scale : {1e-6, 1.0, 1e6}) {
    std::array<float, 24> site{}, decoded{};
    std::array<std::int16_t, 24> enc{};
    for (auto& v : site) {
      v = static_cast<float>(scale * rng.gaussian());
    }
    const float norm = encode_site_half(site, enc);
    decode_site_half(enc, norm, decoded);
    for (std::size_t i = 0; i < site.size(); ++i) {
      EXPECT_NEAR(site[i], decoded[i], half_error_bound(norm))
          << "scale=" << scale;
    }
  }
}

TEST(Half, ZeroSiteExact) {
  std::array<float, 6> site{}, decoded{1, 1, 1, 1, 1, 1};
  std::array<std::int16_t, 6> enc{};
  const float norm = encode_site_half(site, enc);
  decode_site_half(enc, norm, decoded);
  for (float v : decoded) EXPECT_EQ(v, 0.0f);
}

TEST(Half, RoundTripIdempotent) {
  // Quantizing an already-quantized site must be exact.
  Rng rng(3);
  std::array<float, 24> site{};
  for (auto& v : site) v = static_cast<float>(rng.gaussian());
  roundtrip_site_half(site);
  std::array<float, 24> again = site;
  roundtrip_site_half(again);
  for (std::size_t i = 0; i < site.size(); ++i) EXPECT_EQ(site[i], again[i]);
}

TEST(Half, QuantizeNonFiniteIsDeterministic) {
  // A NaN reaching the clamps collapses to the upper clamp (std::min/max
  // return their first argument on an unordered compare) — never the
  // float->int16 UB cast of an unclamped value.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quantize_fixed(nan, 1.0f), 32767);
  EXPECT_EQ(quantize_fixed(inf, 1.0f), 32767);
  EXPECT_EQ(quantize_fixed(-inf, 1.0f), -32767);
}

TEST(Half, SanitizeClampsAndFlushes) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(sanitize_half_component(std::numeric_limits<float>::quiet_NaN()),
            0.0f);
  EXPECT_EQ(sanitize_half_component(inf), std::numeric_limits<float>::max());
  EXPECT_EQ(sanitize_half_component(-inf),
            -std::numeric_limits<float>::max());
  // Subnormals flush to (signed) zero; normals pass through untouched.
  EXPECT_EQ(sanitize_half_component(std::numeric_limits<float>::denorm_min()),
            0.0f);
  EXPECT_TRUE(
      std::signbit(sanitize_half_component(-std::numeric_limits<float>::denorm_min())));
  EXPECT_EQ(sanitize_half_component(0.25f), 0.25f);
  EXPECT_EQ(sanitize_half_component(-std::numeric_limits<float>::min()),
            -std::numeric_limits<float>::min());
}

/// True when the inline round trip roundtrip_site_half_n<N> (lanes plus
/// scalar tail) writes the bits of the scalar reference, encode_site_half
/// then decode_site_half.
template <std::size_t N>
bool lane_codec_matches_reference(const std::array<float, N>& site) {
  std::array<std::int16_t, N> enc{};
  std::array<float, N> reference{};
  decode_site_half(enc, encode_site_half(site, enc), reference);
  std::array<float, N> inline_codec = site;
  roundtrip_site_half_n<static_cast<int>(N)>(inline_codec.data());
  return std::memcmp(reference.data(), inline_codec.data(),
                     sizeof(reference)) == 0;
}

/// A NaN, +-Inf and two subnormals placed at \p slots of an otherwise
/// Gaussian site must decode to the same bits through every entry point.
template <std::size_t N>
void expect_nonfinite_site_identical(const std::array<std::size_t, 5>& slots) {
  std::array<float, N> site{};
  Rng rng(7);
  for (auto& v : site) v = static_cast<float>(rng.gaussian());
  site[slots[0]] = std::numeric_limits<float>::quiet_NaN();
  site[slots[1]] = std::numeric_limits<float>::infinity();
  site[slots[2]] = -std::numeric_limits<float>::infinity();
  site[slots[3]] = std::numeric_limits<float>::denorm_min();
  site[slots[4]] = -1e-41f;  // subnormal

  std::array<float, N> decoded{};
  std::array<std::int16_t, N> enc{};
  const float norm = encode_site_half(site, enc);
  decode_site_half(enc, norm, decoded);

  std::array<float, N> via_roundtrip = site;
  roundtrip_site_half(via_roundtrip);

  std::array<float, N> via_inline = site;
  roundtrip_site_half_n<static_cast<int>(N)>(via_inline.data());

  for (std::size_t i = 0; i < site.size(); ++i) {
    EXPECT_FALSE(std::isnan(decoded[i])) << i;
    EXPECT_EQ(std::memcmp(&decoded[i], &via_roundtrip[i], sizeof(float)), 0)
        << i;
    EXPECT_EQ(std::memcmp(&decoded[i], &via_inline[i], sizeof(float)), 0)
        << i;
  }
  // The NaN collapsed to zero, not to a norm-scaled garbage value.  (The
  // Inf slots are the site's norm, FLT_MAX after the clamp; their decode
  // q * (norm / kHalfScale) may legitimately round back to +-Inf — what
  // the codec guarantees for them is the same bits on every path, asserted
  // above.)
  EXPECT_EQ(decoded[slots[0]], 0.0f);
}

TEST(Half, NonFiniteSiteEncodesIdenticallyOnEveryPath) {
  // The regression this guards: a NaN/Inf/denormal component must decode
  // to the same bit pattern whichever entry point encoded it — the
  // spanwise codec (encode/decode), the in-place round trip, and the
  // branch-free inline twin the mixed-precision solvers run.  A Wilson
  // site (24 reals, all on lanes) and a staggered one (6 reals: one lane
  // group and a two-component scalar tail, which holds +Inf and a
  // subnormal here).
  expect_nonfinite_site_identical<24>({0, 5, 11, 17, 23});
  expect_nonfinite_site_identical<6>({0, 4, 2, 3, 5});
}

template <std::size_t N>
void expect_lane_codec_matches_reference(std::uint64_t seed) {
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            kInf,
                            -kInf,
                            kMax,
                            -kMax,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-41f,
                            std::numeric_limits<float>::min(),
                            0.0f,
                            -0.0f};
  Rng rng(seed);
  int mismatches = 0;
  int first_bad = -1;
  constexpr int kSites = 20000;
  for (int n = 0; n < kSites; ++n) {
    std::array<float, N> site{};
    // Cycle through: one scale per site across the float range; a wide
    // spread of scales inside the site (tiny components quantize to zero
    // next to huge ones); and specials sprinkled over a scaled site.
    const int mode = n % 3;
    const int site_exp = static_cast<int>(rng.below(260)) - 140;
    for (auto& v : site) {
      const int e =
          mode == 1 ? static_cast<int>(rng.below(260)) - 140 : site_exp;
      v = std::ldexp(static_cast<float>(rng.gaussian()), e);
      if (mode == 2 && rng.below(5) == 0) {
        v = specials[rng.below(std::size(specials))];
      }
    }
    if (!lane_codec_matches_reference(site)) {
      if (first_bad < 0) first_bad = n;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "N = " << N << ", first bad site " << first_bad;

  // Whole-site edge cases: all +0, all -0, clamped norms, every component
  // the same special.
  for (const float x : specials) {
    std::array<float, N> site;
    site.fill(x);
    EXPECT_TRUE(lane_codec_matches_reference(site)) << "N = " << N << ", " << x;
  }
  std::array<float, N> mixed{};
  for (std::size_t i = 0; i < N; ++i) mixed[i] = specials[i % std::size(specials)];
  EXPECT_TRUE(lane_codec_matches_reference(mixed)) << "N = " << N;
  std::array<float, N> clamped{};
  clamped.fill(1.0f);
  clamped[N - 1] = -kMax;  // the norm is FLT_MAX, in the scalar tail for 6
  EXPECT_TRUE(lane_codec_matches_reference(clamped)) << "N = " << N;
}

TEST(Half, LaneCodecBitwiseMatchesScalarReference) {
  // roundtrip_site_half_n runs on float lanes (with a scalar tail for
  // N % 4); encode_site_half + decode_site_half stay scalar and are the
  // reference.
  expect_lane_codec_matches_reference<24>(31);
  expect_lane_codec_matches_reference<6>(32);
}

TEST(Half, PackedFieldMatchesEmulationOnNonFiniteSpinor) {
  // Same contract at field level: the live-parity/packed path and the
  // full-field emulation agree bitwise even when the spinor carries
  // non-finite and denormal components.
  LatticeGeometry g({4, 4, 4, 4});
  WilsonField<float> f(g);
  Rng rng(8);
  for (auto& s : f.sites()) {
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        s[sp][c] = Cplx<float>(static_cast<float>(rng.gaussian()),
                               static_cast<float>(rng.gaussian()));
      }
    }
  }
  f.at(0)[0][0] = Cplx<float>(std::numeric_limits<float>::quiet_NaN(), 1.0f);
  f.at(1)[1][2] = Cplx<float>(std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity());
  f.at(2)[3][1] = Cplx<float>(1e-41f, -std::numeric_limits<float>::denorm_min());

  WilsonField<float> emulated = f;
  half_roundtrip(emulated);

  PackedHalfWilson packed(g);
  packed.pack(f);
  WilsonField<float> unpacked(g);
  packed.unpack(unpacked);

  EXPECT_EQ(std::memcmp(emulated.sites().data(), unpacked.sites().data(),
                        emulated.sites().size_bytes()),
            0);

  // The parity-restricted round trip writes the same bits on its half.
  WilsonField<float> by_parity = f;
  half_roundtrip(by_parity, Parity::Even);
  half_roundtrip(by_parity, Parity::Odd);
  EXPECT_EQ(std::memcmp(emulated.sites().data(), by_parity.sites().data(),
                        emulated.sites().size_bytes()),
            0);
}

TEST(Half, PackedFieldMatchesEmulation) {
  // The int16 container and the in-place round trip must agree bitwise.
  LatticeGeometry g({4, 4, 4, 4});
  WilsonField<float> f(g);
  Rng rng(4);
  for (auto& s : f.sites()) {
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        s[sp][c] = Cplx<float>(static_cast<float>(rng.gaussian()),
                               static_cast<float>(rng.gaussian()));
      }
    }
  }
  WilsonField<float> emulated = f;
  half_roundtrip(emulated);

  PackedHalfWilson packed(g);
  packed.pack(f);
  WilsonField<float> unpacked(g);
  packed.unpack(unpacked);

  auto a = emulated.sites();
  auto b = unpacked.sites();
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        EXPECT_EQ(a[i][sp][c], b[i][sp][c]);
      }
    }
  }
}

TEST(Half, PackedFieldFootprint) {
  LatticeGeometry g({4, 4, 4, 4});
  PackedHalfWilson packed(g);
  // 24 int16 + 1 float norm per site.
  EXPECT_EQ(packed.storage_bytes(),
            static_cast<std::size_t>(g.volume()) * (24 * 2 + 4));
  PackedHalfStaggered staggered(g);
  EXPECT_EQ(staggered.storage_bytes(),
            static_cast<std::size_t>(g.volume()) * (6 * 2 + 4));
}

TEST(Half, GaugeRoundTripKeepsNearUnitarity) {
  LatticeGeometry g({2, 2, 2, 2});
  GaugeField<float> u(g);
  Rng rng(5);
  for (auto& link : u.all_links()) {
    link = convert<float>(random_su3(rng));
  }
  half_roundtrip(u);
  for (auto& link : u.all_links()) {
    EXPECT_LT(unitarity_error(link), 1e-3f);
  }
}

}  // namespace
}  // namespace lqcd
