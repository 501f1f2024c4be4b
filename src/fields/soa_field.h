#pragma once
/// \file soa_field.h
/// \brief Vector-blocked structure-of-arrays field storage — the CPU
/// counterpart of the paper's coalesced float4-style spinor/gauge ordering
/// (§6.2, Figs. 2-3), with the lane count playing the role of the warp's
/// coalescing width.
///
/// Sites keep the repo-wide even-odd order (even block first, X fastest),
/// but within each parity consecutive checkerboard sites are fused into
/// lane *blocks* of kSoaLanes<Real> sites (a "virtual node" of sites that
/// march through the kernel together).  Storage is component-major inside
/// a block:
///
///     data[(block * kReals + component) * kLanes + lane]
///
/// so a lane kernel loads one contiguous LaneVec per real component — the
/// exact analogue of a coalesced float4 load.  Because every lattice
/// extent is even and >= 2, the volume is divisible by 16 and the half
/// volume by 8, so the supported lane counts (2/4/8) always divide the
/// checkerboard evenly; the tail-block path exists for safety and is
/// exercised by tests, not by production geometries.
///
/// AoS <-> SoA transmuters are pure reorders of the site's raw reals —
/// bitwise lossless in both directions.
///
/// `SoAGaugeField` stores links in the same lane-blocked order, packed per
/// link with exactly the bytes `CompressedGaugeField` would store for the
/// same (scheme, half_storage) — including the int16 half-storage round
/// trip — so its scalar `link()` decompresses to bit-identical matrices
/// and the SoA hop inherits the recon/half numerics of the AoS hop.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "fields/compressed_gauge.h"
#include "fields/lattice_field.h"
#include "linalg/half.h"
#include "linalg/reconstruct.h"
#include "linalg/simd.h"
#include "util/parallel_for.h"

namespace lqcd {

namespace detail {
template <typename Site>
struct soa_site_real;
template <typename R>
struct soa_site_real<WilsonSpinor<R>> {
  using type = R;
};
}  // namespace detail

/// Lane-blocked SoA storage for one Site type.  Pad lanes of a tail block
/// are zero-initialized, so vector sweeps over whole blocks never read
/// indeterminate values.
template <typename Site>
class SoAField {
 public:
  using site_type = Site;
  using Real = typename detail::soa_site_real<Site>::type;
  static constexpr int kReals = static_cast<int>(sizeof(Site) / sizeof(Real));
  static constexpr int kLanes = kSoaLanes<Real>;

  explicit SoAField(const LatticeGeometry& geom)
      : geom_(geom),
        bpp_((geom.half_volume() + kLanes - 1) / kLanes),
        data_(static_cast<std::size_t>(2 * bpp_ * kReals * kLanes), Real(0)) {}

  const LatticeGeometry& geometry() const { return geom_; }
  std::int64_t blocks() const { return 2 * bpp_; }
  std::int64_t blocks_per_parity() const { return bpp_; }

  /// eo site index of lane 0 of block \p b (lanes hold consecutive eo
  /// indices within one parity).
  std::int64_t first_site(std::int64_t b) const {
    return b < bpp_ ? b * kLanes
                    : geom_.half_volume() + (b - bpp_) * kLanes;
  }

  /// In-range lanes of block \p b (< kLanes only for a parity's tail block
  /// when half_volume % kLanes != 0).
  int valid_lanes(std::int64_t b) const {
    const std::int64_t i = (b % bpp_) * kLanes;
    return static_cast<int>(
        std::min<std::int64_t>(kLanes, geom_.half_volume() - i));
  }

  std::int64_t block_of(std::int64_t s) const {
    const std::int64_t h = geom_.half_volume();
    return s < h ? s / kLanes : bpp_ + (s - h) / kLanes;
  }
  int lane_of(std::int64_t s) const {
    const std::int64_t h = geom_.half_volume();
    return static_cast<int>((s < h ? s : s - h) % kLanes);
  }

  /// Contiguous reals of block \p b: component k's lanes at [k*kLanes, ...).
  Real* block_data(std::int64_t b) {
    return data_.data() + static_cast<std::size_t>(b * kReals * kLanes);
  }
  const Real* block_data(std::int64_t b) const {
    return data_.data() + static_cast<std::size_t>(b * kReals * kLanes);
  }

  /// Pointer to component 0 of site \p s; component k lives at +k*kLanes.
  Real* site_base(std::int64_t s) {
    return block_data(block_of(s)) + lane_of(s);
  }
  const Real* site_base(std::int64_t s) const {
    return block_data(block_of(s)) + lane_of(s);
  }

  Real& real_at(std::int64_t s, int k) { return site_base(s)[k * kLanes]; }
  Real real_at(std::int64_t s, int k) const { return site_base(s)[k * kLanes]; }

  /// Gathered site value (tail path, transmuters, tests).
  Site site_at(std::int64_t s) const {
    Real tmp[kReals];
    const Real* base = site_base(s);
    for (int k = 0; k < kReals; ++k) tmp[k] = base[k * kLanes];
    Site out;
    std::memcpy(&out, tmp, sizeof(Site));
    return out;
  }
  void set_site(std::int64_t s, const Site& v) {
    Real tmp[kReals];
    std::memcpy(tmp, &v, sizeof(Site));
    Real* base = site_base(s);
    for (int k = 0; k < kReals; ++k) base[k * kLanes] = tmp[k];
  }

  std::span<Real> raw() { return data_; }
  std::span<const Real> raw() const { return data_; }

  void set_zero() { std::fill(data_.begin(), data_.end(), Real(0)); }

 private:
  LatticeGeometry geom_;
  std::int64_t bpp_;
  std::vector<Real> data_;
};

template <typename Real>
using SoAWilsonField = SoAField<WilsonSpinor<Real>>;

/// AoS -> SoA transmuter: a pure reorder of each site's raw reals (bitwise
/// lossless; the inverse round-trips exactly).
template <typename Site>
inline void to_soa(const LatticeField<Site>& src, SoAField<Site>& dst) {
  const auto s = src.sites();
  parallel_for(static_cast<std::int64_t>(s.size()), [&](std::int64_t i) {
    dst.set_site(i, s[static_cast<std::size_t>(i)]);
  });
}

/// SoA -> AoS transmuter (inverse reorder).
template <typename Site>
inline void from_soa(const SoAField<Site>& src, LatticeField<Site>& dst) {
  const auto d = dst.sites();
  parallel_for(static_cast<std::int64_t>(d.size()), [&](std::int64_t i) {
    d[static_cast<std::size_t>(i)] = src.site_at(i);
  });
}

/// Gauge links in lane-blocked SoA order.  Per (mu, block) the packed link
/// reals are component-major: slot(mu, b)[i * kLanes + lane] is packed real
/// i of the lane-th site of the block.  Packing reproduces
/// CompressedGaugeField byte for byte (same compress12/compress8 codec,
/// same half-storage int16 round trip with the pi bound on Packed8's angle
/// slots), so the scalar link() below is bit-identical to the AoS field's.
template <typename Real>
class SoAGaugeField {
 public:
  static constexpr int kLanes = kSoaLanes<Real>;

  SoAGaugeField(const GaugeField<Real>& u, Reconstruct scheme,
                bool half_storage = false)
      : geom_(u.geometry()), scheme_(scheme), half_(half_storage),
        stride_(reals_per_link(scheme)),
        bpp_((u.geometry().half_volume() + kLanes - 1) / kLanes),
        data_(static_cast<std::size_t>(kNDim * 2 * bpp_ * stride_ * kLanes),
              Real(0)) {
    const std::int64_t v = geom_.volume();
    for (int mu = 0; mu < kNDim; ++mu) {
      for (std::int64_t s = 0; s < v; ++s) {
        Real p[18];
        const Matrix3<Real>& m = u.link(mu, s);
        switch (scheme_) {
          case Reconstruct::None: {
            for (int i = 0; i < 9; ++i) {
              p[2 * i] = m.m[static_cast<std::size_t>(i)].real();
              p[2 * i + 1] = m.m[static_cast<std::size_t>(i)].imag();
            }
            break;
          }
          case Reconstruct::Twelve: {
            const Packed12<Real> q = compress12(m);
            for (int i = 0; i < 12; ++i) p[i] = q[static_cast<std::size_t>(i)];
            break;
          }
          case Reconstruct::Eight: {
            const Packed8<Real> q = compress8(m);
            for (int i = 0; i < 8; ++i) p[i] = q[static_cast<std::size_t>(i)];
            break;
          }
        }
        if (half_) {
          for (int i = 0; i < stride_; ++i) {
            const bool angle =
                scheme_ == Reconstruct::Eight && packed8_slot_is_angle(i);
            const float bound = angle ? 3.14159274f : 1.0f;
            const float x = static_cast<float>(p[i]);
            p[i] = static_cast<Real>(
                dequantize_fixed(quantize_fixed(x, 1.0f / bound), bound));
          }
        }
        Real* q = slot(mu, block_of(s));
        const int lane = lane_of(s);
        for (int i = 0; i < stride_; ++i) q[i * kLanes + lane] = p[i];
      }
    }
  }

  const LatticeGeometry& geometry() const { return geom_; }
  Reconstruct recon() const { return scheme_; }
  bool half_storage() const { return half_; }
  std::int64_t blocks_per_parity() const { return bpp_; }

  std::int64_t block_of(std::int64_t s) const {
    const std::int64_t h = geom_.half_volume();
    return s < h ? s / kLanes : bpp_ + (s - h) / kLanes;
  }
  int lane_of(std::int64_t s) const {
    const std::int64_t h = geom_.half_volume();
    return static_cast<int>((s < h ? s : s - h) % kLanes);
  }

  /// Packed reals of (mu, block): component-major, kLanes lanes per slot.
  const Real* block_slot(int mu, std::int64_t b) const { return slot(mu, b); }

  /// Decompressed link, by value — bit-identical to what a
  /// CompressedGaugeField built with the same (scheme, half) returns.
  Matrix3<Real> link(int mu, std::int64_t eo_index) const {
    const Real* q = slot(mu, block_of(eo_index));
    const int lane = lane_of(eo_index);
    switch (scheme_) {
      case Reconstruct::Twelve: {
        Packed12<Real> pk;
        for (int i = 0; i < 12; ++i) {
          pk[static_cast<std::size_t>(i)] = q[i * kLanes + lane];
        }
        return decompress12(pk);
      }
      case Reconstruct::Eight: {
        Packed8<Real> pk;
        for (int i = 0; i < 8; ++i) {
          pk[static_cast<std::size_t>(i)] = q[i * kLanes + lane];
        }
        return decompress8(pk);
      }
      case Reconstruct::None:
      default: {
        Matrix3<Real> m;
        for (int i = 0; i < 9; ++i) {
          m.m[static_cast<std::size_t>(i)] = Cplx<Real>(
              q[2 * i * kLanes + lane], q[(2 * i + 1) * kLanes + lane]);
        }
        return m;
      }
    }
  }

  std::int64_t stored_bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(Real));
  }

 private:
  const Real* slot(int mu, std::int64_t b) const {
    return data_.data() +
           static_cast<std::size_t>((mu * 2 * bpp_ + b) * stride_ * kLanes);
  }
  Real* slot(int mu, std::int64_t b) {
    return data_.data() +
           static_cast<std::size_t>((mu * 2 * bpp_ + b) * stride_ * kLanes);
  }

  LatticeGeometry geom_;
  Reconstruct scheme_;
  bool half_;
  int stride_;
  std::int64_t bpp_;
  std::vector<Real> data_;
};

template <typename Real>
inline Reconstruct gauge_recon(const SoAGaugeField<Real>& u) {
  return u.recon();
}

}  // namespace lqcd
