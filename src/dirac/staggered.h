#pragma once
/// \file staggered.h
/// \brief Improved staggered (asqtad) Dirac operator (Eq. (3)) and the
/// even-odd M^dag M operator its CG solvers run on.
///
/// Convention (anti-Hermitian derivative; KS phases and the Naik
/// coefficient are folded into the fat/long fields by gauge/staggered_links):
///   D psi(x) = sum_mu [ F_mu(x) psi(x+mu)   - F_mu(x-mu)^dag  psi(x-mu)
///                     + L_mu(x) psi(x+3mu)  - L_mu(x-3mu)^dag psi(x-3mu) ]
///   M = m + (1/2) D,   M^dag = m - (1/2) D,
///   M^dag M = m^2 - (1/4) D^2.
/// Because every hop flips parity, D^2 is parity-diagonal and the even and
/// odd systems decouple (§3.1): the solver operates on
///   (M^dag M)_ee = m^2 - (1/4) D_eo D_oe
/// plus the multi-shift constants sigma_i of Eq. (4).
///
/// Every staggered hop — staggered_hop, StaggeredOperator,
/// StaggeredSchurOperator and the partitioned interior
/// (dirac/partitioned.h) — runs detail::staggered_site_hop over neighbour
/// indices read from a NeighborTable, with -1 for a dropped leg.  A float
/// field runs it on colour-row lanes (detail::row_lane_site_hop, the third
/// use of the lane family of linalg/simd.h: rows (0, 1) of a colour vector
/// in one 128-bit vector, row 2 in another), whose multiply the
/// partitioned exterior's ghost legs share (detail::staggered_leg_mul).
/// The scalar body (detail::scalar_staggered_site_hop) serves double,
/// builds without vector extensions and the tests.

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "dirac/dslash_tune.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "fields/blas.h"
#include "fields/compressed_gauge.h"
#include "fields/lattice_field.h"
#include "lattice/block_mask.h"
#include "lattice/neighbor_table.h"
#include "linalg/gamma.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"

namespace lqcd {

namespace detail {

/// Neighbour indices of site \p s for the staggered site body, four per
/// mu in the order (+1, -1, +3, -3): the table's eo index, or -1 for a leg
/// the body drops — a ghost entry of a partitioned table, or a leg that
/// \p cut crosses (the Dirichlet cut).
inline void staggered_neighbors(const NeighborTable& nt, std::int64_t s,
                                const LinkCut* cut, std::int64_t* nb) {
  constexpr int kDist[4] = {+1, -1, +3, -3};
  for (int mu = 0; mu < kNDim; ++mu) {
    for (int k = 0; k < 4; ++k) {
      const int hop = kDist[k] > 0 ? kDist[k] : -kDist[k];
      const NeighborTable::Ref ref = nt.neighbor(s, mu, kDist[k] / hop, hop);
      nb[4 * mu + k] = ref.local() ? ref.index : -1;
    }
  }
  if (cut != nullptr) {
    const Coord x = nt.geometry().eo_coords(s);
    for (int mu = 0; mu < kNDim; ++mu) {
      for (int k = 0; k < 4; ++k) {
        if (cut->crosses(x, mu, kDist[k])) nb[4 * mu + k] = -1;
      }
    }
  }
}

/// D in at site \p s over the legs whose neighbour index nb[4 mu + k] is
/// set (-1 drops a leg), in the order (+1, -1, +3, -3) for each mu.  The
/// scalar staggered site body: double fields and builds without vector
/// extensions run it, and it is the reference the row-lane body mirrors.
template <typename Real, typename Gauge>
inline ColorVector<Real> scalar_staggered_site_hop(const Gauge& fat,
                                                   const Gauge& lng,
                                                   const ColorVector<Real>* in,
                                                   std::int64_t s,
                                                   const std::int64_t* nb) {
  ColorVector<Real> hop{};
  for (int mu = 0; mu < kNDim; ++mu) {
    const std::int64_t f1 = nb[4 * mu];
    if (f1 >= 0) hop += fat.link(mu, s) * in[f1];
    const std::int64_t b1 = nb[4 * mu + 1];
    if (b1 >= 0) hop -= adj_mul(fat.link(mu, b1), in[b1]);
    const std::int64_t f3 = nb[4 * mu + 2];
    if (f3 >= 0) hop += lng.link(mu, s) * in[f3];
    const std::int64_t b3 = nb[4 * mu + 3];
    if (b3 >= 0) hop -= adj_mul(lng.link(mu, b3), in[b3]);
  }
  return hop;
}

#ifdef LQCD_LANE_SIMD
/// scalar_staggered_site_hop for a float field on colour-row lanes
/// (linalg/gamma.h): each leg loads its spinor into two vectors and
/// multiplies there, and the accumulator, two vectors from +0, is stored
/// once.  Its lane ops are the scalar body's IEEE ops in the scalar order,
/// so the result is bitwise scalar_staggered_site_hop's
/// (tests/test_staggered.cpp asserts it).
template <typename Gauge>
inline ColorVector<float> row_lane_site_hop(const Gauge& fat,
                                            const Gauge& lng,
                                            const ColorVector<float>* in,
                                            std::int64_t s,
                                            const std::int64_t* nb) {
  ColorRows acc{};
  for (int mu = 0; mu < kNDim; ++mu) {
    const std::int64_t f1 = nb[4 * mu];
    if (f1 >= 0) {
      acc += mul_color_rows<false>(fat.link(mu, s), load_color_rows(in[f1]));
    }
    const std::int64_t b1 = nb[4 * mu + 1];
    if (b1 >= 0) {
      acc -= mul_color_rows<true>(fat.link(mu, b1), load_color_rows(in[b1]));
    }
    const std::int64_t f3 = nb[4 * mu + 2];
    if (f3 >= 0) {
      acc += mul_color_rows<false>(lng.link(mu, s), load_color_rows(in[f3]));
    }
    const std::int64_t b3 = nb[4 * mu + 3];
    if (b3 >= 0) {
      acc -= mul_color_rows<true>(lng.link(mu, b3), load_color_rows(in[b3]));
    }
  }
  return store_color_rows(acc);
}
#endif

/// The staggered site body every hop of the library runs: the free hop,
/// StaggeredOperator, StaggeredSchurOperator and the partitioned interior.
/// row_lane_site_hop for a float field, scalar_staggered_site_hop
/// otherwise.
template <typename Real, typename Gauge>
inline ColorVector<Real> staggered_site_hop(const Gauge& fat, const Gauge& lng,
                                            const ColorVector<Real>* in,
                                            std::int64_t s,
                                            const std::int64_t* nb) {
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return row_lane_site_hop(fat, lng, in, s, nb);
  } else
#endif
  {
    return scalar_staggered_site_hop<Real>(fat, lng, in, s, nb);
  }
}

/// One leg's colour multiply, U v (Adj false) or U^dagger v (Adj true):
/// on colour-row lanes for float, bitwise operator* / adj_mul, which run
/// otherwise.  The partitioned exterior's ghost legs run it.
template <bool Adj, typename Real>
inline ColorVector<Real> staggered_leg_mul(const Matrix3<Real>& u,
                                           const ColorVector<Real>& v) {
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return store_color_rows(mul_color_rows<Adj>(u, load_color_rows(v)));
  } else
#endif
  if constexpr (Adj) {
    return adj_mul(u, v);
  } else {
    return u * v;
  }
}

}  // namespace detail

/// out(x) = D in(x) for the selected target sites, with the neighbours of
/// \p nt (the unpartitioned 3-hop table of in's extents).  If \p target is
/// set, only sites of that parity are written.  If \p mask is given, legs
/// whose path crosses a block boundary are dropped.
///
/// Templated on the gauge type so thin-link experiments can pass a
/// CompressedGaugeField, but note asqtad fat/long links are *not* unitary
/// (sums of staples), so reconstruction is lossy for them — the shipped
/// recon policy only compresses Wilson-type fields, matching the paper.
template <typename Real, typename Gauge>
void staggered_hop(StaggeredField<Real>& out, const Gauge& fat,
                   const Gauge& lng, const StaggeredField<Real>& in,
                   const NeighborTable& nt,
                   std::optional<Parity> target = std::nullopt,
                   const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  const std::int64_t begin =
      target.has_value() && *target == Parity::Odd ? g.half_volume() : 0;
  const std::int64_t end =
      target.has_value() && *target == Parity::Even ? g.half_volume()
                                                    : g.volume();
  const ColorVector<Real>* psi = in.sites().data();
  tuned_site_loop(
      "staggered_hop",
      detail::dslash_aux<Real>(target, mask != nullptr, gauge_recon(fat)),
      out.sites(), end - begin, [&](std::int64_t idx) {
    const std::int64_t s = begin + idx;
    std::int64_t nb[4 * kNDim];
    detail::staggered_neighbors(nt, s, mask, nb);
    out.at(s) = detail::staggered_site_hop<Real>(fat, lng, psi, s, nb);
  });
  // 8 fat + 8 long link loads per site (nominal; cut links not subtracted).
  meter_gauge_bytes(gauge_recon(fat), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
  meter_gauge_bytes(gauge_recon(lng), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
}

/// staggered_hop with the shared table of in's extents
/// (shared_local_neighbors).  The memo holds a table only while some
/// caller does, so a loop of these calls with no holder builds one per
/// call: timed loops hold theirs and pass it.
template <typename Real, typename Gauge>
void staggered_hop(StaggeredField<Real>& out, const Gauge& fat,
                   const Gauge& lng, const StaggeredField<Real>& in,
                   std::optional<Parity> target = std::nullopt,
                   const LinkCut* mask = nullptr) {
  staggered_hop(out, fat, lng, in, *shared_local_neighbors(in.geometry(), 3),
                target, mask);
}

/// The full staggered matrix M = m + D/2 on both parities: one site loop
/// over the shared neighbour table, m in + D in / 2 per site with the ops
/// of the partitioned interior.
template <typename Real>
class StaggeredOperator : public LinearOperator<StaggeredField<Real>> {
 public:
  StaggeredOperator(const GaugeField<Real>& fat, const GaugeField<Real>& lng,
                    double mass)
      : fat_(&fat), lng_(&lng), mass_(mass),
        nt_(shared_local_neighbors(fat.geometry(), 3)) {}

  void apply(StaggeredField<Real>& out,
             const StaggeredField<Real>& in) const override {
    this->count_application();
    const LatticeGeometry& g = geometry();
    const NeighborTable& nt = *nt_;
    const GaugeField<Real>& fat = *fat_;
    const GaugeField<Real>& lng = *lng_;
    const ColorVector<Real>* psi = in.sites().data();
    const Real m = static_cast<Real>(mass_);
    tuned_site_loop(
        "staggered_hop",
        detail::dslash_aux<Real>(std::nullopt, false, gauge_recon(fat)),
        out.sites(), g.volume(), [&](std::int64_t s) {
      std::int64_t nb[4 * kNDim];
      detail::staggered_neighbors(nt, s, nullptr, nb);
      ColorVector<Real> hop =
          detail::staggered_site_hop<Real>(fat, lng, psi, s, nb);
      ColorVector<Real> v = psi[s];
      v *= m;
      hop *= Real(0.5);
      v += hop;
      out.at(s) = v;
    });
    meter_gauge_bytes(gauge_recon(fat), 8 * g.volume(),
                      static_cast<int>(sizeof(Real)));
    meter_gauge_bytes(gauge_recon(lng), 8 * g.volume(),
                      static_cast<int>(sizeof(Real)));
  }

  const LatticeGeometry& geometry() const override { return fat_->geometry(); }

  double mass() const { return mass_; }

 private:
  const GaugeField<Real>* fat_;
  const GaugeField<Real>* lng_;
  double mass_;
  std::shared_ptr<const NeighborTable> nt_;
};

/// (M^dag M + sigma) restricted to the even checkerboard.  Hermitian
/// positive definite — the operator the (multi-shift) CG runs on.
///
/// The apply is two site loops over the neighbour table of the lattice's
/// extents (shared_local_neighbors, one table for every operator on the
/// same extents): the odd-target hop into tmp_, then the even-target hop
/// with the (m^2 + sigma) in - D_eo D_oe in / 4 epilogue fused in and the
/// odd half of out zeroed.  Bitwise equal to staggered_hop on odd targets,
/// staggered_hop on even targets and a separate epilogue (DESIGN.md §20).
template <typename Real>
class StaggeredSchurOperator : public LinearOperator<StaggeredField<Real>> {
 public:
  StaggeredSchurOperator(const GaugeField<Real>& fat,
                         const GaugeField<Real>& lng, double mass,
                         double sigma = 0.0)
      : fat_(&fat), lng_(&lng), mass_(mass), sigma_(sigma),
        nt_(shared_local_neighbors(fat.geometry(), 3)),
        tmp_(fat.geometry()) {}

  void apply(StaggeredField<Real>& out,
             const StaggeredField<Real>& in) const override {
    this->count_application();
    const std::int64_t half = geometry().half_volume();
    const NeighborTable& nt = *nt_;
    const GaugeField<Real>& fat = *fat_;
    const GaugeField<Real>& lng = *lng_;
    const Reconstruct recon = gauge_recon(fat);
    // tmp_ = D_oe in.  tmp_'s even half is never written or read.
    auto ts = tmp_.sites();
    const ColorVector<Real>* psi = in.sites().data();
    tuned_site_loop(
        "staggered_schur_hop",
        detail::dslash_aux<Real>(Parity::Odd, false, recon),
        ts.subspan(static_cast<std::size_t>(half)), half,
        [&](std::int64_t idx) {
          const std::int64_t s = half + idx;
          std::int64_t nb[4 * kNDim];
          detail::staggered_neighbors(nt, s, nullptr, nb);
          ts[static_cast<std::size_t>(s)] =
              detail::staggered_site_hop<Real>(fat, lng, psi, s, nb);
        });
    // out_e = (m^2 + sigma) in_e - D_eo tmp_ / 4, out_o = 0.
    const Real c = static_cast<Real>(mass_ * mass_ + sigma_);
    auto os = out.sites();
    tuned_site_loop(
        "staggered_schur_hop",
        detail::dslash_aux<Real>(Parity::Even, false, recon), os, half,
        [&](std::int64_t s) {
          std::int64_t nb[4 * kNDim];
          detail::staggered_neighbors(nt, s, nullptr, nb);
          ColorVector<Real> h =
              detail::staggered_site_hop<Real>(fat, lng, ts.data(), s, nb);
          ColorVector<Real> v = psi[s];
          v *= c;
          h *= Real(-0.25);
          v += h;
          os[static_cast<std::size_t>(s)] = v;
          os[static_cast<std::size_t>(half + s)] = ColorVector<Real>{};
        });
    // Nominal link loads of the two hops: 8 fat + 8 long per target site
    // in each.
    meter_gauge_bytes(recon, 16 * half, static_cast<int>(sizeof(Real)));
    meter_gauge_bytes(gauge_recon(lng), 16 * half,
                      static_cast<int>(sizeof(Real)));
  }

  const LatticeGeometry& geometry() const override { return fat_->geometry(); }

  double mass() const { return mass_; }
  double sigma() const { return sigma_; }

  /// The shared neighbour table the apply reads.
  const std::shared_ptr<const NeighborTable>& neighbor_table() const {
    return nt_;
  }

 private:
  const GaugeField<Real>* fat_;
  const GaugeField<Real>* lng_;
  double mass_;
  double sigma_;
  std::shared_ptr<const NeighborTable> nt_;
  mutable StaggeredField<Real> tmp_;
};

}  // namespace lqcd
