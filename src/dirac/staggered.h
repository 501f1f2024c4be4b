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

#include <memory>
#include <optional>

#include "dirac/dslash_tune.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "fields/blas.h"
#include "fields/compressed_gauge.h"
#include "fields/lattice_field.h"
#include "lattice/block_mask.h"
#include "lattice/neighbor_table.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"

namespace lqcd {

/// out(x) = D in(x) for target sites (see file comment for D).
///
/// Templated on the gauge type so thin-link experiments can pass a
/// CompressedGaugeField, but note asqtad fat/long links are *not* unitary
/// (sums of staples), so reconstruction is lossy for them — the shipped
/// recon policy only compresses Wilson-type fields, matching the paper.
template <typename Real, typename Gauge>
void staggered_hop(StaggeredField<Real>& out, const Gauge& fat,
                   const Gauge& lng, const StaggeredField<Real>& in,
                   std::optional<Parity> target = std::nullopt,
                   const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  const std::int64_t begin =
      target.has_value() && *target == Parity::Odd ? g.half_volume() : 0;
  const std::int64_t end =
      target.has_value() && *target == Parity::Even ? g.half_volume()
                                                    : g.volume();
  tuned_site_loop(
      "staggered_hop",
      detail::dslash_aux<Real>(target, mask != nullptr, gauge_recon(fat)),
      out.sites(), end - begin, [&](std::int64_t idx) {
    const std::int64_t s = begin + idx;
    const Coord x = g.eo_coords(s);
    ColorVector<Real> acc{};
    for (int mu = 0; mu < kNDim; ++mu) {
      if (mask == nullptr || !mask->crosses(x, mu, +1)) {
        acc += fat.link(mu, s) * in.at(g.shifted(x, mu, +1));
      }
      if (mask == nullptr || !mask->crosses(x, mu, -1)) {
        const Coord xm = g.shifted(x, mu, -1);
        acc -= adj_mul(fat.link(mu, g.eo_index(xm)), in.at(xm));
      }
      if (mask == nullptr || !mask->crosses(x, mu, +3)) {
        acc += lng.link(mu, s) * in.at(g.shifted(x, mu, +3));
      }
      if (mask == nullptr || !mask->crosses(x, mu, -3)) {
        const Coord xm3 = g.shifted(x, mu, -3);
        acc -= adj_mul(lng.link(mu, g.eo_index(xm3)), in.at(xm3));
      }
    }
    out.at(s) = acc;
  });
  // 8 fat + 8 long link loads per site (nominal; cut links not subtracted).
  meter_gauge_bytes(gauge_recon(fat), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
  meter_gauge_bytes(gauge_recon(lng), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
}

namespace detail {

/// D in at site \p s from the local entries of \p nt: the one staggered
/// site body of the table-driven operators.  Terms accumulate in the order
/// (+1, -1, +3, -3) for each mu, the order of staggered_hop, so a table
/// whose entries are all local reproduces staggered_hop bit for bit.
/// Ghost entries are skipped; the partitioned exterior kernels add them.
template <typename Real, typename Gauge>
ColorVector<Real> staggered_local_hop(const NeighborTable& nt,
                                      const Gauge& fat, const Gauge& lng,
                                      const StaggeredField<Real>& in,
                                      std::int64_t s) {
  ColorVector<Real> hop{};
  for (int mu = 0; mu < kNDim; ++mu) {
    const auto f1 = nt.neighbor(s, mu, +1, 1);
    if (f1.local()) hop += fat.link(mu, s) * in.at(f1.index);
    const auto b1 = nt.neighbor(s, mu, -1, 1);
    if (b1.local()) hop -= adj_mul(fat.link(mu, b1.index), in.at(b1.index));
    const auto f3 = nt.neighbor(s, mu, +3, 3);
    if (f3.local()) hop += lng.link(mu, s) * in.at(f3.index);
    const auto b3 = nt.neighbor(s, mu, -3, 3);
    if (b3.local()) hop -= adj_mul(lng.link(mu, b3.index), in.at(b3.index));
  }
  return hop;
}

}  // namespace detail

/// The full staggered matrix M = m + D/2 on both parities.
template <typename Real>
class StaggeredOperator : public LinearOperator<StaggeredField<Real>> {
 public:
  StaggeredOperator(const GaugeField<Real>& fat, const GaugeField<Real>& lng,
                    double mass)
      : fat_(&fat), lng_(&lng), mass_(mass), tmp_(fat.geometry()) {}

  void apply(StaggeredField<Real>& out,
             const StaggeredField<Real>& in) const override {
    this->count_application();
    staggered_hop(tmp_, *fat_, *lng_, in);
    auto is = in.sites();
    auto os = out.sites();
    auto ts = tmp_.sites();
    const Real m = static_cast<Real>(mass_);
    for (std::size_t i = 0; i < os.size(); ++i) {
      ColorVector<Real> v = is[i];
      v *= m;
      ColorVector<Real> h = ts[i];
      h *= Real(0.5);
      v += h;
      os[i] = v;
    }
  }

  const LatticeGeometry& geometry() const override { return fat_->geometry(); }

  double mass() const { return mass_; }

 private:
  const GaugeField<Real>* fat_;
  const GaugeField<Real>* lng_;
  double mass_;
  mutable StaggeredField<Real> tmp_;
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
    tuned_site_loop(
        "staggered_schur_hop",
        detail::dslash_aux<Real>(Parity::Odd, false, recon),
        ts.subspan(static_cast<std::size_t>(half)), half,
        [&](std::int64_t idx) {
          const std::int64_t s = half + idx;
          ts[static_cast<std::size_t>(s)] =
              detail::staggered_local_hop(nt, fat, lng, in, s);
        });
    // out_e = (m^2 + sigma) in_e - D_eo tmp_ / 4, out_o = 0.
    const Real c = static_cast<Real>(mass_ * mass_ + sigma_);
    auto os = out.sites();
    tuned_site_loop(
        "staggered_schur_hop",
        detail::dslash_aux<Real>(Parity::Even, false, recon), os, half,
        [&](std::int64_t s) {
          ColorVector<Real> h =
              detail::staggered_local_hop(nt, fat, lng, tmp_, s);
          ColorVector<Real> v = in.at(s);
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
