#pragma once
/// \file wilson_kernel.h
/// \brief Single-domain Wilson hopping-term kernel (wraparound neighbours),
/// with optional parity restriction and optional Dirichlet block cut.
///
/// Convention (Eq. (2) with the standard normalization):
///   D psi(x) = sum_mu [ (1 - gamma_mu) U_mu(x)        psi(x + mu)
///                     + (1 + gamma_mu) U_mu(x-mu)^dag psi(x - mu) ]
///   M = (4 + m + A) - (1/2) D.
///
/// The kernel uses the spin-projection trick: each direction costs two SU(3)
/// mat-vecs on a projected half spinor instead of four.  A full-spinor
/// reference path (wilson_hop_reference) exists for cross-checking.
///
/// All kernels are templated on the gauge type: a `GaugeField` (full
/// 18-real links) or a `CompressedGaugeField` (reconstruct-12/-8 storage,
/// links rebuilt in registers on load — §5's flops-for-bandwidth trade).
/// The reconstruction format is part of the tunecache aux key, and every
/// application meters its nominal gauge traffic to
/// `dslash.gauge_bytes{recon=N}` (see dirac/recon_policy.h).
///
/// `wilson_clover_apply` is the fused full-operator kernel: the hopping
/// accumulation and the (4 + m + A) - D/2 epilogue execute in one site
/// sweep, eliminating the temporary hop field and its extra read/write pass.

#include <optional>

#include "dirac/dslash_tune.h"
#include "dirac/recon_policy.h"
#include "fields/blas.h"
#include "fields/clover.h"
#include "fields/compressed_gauge.h"
#include "fields/lattice_field.h"
#include "lattice/block_mask.h"
#include "linalg/gamma.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"

namespace lqcd {

namespace detail {

/// Hop accumulation D in(x) for one site (both directions, all mu), the
/// body shared by the hop-only and fused-operator kernels.
template <typename Real, typename Gauge>
inline WilsonSpinor<Real> wilson_hop_site(const LatticeGeometry& g,
                                          const Gauge& u,
                                          const WilsonField<Real>& in,
                                          std::int64_t s, const Coord& x,
                                          const LinkCut* mask) {
  WilsonSpinor<Real> acc{};
  for (int mu = 0; mu < kNDim; ++mu) {
    if (mask == nullptr || !mask->crosses(x, mu, +1)) {
      const Coord xp = g.shifted(x, mu, +1);
      const HalfSpinor<Real> h = project(mu, -1, in.at(xp));
      const auto& link = u.link(mu, s);
      const HalfSpinor<Real> t = link * h;
      accumulate_reconstruct(mu, -1, t, acc);
    }
    if (mask == nullptr || !mask->crosses(x, mu, -1)) {
      const Coord xm = g.shifted(x, mu, -1);
      const HalfSpinor<Real> h = project(mu, +1, in.at(xm));
      const auto& link = u.link(mu, g.eo_index(xm));
      const HalfSpinor<Real> t = adj_mul(link, h);
      accumulate_reconstruct(mu, +1, t, acc);
    }
  }
  return acc;
}

}  // namespace detail

/// out(x) = D in(x) for the selected target sites.  If \p target is set,
/// only sites of that parity are written (others left untouched).  If
/// \p mask is given, hopping terms whose path crosses a block boundary are
/// dropped (the "communications switched off" operator of §8.1).
template <typename Real, typename Gauge>
void wilson_hop(WilsonField<Real>& out, const Gauge& u,
                const WilsonField<Real>& in,
                std::optional<Parity> target = std::nullopt,
                const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  const std::int64_t begin =
      target.has_value() && *target == Parity::Odd ? g.half_volume() : 0;
  const std::int64_t end =
      target.has_value() && *target == Parity::Even ? g.half_volume()
                                                    : g.volume();
  // Each site writes only its own output: embarrassingly parallel, so the
  // loop granularity is autotuned (numerics-neutral).
  tuned_site_loop(
      "wilson_hop",
      detail::dslash_aux<Real>(target, mask != nullptr, gauge_recon(u)),
      out.sites(), end - begin, [&](std::int64_t idx) {
    const std::int64_t s = begin + idx;
    const Coord x = g.eo_coords(s);
    out.at(s) = detail::wilson_hop_site(g, u, in, s, x, mask);
  });
  meter_gauge_bytes(gauge_recon(u), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
}

/// Fused Wilson-clover application M in = (4 + m + A) in - (1/2) D in: one
/// sweep computes the hop and applies the diagonal epilogue in registers
/// (the dslash+axpy fusion — no temporary hop field, ~1/3 fewer spinor
/// bytes moved than hop-then-combine).  \p a may be null (plain Wilson).
template <typename Real, typename Gauge>
void wilson_clover_apply(WilsonField<Real>& out, const Gauge& u,
                         const CloverField<Real>* a, double mass,
                         const WilsonField<Real>& in,
                         const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  const Real diag = static_cast<Real>(4.0 + mass);
  std::string aux =
      detail::dslash_aux<Real>(std::nullopt, mask != nullptr, gauge_recon(u));
  if (a != nullptr) aux += ",clov";
  tuned_site_loop(
      "wilson_clover_fused", std::move(aux), out.sites(), g.volume(),
      [&](std::int64_t s) {
    const Coord x = g.eo_coords(s);
    WilsonSpinor<Real> hop = detail::wilson_hop_site(g, u, in, s, x, mask);
    WilsonSpinor<Real> v = in.at(s);
    v *= diag;
    if (a != nullptr) v += clover_apply(a->at(s), in.at(s));
    hop *= Real(-0.5);
    v += hop;
    out.at(s) = v;
  });
  meter_gauge_bytes(gauge_recon(u), 8 * g.volume(),
                    static_cast<int>(sizeof(Real)));
}

/// Reference implementation using full 4-spinor algebra (no projection
/// trick); used only in tests.
template <typename Real>
void wilson_hop_reference(WilsonField<Real>& out, const GaugeField<Real>& u,
                          const WilsonField<Real>& in) {
  const LatticeGeometry& g = in.geometry();
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    const Coord x = g.eo_coords(s);
    WilsonSpinor<Real> acc{};
    for (int mu = 0; mu < kNDim; ++mu) {
      const Coord xp = g.shifted(x, mu, +1);
      WilsonSpinor<Real> fwd;
      for (int sp = 0; sp < kNSpin; ++sp) {
        fwd[sp] = u.link(mu, s) * in.at(xp)[sp];
      }
      acc += apply_one_pm_gamma(mu, -1, fwd);

      const Coord xm = g.shifted(x, mu, -1);
      WilsonSpinor<Real> bwd;
      for (int sp = 0; sp < kNSpin; ++sp) {
        bwd[sp] = adj_mul(u.link(mu, g.eo_index(xm)), in.at(xm)[sp]);
      }
      acc += apply_one_pm_gamma(mu, +1, bwd);
    }
    out.at(s) = acc;
  }
}

}  // namespace lqcd
