#pragma once
/// \file wilson_kernel.h
/// \brief Single-domain Wilson hopping-term kernel (wraparound neighbours),
/// with optional parity restriction and optional Dirichlet block cut, and
/// the one Wilson site body every hop runs.
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
/// Every Wilson hop of the library — these kernels, the multi-RHS hop
/// (dirac/multi_rhs.h) and the partitioned interior (dirac/partitioned.h)
/// — runs detail::wilson_site_hop over neighbour indices, with -1 for a
/// dropped leg.  A float field runs every leg on spin-pair lanes
/// (detail::pair_lane_site_hop, linalg/gamma.h), which the partitioned
/// exterior's ghost legs share (detail::ghost_site_hop); the scalar body
/// (detail::scalar_site_hop) serves double and builds without vector
/// extensions.  The Schur operators apply their clover terms with one site
/// step, detail::schur_site, whose clover multiply (fields/clover.h) runs
/// on the same spin-pair lanes in float.
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
#include <type_traits>
#include <utility>

#include "dirac/dslash_tune.h"
#include "dirac/recon_policy.h"
#include "fields/blas.h"
#include "fields/clover.h"
#include "fields/compressed_gauge.h"
#include "fields/lattice_field.h"
#include "lattice/block_mask.h"
#include "lattice/neighbor_table.h"
#include "linalg/gamma.h"
#include "linalg/simd.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"

namespace lqcd {

namespace detail {

/// Neighbour indices of site \p s for the site body: the table's eo index
/// per leg, or -1 for a leg the body drops — a ghost entry of a
/// partitioned table, or a leg that \p cut crosses (the Dirichlet cut).
inline void wilson_neighbors(const NeighborTable& nt, std::int64_t s,
                             const LinkCut* cut, std::int64_t* sp,
                             std::int64_t* sm) {
  for (int mu = 0; mu < kNDim; ++mu) {
    const NeighborTable::Ref fwd = nt.neighbor(s, mu, +1, 1);
    const NeighborTable::Ref bwd = nt.neighbor(s, mu, -1, 1);
    sp[mu] = fwd.local() ? fwd.index : -1;
    sm[mu] = bwd.local() ? bwd.index : -1;
  }
  if (cut != nullptr) {
    const Coord x = nt.geometry().eo_coords(s);
    for (int mu = 0; mu < kNDim; ++mu) {
      if (cut->crosses(x, mu, +1)) sp[mu] = -1;
      if (cut->crosses(x, mu, -1)) sm[mu] = -1;
    }
  }
}

/// The Wilson hop D in at site \p s over the legs whose neighbour index is
/// set (-1 drops a leg), in mu order, forward leg before backward:
/// project -> SU(3) mat-vec -> accumulate-reconstruct.  \p in[i] is the
/// spinor at eo index i.  The scalar Wilson site body: double fields and
/// builds without vector extensions run it, and it is the reference the
/// lane form mirrors.
template <typename Real, typename Gauge>
inline WilsonSpinor<Real> scalar_site_hop(const Gauge& u,
                                          const WilsonSpinor<Real>* in,
                                          std::int64_t s,
                                          const std::int64_t* sp,
                                          const std::int64_t* sm) {
  WilsonSpinor<Real> acc{};
  for (int mu = 0; mu < kNDim; ++mu) {
    if (sp[mu] >= 0) {
      const auto& link = u.link(mu, s);
      const HalfSpinor<Real> h = project(mu, -1, in[sp[mu]]);
      const HalfSpinor<Real> t = link * h;
      accumulate_reconstruct(mu, -1, t, acc);
    }
    if (sm[mu] >= 0) {
      const auto& link = u.link(mu, sm[mu]);
      const HalfSpinor<Real> h = project(mu, +1, in[sm[mu]]);
      const HalfSpinor<Real> t = adj_mul(link, h);
      accumulate_reconstruct(mu, +1, t, acc);
    }
  }
  return acc;
}

#ifdef LQCD_LANE_SIMD
/// scalar_site_hop for a float field on spin-pair lanes (linalg/gamma.h):
/// each leg projects, multiplies and reconstructs on six register vectors,
/// and the accumulator, two pairs per colour from +0, is stored once.  Its
/// lane ops are the scalar body's IEEE ops in the scalar order, so the
/// result is bitwise scalar_site_hop's (tests/test_wilson.cpp asserts it).
template <typename Gauge>
inline WilsonSpinor<float> pair_lane_site_hop(const Gauge& u,
                                              const WilsonSpinor<float>* in,
                                              std::int64_t s,
                                              const std::int64_t* sp,
                                              const std::int64_t* sm) {
  PairLanes lo[kNColor]{};
  PairLanes hi[kNColor]{};
  const auto leg = [&]<int Mu>(std::integral_constant<int, Mu>) {
    PairLanes h[kNColor];
    PairLanes t[kNColor];
    if (sp[Mu] >= 0) {
      project_pairs<Mu, -1>(in[sp[Mu]], h);
      mul_half_lanes<false>(u.link(Mu, s), h, t);
      reconstruct_pairs<Mu, -1>(t, lo, hi);
    }
    if (sm[Mu] >= 0) {
      project_pairs<Mu, +1>(in[sm[Mu]], h);
      mul_half_lanes<true>(u.link(Mu, sm[Mu]), h, t);
      reconstruct_pairs<Mu, +1>(t, lo, hi);
    }
  };
  [&]<int... Mu>(std::integer_sequence<int, Mu...>) {
    (leg(std::integral_constant<int, Mu>{}), ...);
  }(std::make_integer_sequence<int, kNDim>{});
  return store_spinor_pairs(lo, hi);
}
#endif

/// The Wilson site body every hop of the library runs: pair_lane_site_hop
/// for float, scalar_site_hop otherwise.
template <typename Real, typename Gauge>
inline WilsonSpinor<Real> wilson_site_hop(const Gauge& u,
                                          const WilsonSpinor<Real>* in,
                                          std::int64_t s,
                                          const std::int64_t* sp,
                                          const std::int64_t* sm) {
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return pair_lane_site_hop(u, in, s, sp, sm);
  } else
#endif
  {
    return scalar_site_hop(u, in, s, sp, sm);
  }
}

/// The legs of direction \p mu at site \p s from ghost half spinors,
/// which arrive projected, so each leg multiplies and reconstructs:
/// \p fwd times u.link(mu, s), then \p bwd times \p bwd_link^dagger; a
/// null spinor drops its leg.  Float runs the legs on spin-pair lanes,
/// like pair_lane_site_hop.  The partitioned exterior kernels run it.
template <typename Real, typename Gauge>
inline WilsonSpinor<Real> ghost_site_hop(const Gauge& u, int mu,
                                         std::int64_t s,
                                         const HalfSpinor<Real>* fwd,
                                         const Matrix3<Real>* bwd_link,
                                         const HalfSpinor<Real>* bwd) {
#ifdef LQCD_LANE_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    return with_static_mu(mu, [&]<int Mu>(std::integral_constant<int, Mu>) {
      PairLanes lo[kNColor]{};
      PairLanes hi[kNColor]{};
      PairLanes h[kNColor];
      PairLanes t[kNColor];
      if (fwd != nullptr) {
        load_half_pairs(*fwd, h);
        mul_half_lanes<false>(u.link(Mu, s), h, t);
        reconstruct_pairs<Mu, -1>(t, lo, hi);
      }
      if (bwd != nullptr) {
        load_half_pairs(*bwd, h);
        mul_half_lanes<true>(*bwd_link, h, t);
        reconstruct_pairs<Mu, +1>(t, lo, hi);
      }
      return store_spinor_pairs(lo, hi);
    });
  } else
#endif
  {
    WilsonSpinor<Real> acc{};
    if (fwd != nullptr) {
      accumulate_reconstruct(mu, -1, u.link(mu, s) * *fwd, acc);
    }
    if (bwd != nullptr) {
      accumulate_reconstruct(mu, +1, adj_mul(*bwd_link, *bwd), acc);
    }
    return acc;
  }
}

/// (4 + m + A) psi - hop / 2 at one site: the epilogue of the full
/// Wilson-clover operator's fused apply (wilson_clover_apply and the
/// partitioned interior), whose clover_apply runs on spin-pair lanes in
/// float.  The Schur operators' site step is schur_site.  \p a may be null
/// (plain Wilson).
template <typename Real>
inline WilsonSpinor<Real> wilson_clover_site(WilsonSpinor<Real> hop,
                                             const WilsonSpinor<Real>& psi,
                                             const CloverSite<Real>* a,
                                             Real diag) {
  WilsonSpinor<Real> v = psi;
  v *= diag;
  if (a != nullptr) v += clover_apply(*a, psi);
  hop *= Real(-0.5);
  v += hop;
  return v;
}

/// The even-odd Schur operator's site step on a parity hop's result
/// (dirac/even_odd.h): A_oo^{-1} hop on an odd site (\p psi null), and
/// A_ee psi - hop / 4 on an even site, \p a being the site's
/// schur_diagonal block.  Every Schur operator runs its clover terms
/// through it, as a pass over the parity its hop wrote.
template <typename Real>
inline WilsonSpinor<Real> schur_site(const CloverSite<Real>& a,
                                     const WilsonSpinor<Real>& hop,
                                     const WilsonSpinor<Real>* psi) {
  if (psi == nullptr) return clover_apply(a, hop);
  WilsonSpinor<Real> v = clover_apply(a, *psi);
  WilsonSpinor<Real> h = hop;
  h *= Real(-0.25);
  v += h;
  return v;
}

}  // namespace detail

/// out(x) = D in(x) for the selected target sites, with the neighbours of
/// \p nt (the unpartitioned table of in's extents).  If \p target is set,
/// only sites of that parity are written (others left untouched).  If
/// \p mask is given, hopping terms whose path crosses a block boundary are
/// dropped (the "communications switched off" operator of §8.1).
template <typename Real, typename Gauge>
void wilson_hop(WilsonField<Real>& out, const Gauge& u,
                const WilsonField<Real>& in, const NeighborTable& nt,
                std::optional<Parity> target = std::nullopt,
                const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  const std::int64_t begin =
      target.has_value() && *target == Parity::Odd ? g.half_volume() : 0;
  const std::int64_t end =
      target.has_value() && *target == Parity::Even ? g.half_volume()
                                                    : g.volume();
  const WilsonSpinor<Real>* psi = in.sites().data();
  // Each site writes only its own output: embarrassingly parallel, so the
  // loop granularity is autotuned (numerics-neutral).
  tuned_site_loop(
      "wilson_hop",
      detail::dslash_aux<Real>(target, mask != nullptr, gauge_recon(u)),
      out.sites(), end - begin, [&](std::int64_t idx) {
    const std::int64_t s = begin + idx;
    std::int64_t sp[kNDim];
    std::int64_t sm[kNDim];
    detail::wilson_neighbors(nt, s, mask, sp, sm);
    out.at(s) = detail::wilson_site_hop<Real>(u, psi, s, sp, sm);
  });
  meter_gauge_bytes(gauge_recon(u), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
}

/// wilson_hop with the shared table of in's extents
/// (shared_local_neighbors).  The memo holds a table only while some
/// caller does, so a loop of these calls with no holder builds one per
/// call: operators and timed loops hold theirs and pass it.
template <typename Real, typename Gauge>
void wilson_hop(WilsonField<Real>& out, const Gauge& u,
                const WilsonField<Real>& in,
                std::optional<Parity> target = std::nullopt,
                const LinkCut* mask = nullptr) {
  wilson_hop(out, u, in, *shared_local_neighbors(in.geometry(), 1), target,
             mask);
}

/// Fused Wilson-clover application M in = (4 + m + A) in - (1/2) D in: one
/// sweep computes the hop and applies the diagonal epilogue in registers
/// (the dslash+axpy fusion — no temporary hop field, ~1/3 fewer spinor
/// bytes moved than hop-then-combine).  \p a may be null (plain Wilson);
/// \p nt and \p mask as in wilson_hop.
template <typename Real, typename Gauge>
void wilson_clover_apply(WilsonField<Real>& out, const Gauge& u,
                         const CloverField<Real>* a, double mass,
                         const WilsonField<Real>& in, const NeighborTable& nt,
                         const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  const Real diag = static_cast<Real>(4.0 + mass);
  const WilsonSpinor<Real>* psi = in.sites().data();
  std::string aux =
      detail::dslash_aux<Real>(std::nullopt, mask != nullptr, gauge_recon(u));
  if (a != nullptr) aux += ",clov";
  tuned_site_loop(
      "wilson_clover_fused", std::move(aux), out.sites(), g.volume(),
      [&](std::int64_t s) {
    std::int64_t sp[kNDim];
    std::int64_t sm[kNDim];
    detail::wilson_neighbors(nt, s, mask, sp, sm);
    out.at(s) = detail::wilson_clover_site(
        detail::wilson_site_hop<Real>(u, psi, s, sp, sm), psi[s],
        a != nullptr ? &a->at(s) : nullptr, diag);
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
