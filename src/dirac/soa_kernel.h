#pragma once
/// \file soa_kernel.h
/// \brief Lane-blocked SoA fast path for the Wilson hopping term: one
/// tuned-loop iteration processes a block of kSoaLanes<Real> same-parity
/// sites, with spinor components streamed as contiguous lane vectors and
/// links reconstructed in registers — the executed CPU counterpart of the
/// paper's coalesced float4 dslash (§6.2).
///
/// **Bitwise contract.**  Each leg is detail::lane_wilson_leg
/// (dirac/wilson_kernel.h), the lane form of the scalar site body
/// detail::scalar_site_hop, with each lane reading its own site's link
/// entries; all lane arithmetic is vertical (see linalg/simd.h), so the
/// SoA output transmuted back to AoS is bit-identical to the AoS kernel's
/// — tests/test_soa.cpp fuzzes this across parities, recon 18/12/8, block
/// cuts, and both rank modes.  Reconstruct-12/-8 links are decompressed
/// per lane with the *scalar* codec (decompress8's arg/polar/sqrt cannot
/// be vectorized bit-identically) and transposed into lane form; only the
/// 18-real format streams links as direct lane loads.  Any block containing
/// a cut leg or tail padding runs the scalar site body per lane through a
/// gathering view of the SoA field.
///
/// Tune keys append ",soa<lanes>" (detail::soa_aux) so AoS and SoA
/// variants — and builds with different LQCD_SIMD_BYTES — never share
/// launch parameters.

#include <optional>
#include <string>

#include "dirac/dslash_tune.h"
#include "dirac/recon_policy.h"
#include "dirac/wilson_kernel.h"
#include "fields/clover.h"
#include "fields/lattice_field.h"
#include "fields/soa_field.h"
#include "lattice/block_mask.h"
#include "linalg/simd.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"

namespace lqcd {

namespace detail {

/// Transposes the spinors at the \p N site indices in \p s into lane form.
template <typename Real, int N>
inline void soa_gather_spinor(const SoAWilsonField<Real>& f,
                              const std::int64_t* s,
                              CplxLanes<Real, N> psi[kNSpin][kNColor]) {
  static_assert(N == SoAWilsonField<Real>::kLanes);
  const Real* base[N];
  for (int l = 0; l < N; ++l) base[l] = f.site_base(s[l]);
  for (int a = 0; a < kNSpin; ++a) {
    for (int c = 0; c < kNColor; ++c) {
      const int k = 2 * (a * kNColor + c);
      CplxLanes<Real, N>& z = psi[a][c];
      for (int l = 0; l < N; ++l) {
        z.re[l] = base[l][k * N];
        z.im[l] = base[l][(k + 1) * N];
      }
    }
  }
}

/// Per-lane scalar link decompress + transpose (neighbour links live at
/// scattered eo indices; and the 12/8 codecs must run the scalar formulas
/// for bitwise parity with the AoS kernels).
template <typename Real, int N>
inline void soa_gather_link(const SoAGaugeField<Real>& u, int mu,
                            const std::int64_t* s,
                            CplxLanes<Real, N> lk[kNColor][kNColor]) {
  for (int l = 0; l < N; ++l) {
    const Matrix3<Real> m = u.link(mu, s[l]);
    for (int i = 0; i < kNColor; ++i) {
      for (int j = 0; j < kNColor; ++j) {
        lk[i][j].re[l] = m(i, j).real();
        lk[i][j].im[l] = m(i, j).imag();
      }
    }
  }
}

/// Links of a block's own sites (forward legs): their packed reals are one
/// contiguous slot, so the 18-real format streams them as lane loads; the
/// compressed formats decompress per lane (scalar codec, see file comment).
template <typename Real, int N>
inline void soa_own_links(const SoAGaugeField<Real>& u, int mu,
                          std::int64_t b, std::int64_t s0,
                          CplxLanes<Real, N> lk[kNColor][kNColor]) {
  if (u.recon() == Reconstruct::None) {
    const Real* p = u.block_slot(mu, b);
    for (int i = 0; i < kNColor; ++i) {
      for (int j = 0; j < kNColor; ++j) {
        const int e = i * kNColor + j;
        lk[i][j].re = lane_load<Real, N>(p + (2 * e) * N);
        lk[i][j].im = lane_load<Real, N>(p + (2 * e + 1) * N);
      }
    }
    return;
  }
  std::int64_t s[N];
  for (int l = 0; l < N; ++l) s[l] = s0 + l;
  soa_gather_link(u, mu, s, lk);
}

/// Read view of a SoA field for the scalar site body: view[s] gathers
/// site s (cut and tail blocks).
template <typename Real>
struct SoaSites {
  const SoAWilsonField<Real>& f;
  WilsonSpinor<Real> operator[](std::int64_t s) const { return f.site_at(s); }
};

}  // namespace detail

/// out(x) = D in(x) on the lane-blocked SoA layout; semantics (target
/// parity, Dirichlet mask) and per-site bits match wilson_hop exactly.
template <typename Real>
void wilson_hop_soa(SoAWilsonField<Real>& out, const SoAGaugeField<Real>& u,
                    const SoAWilsonField<Real>& in,
                    std::optional<Parity> target = std::nullopt,
                    const LinkCut* mask = nullptr) {
  constexpr int N = SoAWilsonField<Real>::kLanes;
  const LatticeGeometry& g = in.geometry();
  const std::int64_t bpp = in.blocks_per_parity();
  const std::int64_t bbegin =
      target.has_value() && *target == Parity::Odd ? bpp : 0;
  const std::int64_t bend =
      target.has_value() && *target == Parity::Even ? bpp : 2 * bpp;
  tuned_site_loop(
      "wilson_hop",
      detail::dslash_aux<Real>(target, mask != nullptr, u.recon()) +
          detail::soa_aux<Real>(),
      out.raw(), bend - bbegin, [&](std::int64_t bi) {
    const std::int64_t b = bbegin + bi;
    const std::int64_t s0 = in.first_site(b);
    const int nl = in.valid_lanes(b);
    Coord xs[N];
    std::int64_t sp[kNDim][N];
    std::int64_t sm[kNDim][N];
    bool scalar_path = nl != N;
    for (int l = 0; l < nl; ++l) xs[l] = g.eo_coords(s0 + l);
    for (int mu = 0; mu < kNDim; ++mu) {
      for (int l = 0; l < nl; ++l) {
        const bool cp = mask != nullptr && mask->crosses(xs[l], mu, +1);
        const bool cm = mask != nullptr && mask->crosses(xs[l], mu, -1);
        sp[mu][l] = cp ? -1 : g.eo_index(g.shifted(xs[l], mu, +1));
        sm[mu][l] = cm ? -1 : g.eo_index(g.shifted(xs[l], mu, -1));
        scalar_path = scalar_path || cp || cm;
      }
    }
    if (!scalar_path) {
      CplxLanes<Real, N> acc[kNSpin][kNColor] = {};
      CplxLanes<Real, N> psi[kNSpin][kNColor];
      CplxLanes<Real, N> lk[kNColor][kNColor];
      const auto entry = [&](int i, int j) { return lk[i][j]; };
      for (int mu = 0; mu < kNDim; ++mu) {
        detail::soa_own_links(u, mu, b, s0, lk);
        detail::soa_gather_spinor(in, sp[mu], psi);
        detail::lane_wilson_leg<Real, N>(entry, mu, -1, /*adjoint=*/false,
                                         psi, acc);
        detail::soa_gather_link(u, mu, sm[mu], lk);
        detail::soa_gather_spinor(in, sm[mu], psi);
        detail::lane_wilson_leg<Real, N>(entry, mu, +1, /*adjoint=*/true,
                                         psi, acc);
      }
      Real* ob = out.block_data(b);
      for (int a = 0; a < kNSpin; ++a) {
        for (int c = 0; c < kNColor; ++c) {
          const int k = 2 * (a * kNColor + c);
          lane_store<Real, N>(ob + k * N, acc[a][c].re);
          lane_store<Real, N>(ob + (k + 1) * N, acc[a][c].im);
        }
      }
    } else {
      for (int l = 0; l < nl; ++l) {
        std::int64_t spl[kNDim];
        std::int64_t sml[kNDim];
        for (int mu = 0; mu < kNDim; ++mu) {
          spl[mu] = sp[mu][l];
          sml[mu] = sm[mu][l];
        }
        out.set_site(s0 + l, detail::wilson_site_hop<Real>(
                                 u, detail::SoaSites<Real>{in}, s0 + l, spl,
                                 sml));
      }
    }
  });
  const std::int64_t sites =
      target.has_value() ? g.half_volume() : g.volume();
  meter_gauge_bytes(u.recon(), 8 * sites, static_cast<int>(sizeof(Real)));
}

/// Persistent SoA-side state for a Wilson-clover operator: the lane-blocked
/// gauge copy plus transmute/hop scratch, built once per (gauge, recon).
template <typename Real>
struct SoaWilsonWorkspace {
  SoAGaugeField<Real> u;
  SoAWilsonField<Real> in;
  SoAWilsonField<Real> hop;
  WilsonField<Real> hop_aos;

  SoaWilsonWorkspace(const GaugeField<Real>& g, Reconstruct scheme)
      : u(g, scheme), in(g.geometry()), hop(g.geometry()),
        hop_aos(g.geometry()) {}
};

/// M in = (4 + m + A) in - D in / 2 via the SoA hop.  The epilogue sweep
/// replicates the fused kernel's per-site sequence on the transmuted hop,
/// so the result is bit-identical to wilson_clover_apply.
template <typename Real>
void wilson_clover_apply_soa(WilsonField<Real>& out,
                             SoaWilsonWorkspace<Real>& ws,
                             const CloverField<Real>* a, double mass,
                             const WilsonField<Real>& in,
                             const LinkCut* mask = nullptr) {
  const LatticeGeometry& g = in.geometry();
  to_soa(in, ws.in);
  wilson_hop_soa(ws.hop, ws.u, ws.in, std::nullopt, mask);
  from_soa(ws.hop, ws.hop_aos);
  const Real diag = static_cast<Real>(4.0 + mass);
  std::string aux = detail::dslash_aux<Real>(std::nullopt, mask != nullptr,
                                             ws.u.recon()) +
                    detail::soa_aux<Real>();
  if (a != nullptr) aux += ",clov";
  tuned_site_loop(
      "wilson_clover_epilogue", std::move(aux), out.sites(), g.volume(),
      [&](std::int64_t s) {
    out.at(s) = detail::wilson_clover_site(
        ws.hop_aos.at(s), in.at(s), a != nullptr ? &a->at(s) : nullptr, diag);
  });
}

}  // namespace lqcd
