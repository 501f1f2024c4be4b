#pragma once
/// \file soa_kernel.h
/// \brief Lane-blocked SoA fast paths for the Wilson and staggered hopping
/// terms: one tuned-loop iteration processes a block of kSoaLanes<Real>
/// same-parity sites, with spinor components streamed as contiguous lane
/// vectors and links reconstructed in registers — the executed CPU
/// counterpart of the paper's coalesced float4 dslash (§6.2).
///
/// **Bitwise contract.**  Each lane performs exactly the IEEE operation
/// sequence of detail::wilson_hop_site / the staggered site body, in the
/// same order (mu-major, forward leg then backward; project -> SU(3)
/// mat-vec -> accumulate-reconstruct).  All lane arithmetic is vertical
/// (see linalg/simd.h), so the SoA output transmuted back to AoS is
/// bit-identical to the AoS kernel's — tests/test_soa.cpp fuzzes this
/// across parities, recon 18/12/8, block cuts, and both rank modes.
/// Reconstruct-12/-8 links are decompressed per lane with the *scalar*
/// codec (decompress8's arg/polar/sqrt cannot be vectorized
/// bit-identically) and transposed into lane form; only the 18-real format
/// streams links as direct lane loads.  Any block containing a cut leg or
/// tail padding takes the scalar per-lane path, which computes the same
/// bits by construction.
///
/// Tune keys append ",soa<lanes>" (detail::soa_aux) so AoS and SoA
/// variants — and builds with different LQCD_SIMD_BYTES — never share
/// launch parameters.

#include <optional>
#include <string>

#include "dirac/dslash_tune.h"
#include "dirac/recon_policy.h"
#include "fields/clover.h"
#include "fields/lattice_field.h"
#include "fields/soa_field.h"
#include "lattice/block_mask.h"
#include "linalg/gamma.h"
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

/// Staggered counterpart of soa_gather_spinor.
template <typename Real, int N>
inline void soa_gather_vec(const SoAStaggeredField<Real>& f,
                           const std::int64_t* s,
                           CplxLanes<Real, N> v[kNColor]) {
  static_assert(N == SoAStaggeredField<Real>::kLanes);
  const Real* base[N];
  for (int l = 0; l < N; ++l) base[l] = f.site_base(s[l]);
  for (int c = 0; c < kNColor; ++c) {
    const int k = 2 * c;
    CplxLanes<Real, N>& z = v[c];
    for (int l = 0; l < N; ++l) {
      z.re[l] = base[l][k * N];
      z.im[l] = base[l][(k + 1) * N];
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

/// One Wilson hop leg on a lane block: project (1 + sign*gamma_mu), SU(3)
/// mat-vec (adjoint via conjugated column access, as adj_mul), accumulate
/// reconstruction.  Mirrors project()/operator*/accumulate_reconstruct()
/// operation for operation.
template <typename Real, int N>
inline void soa_wilson_leg(const CplxLanes<Real, N> lk[kNColor][kNColor],
                           int mu, int sign, bool adjoint,
                           const CplxLanes<Real, N> psi[kNSpin][kNColor],
                           CplxLanes<Real, N> acc[kNSpin][kNColor]) {
  const GammaPattern& gp = kGamma[static_cast<std::size_t>(mu)];
  CplxLanes<Real, N> h[2][kNColor];
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    for (int c = 0; c < kNColor; ++c) {
      const CplxLanes<Real, N> t =
          cl_mul_i_pow(gp.phase[aa], psi[gp.col[aa]][c]);
      h[a][c] = sign > 0 ? cl_add(psi[a][c], t) : cl_sub(psi[a][c], t);
    }
  }
  CplxLanes<Real, N> t[2][kNColor];
  for (int i = 0; i < kNColor; ++i) {
    for (int a = 0; a < 2; ++a) {
      CplxLanes<Real, N> sum{};
      for (int j = 0; j < kNColor; ++j) {
        const CplxLanes<Real, N> e = adjoint ? cl_conj(lk[j][i]) : lk[i][j];
        cl_mul_acc(sum, e, h[a][j]);
      }
      t[a][i] = sum;
    }
  }
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    const int c_row = gp.col[aa];
    const int conj_phase = (4 - gp.phase[aa]) & 3;
    for (int c = 0; c < kNColor; ++c) {
      acc[a][c] = cl_add(acc[a][c], t[a][c]);
      const CplxLanes<Real, N> v = cl_mul_i_pow(conj_phase, t[a][c]);
      acc[c_row][c] =
          sign > 0 ? cl_add(acc[c_row][c], v) : cl_sub(acc[c_row][c], v);
    }
  }
}

/// One staggered hop leg on a lane block: acc +-= U v (adjoint via
/// conjugated column access).  Mirrors operator*/adj_mul plus the
/// ColorVector +=/-= of the scalar kernel.
template <typename Real, int N>
inline void soa_stag_leg(const CplxLanes<Real, N> lk[kNColor][kNColor],
                         bool adjoint, bool add,
                         const CplxLanes<Real, N> v[kNColor],
                         CplxLanes<Real, N> acc[kNColor]) {
  for (int i = 0; i < kNColor; ++i) {
    CplxLanes<Real, N> sum{};
    for (int j = 0; j < kNColor; ++j) {
      const CplxLanes<Real, N> e = adjoint ? cl_conj(lk[j][i]) : lk[i][j];
      cl_mul_acc(sum, e, v[j]);
    }
    acc[i] = add ? cl_add(acc[i], sum) : cl_sub(acc[i], sum);
  }
}

/// Scalar fallback for cut/tail blocks: the exact wilson_hop_site body,
/// gathering sites from the SoA containers (bit-identical values).
template <typename Real>
inline WilsonSpinor<Real> soa_wilson_hop_site(const LatticeGeometry& g,
                                              const SoAGaugeField<Real>& u,
                                              const SoAWilsonField<Real>& in,
                                              std::int64_t s, const Coord& x,
                                              const LinkCut* mask) {
  WilsonSpinor<Real> acc{};
  for (int mu = 0; mu < kNDim; ++mu) {
    if (mask == nullptr || !mask->crosses(x, mu, +1)) {
      const Coord xp = g.shifted(x, mu, +1);
      const HalfSpinor<Real> h = project(mu, -1, in.site_at(g.eo_index(xp)));
      const Matrix3<Real> link = u.link(mu, s);
      const HalfSpinor<Real> t = link * h;
      accumulate_reconstruct(mu, -1, t, acc);
    }
    if (mask == nullptr || !mask->crosses(x, mu, -1)) {
      const Coord xm = g.shifted(x, mu, -1);
      const std::int64_t sm = g.eo_index(xm);
      const HalfSpinor<Real> h = project(mu, +1, in.site_at(sm));
      const Matrix3<Real> link = u.link(mu, sm);
      const HalfSpinor<Real> t = adj_mul(link, h);
      accumulate_reconstruct(mu, +1, t, acc);
    }
  }
  return acc;
}

/// Scalar fallback for the staggered hop (exact staggered_hop site body).
template <typename Real>
inline ColorVector<Real> soa_staggered_hop_site(
    const LatticeGeometry& g, const SoAGaugeField<Real>& fat,
    const SoAGaugeField<Real>& lng, const SoAStaggeredField<Real>& in,
    std::int64_t s, const Coord& x, const LinkCut* mask) {
  ColorVector<Real> acc{};
  for (int mu = 0; mu < kNDim; ++mu) {
    if (mask == nullptr || !mask->crosses(x, mu, +1)) {
      acc += fat.link(mu, s) * in.site_at(g.eo_index(g.shifted(x, mu, +1)));
    }
    if (mask == nullptr || !mask->crosses(x, mu, -1)) {
      const std::int64_t sm = g.eo_index(g.shifted(x, mu, -1));
      acc -= adj_mul(fat.link(mu, sm), in.site_at(sm));
    }
    if (mask == nullptr || !mask->crosses(x, mu, +3)) {
      acc += lng.link(mu, s) * in.site_at(g.eo_index(g.shifted(x, mu, +3)));
    }
    if (mask == nullptr || !mask->crosses(x, mu, -3)) {
      const std::int64_t sm3 = g.eo_index(g.shifted(x, mu, -3));
      acc -= adj_mul(lng.link(mu, sm3), in.site_at(sm3));
    }
  }
  return acc;
}

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
      for (int mu = 0; mu < kNDim; ++mu) {
        detail::soa_own_links(u, mu, b, s0, lk);
        detail::soa_gather_spinor(in, sp[mu], psi);
        detail::soa_wilson_leg(lk, mu, -1, /*adjoint=*/false, psi, acc);
        detail::soa_gather_link(u, mu, sm[mu], lk);
        detail::soa_gather_spinor(in, sm[mu], psi);
        detail::soa_wilson_leg(lk, mu, +1, /*adjoint=*/true, psi, acc);
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
        out.set_site(s0 + l, detail::soa_wilson_hop_site(g, u, in, s0 + l,
                                                         xs[l], mask));
      }
    }
  });
  const std::int64_t sites =
      target.has_value() ? g.half_volume() : g.volume();
  meter_gauge_bytes(u.recon(), 8 * sites, static_cast<int>(sizeof(Real)));
}

/// Staggered D on the SoA layout (fat +-1 hops, long +-3 hops); per-site
/// bits match staggered_hop exactly.
template <typename Real>
void staggered_hop_soa(SoAStaggeredField<Real>& out,
                       const SoAGaugeField<Real>& fat,
                       const SoAGaugeField<Real>& lng,
                       const SoAStaggeredField<Real>& in,
                       std::optional<Parity> target = std::nullopt,
                       const LinkCut* mask = nullptr) {
  constexpr int N = SoAStaggeredField<Real>::kLanes;
  const LatticeGeometry& g = in.geometry();
  const std::int64_t bpp = in.blocks_per_parity();
  const std::int64_t bbegin =
      target.has_value() && *target == Parity::Odd ? bpp : 0;
  const std::int64_t bend =
      target.has_value() && *target == Parity::Even ? bpp : 2 * bpp;
  tuned_site_loop(
      "staggered_hop",
      detail::dslash_aux<Real>(target, mask != nullptr, fat.recon()) +
          detail::soa_aux<Real>(),
      out.raw(), bend - bbegin, [&](std::int64_t bi) {
    const std::int64_t b = bbegin + bi;
    const std::int64_t s0 = in.first_site(b);
    const int nl = in.valid_lanes(b);
    Coord xs[N];
    std::int64_t sp1[kNDim][N], sm1[kNDim][N];
    std::int64_t sp3[kNDim][N], sm3[kNDim][N];
    bool scalar_path = nl != N;
    for (int l = 0; l < nl; ++l) xs[l] = g.eo_coords(s0 + l);
    for (int mu = 0; mu < kNDim; ++mu) {
      for (int l = 0; l < nl; ++l) {
        const bool c1p = mask != nullptr && mask->crosses(xs[l], mu, +1);
        const bool c1m = mask != nullptr && mask->crosses(xs[l], mu, -1);
        const bool c3p = mask != nullptr && mask->crosses(xs[l], mu, +3);
        const bool c3m = mask != nullptr && mask->crosses(xs[l], mu, -3);
        sp1[mu][l] = c1p ? -1 : g.eo_index(g.shifted(xs[l], mu, +1));
        sm1[mu][l] = c1m ? -1 : g.eo_index(g.shifted(xs[l], mu, -1));
        sp3[mu][l] = c3p ? -1 : g.eo_index(g.shifted(xs[l], mu, +3));
        sm3[mu][l] = c3m ? -1 : g.eo_index(g.shifted(xs[l], mu, -3));
        scalar_path = scalar_path || c1p || c1m || c3p || c3m;
      }
    }
    if (!scalar_path) {
      CplxLanes<Real, N> acc[kNColor] = {};
      CplxLanes<Real, N> v[kNColor];
      CplxLanes<Real, N> lk[kNColor][kNColor];
      for (int mu = 0; mu < kNDim; ++mu) {
        detail::soa_own_links(fat, mu, b, s0, lk);
        detail::soa_gather_vec(in, sp1[mu], v);
        detail::soa_stag_leg(lk, /*adjoint=*/false, /*add=*/true, v, acc);
        detail::soa_gather_link(fat, mu, sm1[mu], lk);
        detail::soa_gather_vec(in, sm1[mu], v);
        detail::soa_stag_leg(lk, /*adjoint=*/true, /*add=*/false, v, acc);
        detail::soa_own_links(lng, mu, b, s0, lk);
        detail::soa_gather_vec(in, sp3[mu], v);
        detail::soa_stag_leg(lk, /*adjoint=*/false, /*add=*/true, v, acc);
        detail::soa_gather_link(lng, mu, sm3[mu], lk);
        detail::soa_gather_vec(in, sm3[mu], v);
        detail::soa_stag_leg(lk, /*adjoint=*/true, /*add=*/false, v, acc);
      }
      Real* ob = out.block_data(b);
      for (int c = 0; c < kNColor; ++c) {
        lane_store<Real, N>(ob + 2 * c * N, acc[c].re);
        lane_store<Real, N>(ob + (2 * c + 1) * N, acc[c].im);
      }
    } else {
      for (int l = 0; l < nl; ++l) {
        out.set_site(s0 + l, detail::soa_staggered_hop_site(
                                 g, fat, lng, in, s0 + l, xs[l], mask));
      }
    }
  });
  const std::int64_t sites =
      target.has_value() ? g.half_volume() : g.volume();
  meter_gauge_bytes(fat.recon(), 8 * sites, static_cast<int>(sizeof(Real)));
  meter_gauge_bytes(lng.recon(), 8 * sites, static_cast<int>(sizeof(Real)));
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
    WilsonSpinor<Real> hop = ws.hop_aos.at(s);
    WilsonSpinor<Real> v = in.at(s);
    v *= diag;
    if (a != nullptr) v += clover_apply(a->at(s), in.at(s));
    hop *= Real(-0.5);
    v += hop;
    out.at(s) = v;
  });
}

}  // namespace lqcd
