#pragma once
/// \file multi_rhs.h
/// \brief Multi-RHS dslash kernels and the batched-operator interface.
///
/// The batched setting (QUDA's multi-GPU practice, Babich et al.
/// arXiv:1011.0024) amortizes the dominant memory traffic of the hopping
/// term — the gauge links — across right-hand sides: one reconstructed
/// link load services N spinor mat-vecs.  The kernel here is the
/// multi-RHS twin of wilson_hop with a strict contract:
///
///   **Per-RHS bitwise identity.**  For each RHS r, the per-site operation
///   sequence (projection, SU(3) mat-vec, accumulation — in mu order) is
///   exactly the single-RHS kernel's, and accumulators never mix across
///   RHS, so outs[r] is bitwise identical to a single-RHS hop on ins[r].
///   The batched GCR-DD solver relies on this to match its single-RHS
///   reference exactly, and the tests assert it.
///
/// The kernel runs through tuned_site_loop (the batch width is part of
/// the aux key — a width-4 sweep has a different flop/byte mix than a
/// width-1 sweep) and reuses the recon_policy gauge formats via its Gauge
/// template parameter.  Nominal gauge traffic is metered once per link
/// load, not once per RHS, so `dslash.gauge_bytes` reflects the
/// amortization.
///
/// For float fields on GNU-compatible compilers the batch additionally runs
/// SIMD *across* RHS: groups of four right-hand sides occupy the four lanes
/// of a 128-bit vector while the shared link entry is broadcast, cutting the
/// per-RHS projection/mat-vec/reconstruction arithmetic itself (the binding
/// cost once the working set is cache-resident) without breaking the bitwise
/// contract — see the lane-path comment in detail below.
///
/// This is one of two orthogonal SIMD axes in the repo.  The SoA layout
/// (fields/soa_field.h, dirac/soa_kernel.h, DESIGN.md §16) vectorizes
/// *across sites* of a single field; the kernels here vectorize *across
/// right-hand sides* at a fixed site.  The batched path stays AoS by
/// design: its lanes are already full of independent work at every site,
/// so a site-blocked layout would add transmute traffic without widening
/// anything, and keeping the RHS containers AoS lets the service accept
/// and return caller-owned fields with no layout round trip.  Width-1
/// batches fall back to the single-RHS operators, where LQCD_LAYOUT
/// selects the SoA fast path.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "dirac/dslash_tune.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "fields/lattice_field.h"
#include "lattice/neighbor_table.h"
#include "linalg/gamma.h"
#include "tune/site_loop.h"

namespace lqcd {

/// Widest RHS batch a single kernel sweep services; wider batches are
/// processed in groups of this size (register/stack pressure bound — 16
/// double-precision Wilson accumulators are ~6 KB of hot state per site).
inline constexpr int kMaxMultiRhs = 16;

/// A linear map applied to a batch of fields at once: outs[r] = A ins[r].
/// Implementations must keep per-RHS results bitwise identical to N
/// independent apply() calls (lockstep batching, not arithmetic mixing).
template <typename Field>
class MultiRhsOperator {
 public:
  virtual ~MultiRhsOperator() = default;

  /// outs.size() == ins.size(); aliasing outs[i] == ins[j] is not allowed.
  virtual void apply_multi(const std::vector<Field*>& outs,
                           const std::vector<const Field*>& ins) const = 0;

  virtual const LatticeGeometry& geometry() const = 0;
};

/// Fallback adapter: serves a batch by looping a single-RHS operator.
/// Trivially satisfies the bitwise contract; used for operators without a
/// native batched path (e.g. the rank-partitioned cluster operator, whose
/// overlap schedule is per-field).
template <typename Field>
class PerRhsMultiOperator final : public MultiRhsOperator<Field> {
 public:
  explicit PerRhsMultiOperator(const LinearOperator<Field>& op) : op_(&op) {}

  void apply_multi(const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins) const override {
    for (std::size_t r = 0; r < outs.size(); ++r) {
      op_->apply(*outs[r], *ins[r]);
    }
  }

  const LatticeGeometry& geometry() const override { return op_->geometry(); }

 private:
  const LinearOperator<Field>* op_;
};

/// Adapter over an operator with a native apply_multi (the Schur operators
/// below gain one); kept as a template so dirac headers need not know the
/// concrete operator type.
template <typename Field, typename Op>
class NativeMultiRhsOperator final : public MultiRhsOperator<Field> {
 public:
  explicit NativeMultiRhsOperator(const Op& op) : op_(&op) {}

  void apply_multi(const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins) const override {
    op_->apply_multi(outs, ins);
  }

  const LatticeGeometry& geometry() const override { return op_->geometry(); }

 private:
  const Op* op_;
};

namespace detail {

/// Batch-width fragment for the tune-cache aux key.
inline std::string multi_rhs_aux(std::string aux, int width) {
  aux += ",w" + std::to_string(width);
  return aux;
}

#if defined(__GNUC__) || defined(__clang__)
#define LQCD_MULTI_RHS_SIMD 1

// ---------------------------------------------------------------------------
// Lane-batched (SIMD-across-RHS) float path.
//
// At L2-resident block sizes the hop kernels are ALU-bound, so amortizing
// link *loads* across the batch caps out well below the link-amortization
// model: the per-RHS projection / SU(3) mat-vec / reconstruction arithmetic
// dominates.  The lane path cuts that arithmetic itself: four RHS ride the
// four lanes of a 128-bit float vector, the shared gauge-link entry is
// broadcast, and every complex operation is one vertical instruction.
//
// Bitwise contract: a vertical SIMD op applies the *same* IEEE operation to
// each lane independently, so as long as the lane code performs the scalar
// kernel's operation sequence step for step — and it mirrors project(),
// operator*(Matrix3, ColorVector), adj_mul(), accumulate_reconstruct()
// literally below — every lane's result is bit-identical to the single-RHS
// kernel.  Two scalar details matter: unary minus and conj are IEEE
// sign-bit flips (exact), and the scalar kernel writes its complex
// products out with cmul/cmul_conj (linalg/types.h) as (ac - bd,
// ad + bc), the sequence cv_mul_acc performs per lane, so the two paths
// agree for every finite input.  The build keeps the default SSE2
// baseline — no FMA contraction on either path.  tests/test_serve.cpp
// asserts the per-RHS identity end to end.
// ---------------------------------------------------------------------------

/// Four float lanes: one value across four RHS.
typedef float V4f __attribute__((vector_size(16)));

/// A complex number per lane, split re/im.
struct CplxV4 {
  V4f re, im;
};

inline CplxV4 cv_zero() { return CplxV4{V4f{0, 0, 0, 0}, V4f{0, 0, 0, 0}}; }

/// Lane-wise complex add/sub (elementwise IEEE add/sub, as std::complex's).
inline CplxV4 cv_add(const CplxV4& a, const CplxV4& b) {
  return CplxV4{a.re + b.re, a.im + b.im};
}
inline CplxV4 cv_sub(const CplxV4& a, const CplxV4& b) {
  return CplxV4{a.re - b.re, a.im - b.im};
}

/// i^p per lane: swaps and sign flips only, mirroring mul_i_pow().
inline CplxV4 cv_mul_i_pow(int p, const CplxV4& z) {
  switch (p & 3) {
    case 0: return z;
    case 1: return CplxV4{-z.im, z.re};
    case 2: return CplxV4{-z.re, -z.im};
    default: return CplxV4{z.im, -z.re};
  }
}

/// One complex scalar broadcast across lanes (a gauge-link entry — the same
/// link serves every RHS, which is the point of the batch).
struct CplxB4 {
  V4f re, im;
};
inline CplxB4 cv_bcast(const Cplx<float>& z) {
  const float r = z.real();
  const float i = z.imag();
  return CplxB4{V4f{r, r, r, r}, V4f{i, i, i, i}};
}

/// acc += a * b with the complex fast-path formula (ac - bd, ad + bc),
/// the exact sequence the scalar `s += u(i,j) * v[j]` performs per lane.
inline void cv_mul_acc(CplxV4& acc, const CplxB4& a, const CplxV4& b) {
  acc.re += a.re * b.re - a.im * b.im;
  acc.im += a.re * b.im + a.im * b.re;
}

/// Transposes the four RHS spinors at one site into lane vectors.
inline void gather4(CplxV4 psi[kNSpin][kNColor],
                    const WilsonSpinor<float>* const* in, std::int64_t site) {
  const WilsonSpinor<float>& p0 = in[0][site];
  const WilsonSpinor<float>& p1 = in[1][site];
  const WilsonSpinor<float>& p2 = in[2][site];
  const WilsonSpinor<float>& p3 = in[3][site];
  for (int a = 0; a < kNSpin; ++a) {
    for (int c = 0; c < kNColor; ++c) {
      psi[a][c].re = V4f{p0[a][c].real(), p1[a][c].real(), p2[a][c].real(),
                         p3[a][c].real()};
      psi[a][c].im = V4f{p0[a][c].imag(), p1[a][c].imag(), p2[a][c].imag(),
                         p3[a][c].imag()};
    }
  }
}

/// One hop leg (project -> color mat-vec -> reconstruct) for four lanes,
/// following project()/adj_mul()/accumulate_reconstruct() step for step.
inline void hop_leg4(const Matrix3<float>& link, int mu, int sign,
                     bool adjoint, const CplxV4 psi[kNSpin][kNColor],
                     CplxV4 acc[kNSpin][kNColor]) {
  const GammaPattern& gp = kGamma[static_cast<std::size_t>(mu)];
  // project(): h[a][c] = psi[a][c] +- i^phase[a] psi[col[a]][c].  The
  // scalar `x + (-t)` is IEEE-identical to `x - t`.
  CplxV4 h[2][kNColor];
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    for (int c = 0; c < kNColor; ++c) {
      const CplxV4 t = cv_mul_i_pow(gp.phase[aa], psi[gp.col[aa]][c]);
      h[a][c] = sign > 0 ? cv_add(psi[a][c], t) : cv_sub(psi[a][c], t);
    }
  }
  // t[a][i] = sum_j L(i,j) h[a][j] (or conj(L(j,i)) for the adjoint),
  // accumulating from zero in j order exactly as the scalar mat-vec does.
  CplxV4 t[2][kNColor];
  for (int i = 0; i < kNColor; ++i) {
    CplxB4 row[kNColor];
    for (int j = 0; j < kNColor; ++j) {
      row[j] = cv_bcast(adjoint ? std::conj(link(j, i)) : link(i, j));
    }
    for (int a = 0; a < 2; ++a) {
      CplxV4 sum = cv_zero();
      for (int j = 0; j < kNColor; ++j) cv_mul_acc(sum, row[j], h[a][j]);
      t[a][i] = sum;
    }
  }
  // accumulate_reconstruct(): out[a] += t[a]; out[col[a]] +-= conj-phase t.
  for (int a = 0; a < 2; ++a) {
    const auto aa = static_cast<std::size_t>(a);
    const int c_row = gp.col[aa];
    const int conj_phase = (4 - gp.phase[aa]) & 3;
    for (int c = 0; c < kNColor; ++c) {
      acc[a][c] = cv_add(acc[a][c], t[a][c]);
      const CplxV4 v = cv_mul_i_pow(conj_phase, t[a][c]);
      acc[c_row][c] =
          sign > 0 ? cv_add(acc[c_row][c], v) : cv_sub(acc[c_row][c], v);
    }
  }
}

/// The full Wilson hop at one site for four RHS lanes.
template <typename Gauge>
inline void wilson_site_hop4(WilsonSpinor<float>* const* out,
                             const WilsonSpinor<float>* const* in,
                             const Gauge& u, std::int64_t s,
                             const std::int64_t* sp, const std::int64_t* sm) {
  CplxV4 acc[kNSpin][kNColor];
  for (int a = 0; a < kNSpin; ++a) {
    for (int c = 0; c < kNColor; ++c) acc[a][c] = cv_zero();
  }
  CplxV4 psi[kNSpin][kNColor];
  for (int mu = 0; mu < kNDim; ++mu) {
    if (sp[mu] >= 0) {
      const Matrix3<float>& link = u.link(mu, s);
      gather4(psi, in, sp[mu]);
      hop_leg4(link, mu, -1, /*adjoint=*/false, psi, acc);
    }
    if (sm[mu] >= 0) {
      const Matrix3<float>& link = u.link(mu, sm[mu]);
      gather4(psi, in, sm[mu]);
      hop_leg4(link, mu, +1, /*adjoint=*/true, psi, acc);
    }
  }
  for (int l = 0; l < 4; ++l) {
    WilsonSpinor<float>& o = out[l][s];
    for (int a = 0; a < kNSpin; ++a) {
      for (int c = 0; c < kNColor; ++c) {
        o[a][c] = Cplx<float>(acc[a][c].re[l], acc[a][c].im[l]);
      }
    }
  }
}

#endif  // LQCD_MULTI_RHS_SIMD

/// The Wilson hop at site \p s for w <= kMaxMultiRhs RHS: out[r][s] =
/// D in[r] at s over the legs whose neighbour index is set (-1 drops a
/// leg: the Dirichlet cut of a block hop).  The neighbour indices and the
/// links are resolved once and shared by every RHS.  Float batches run
/// four RHS per SIMD lane group; the tail lanes (w % 4), non-float reals
/// and non-GNU builds run the scalar path, whose per-RHS operation order
/// is the single-RHS kernel's.  The one batched Wilson site body: the
/// whole-lattice hop below and PartitionedWilsonClover's block hop both
/// call it.
template <typename Real, typename Gauge>
inline void wilson_site_hop_multi(WilsonSpinor<Real>* const* out,
                                  const WilsonSpinor<Real>* const* in, int w,
                                  const Gauge& u, std::int64_t s,
                                  const std::int64_t* sp,
                                  const std::int64_t* sm) {
  int r0 = 0;
#ifdef LQCD_MULTI_RHS_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    for (; r0 + 4 <= w; r0 += 4) {
      wilson_site_hop4(out + r0, in + r0, u, s, sp, sm);
    }
  }
#endif
  for (int r = r0; r < w; ++r) {
    WilsonSpinor<Real> acc{};
    for (int mu = 0; mu < kNDim; ++mu) {
      if (sp[mu] >= 0) {
        const auto& link = u.link(mu, s);
        const HalfSpinor<Real> h = project(mu, -1, in[r][sp[mu]]);
        const HalfSpinor<Real> t = link * h;
        accumulate_reconstruct(mu, -1, t, acc);
      }
      if (sm[mu] >= 0) {
        const auto& link = u.link(mu, sm[mu]);
        const HalfSpinor<Real> h = project(mu, +1, in[r][sm[mu]]);
        const HalfSpinor<Real> t = adj_mul(link, h);
        accumulate_reconstruct(mu, +1, t, acc);
      }
    }
    out[r][s] = acc;
  }
}

/// One tuned sweep over a batch of width w <= kMaxMultiRhs.
template <typename Real, typename Gauge>
void wilson_hop_multi_group(const std::vector<WilsonField<Real>*>& outs,
                            const Gauge& u,
                            const std::vector<const WilsonField<Real>*>& ins,
                            const NeighborTable& nt, std::size_t base, int w,
                            std::optional<Parity> target) {
  const LatticeGeometry& g = ins[base]->geometry();
  const std::int64_t begin =
      target.has_value() && *target == Parity::Odd ? g.half_volume() : 0;
  const std::int64_t end =
      target.has_value() && *target == Parity::Even ? g.half_volume()
                                                    : g.volume();
  // Hoist the per-RHS site arrays out of the sweep: indexing through
  // `ins[base + r]->at(sp)` inside the site loop re-chases two pointers
  // (vector slot, then field data) per RHS per neighbor, which the
  // single-RHS kernel never pays — with the flat arrays the batch loop is
  // pure data traffic, same as the single kernel.
  const WilsonSpinor<Real>* in[kMaxMultiRhs];
  WilsonSpinor<Real>* out[kMaxMultiRhs];
  for (int r = 0; r < w; ++r) {
    in[r] = ins[base + std::size_t(r)]->sites().data();
    out[r] = outs[base + std::size_t(r)]->sites().data();
  }
  // The loop writes w output fields but the tuner's save/restore span only
  // covers outs[base].  That is sufficient: every write is a plain
  // assignment recomputed from the (unmodified) inputs, so timing re-runs
  // leave the other outputs with the same final values.
  tuned_site_loop(
      "wilson_hop_multi",
      multi_rhs_aux(dslash_aux<Real>(target, false, gauge_recon(u)), w),
      outs[base]->sites(), end - begin, [&](std::int64_t idx) {
    const std::int64_t s = begin + idx;
    // Every entry of the unpartitioned table is local: the neighbours
    // wrap around, as in wilson_hop.
    std::int64_t sp[kNDim];
    std::int64_t sm[kNDim];
    for (int mu = 0; mu < kNDim; ++mu) {
      sp[mu] = nt.neighbor(s, mu, +1, 1).index;
      sm[mu] = nt.neighbor(s, mu, -1, 1).index;
    }
    wilson_site_hop_multi(out, in, w, u, s, sp, sm);
  });
  // Links are loaded once per site for the whole group.
  meter_gauge_bytes(gauge_recon(u), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
}

}  // namespace detail

/// outs[r](x) = D ins[r](x) for the selected target sites — the multi-RHS
/// twin of wilson_hop, with wraparound neighbours read from the shared
/// table of the lattice's extents (shared_local_neighbors).  Batches wider
/// than kMaxMultiRhs run in groups.
template <typename Real, typename Gauge>
void wilson_hop_multi(const std::vector<WilsonField<Real>*>& outs,
                      const Gauge& u,
                      const std::vector<const WilsonField<Real>*>& ins,
                      std::optional<Parity> target = std::nullopt) {
  if (ins.empty()) return;
  const std::shared_ptr<const NeighborTable> nt =
      shared_local_neighbors(ins[0]->geometry(), 1);
  for (std::size_t base = 0; base < ins.size(); base += kMaxMultiRhs) {
    const int w = static_cast<int>(
        std::min<std::size_t>(kMaxMultiRhs, ins.size() - base));
    detail::wilson_hop_multi_group(outs, u, ins, *nt, base, w, target);
  }
}

}  // namespace lqcd
