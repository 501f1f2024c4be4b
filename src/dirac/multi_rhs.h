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
/// right-hand sides* at a fixed site.  Both run the same lane family
/// (CplxLanes, linalg/simd.h) and the same lane leg
/// (detail::lane_wilson_leg, dirac/wilson_kernel.h); they differ only in
/// how a leg reads a link entry.  The batched path stays AoS by design:
/// its lanes are already full of independent work at every site, so a
/// site-blocked layout would add transmute traffic without widening
/// anything, and keeping the RHS containers AoS lets the service accept
/// and return caller-owned fields with no layout round trip.
/// wilson_hop_multi runs at every width, width 1 included (one scalar
/// RHS); LQCD_LAYOUT reaches only WilsonCloverOperator.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "dirac/dslash_tune.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "dirac/wilson_kernel.h"
#include "fields/lattice_field.h"
#include "lattice/neighbor_table.h"
#include "linalg/gamma.h"
#include "linalg/simd.h"
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

#ifdef LQCD_SOA_SIMD

// ---------------------------------------------------------------------------
// Lane-batched (SIMD-across-RHS) float path.
//
// At L2-resident block sizes the hop kernels are ALU-bound, so amortizing
// link *loads* across the batch caps out well below the link-amortization
// model: the per-RHS projection / SU(3) mat-vec / reconstruction arithmetic
// dominates.  The lane path cuts that arithmetic itself: four RHS ride the
// four lanes of a 128-bit float vector (CplxLanes<float, 4>,
// linalg/simd.h), the shared gauge-link entry is broadcast, and each leg
// is detail::lane_wilson_leg, the lane form of the scalar site body.  Its
// vertical ops apply the scalar body's IEEE sequence to each lane (see
// linalg/simd.h, "Bitwise contract"), so every lane's result is
// bit-identical to the single-RHS kernel; tests/test_serve.cpp asserts
// the per-RHS identity end to end.
// ---------------------------------------------------------------------------

/// Transposes the four RHS spinors at one site into lane form.
inline void gather_rhs_lanes(CplxLanes<float, 4> psi[kNSpin][kNColor],
                             const WilsonSpinor<float>* const* in,
                             std::int64_t site) {
  const WilsonSpinor<float>& p0 = in[0][site];
  const WilsonSpinor<float>& p1 = in[1][site];
  const WilsonSpinor<float>& p2 = in[2][site];
  const WilsonSpinor<float>& p3 = in[3][site];
  for (int a = 0; a < kNSpin; ++a) {
    for (int c = 0; c < kNColor; ++c) {
      psi[a][c].re = LaneVec<float, 4>{p0[a][c].real(), p1[a][c].real(),
                                       p2[a][c].real(), p3[a][c].real()};
      psi[a][c].im = LaneVec<float, 4>{p0[a][c].imag(), p1[a][c].imag(),
                                       p2[a][c].imag(), p3[a][c].imag()};
    }
  }
}

/// A link's entries broadcast across the RHS lanes: one link serves every
/// RHS, which is the point of the batch.
struct BroadcastLink {
  const Matrix3<float>& m;
  CplxLanes<float, 4> operator()(int i, int j) const {
    const Cplx<float> z = m(i, j);
    return CplxLanes<float, 4>{lane_broadcast<float, 4>(z.real()),
                               lane_broadcast<float, 4>(z.imag())};
  }
};

/// wilson_site_hop at one site for four RHS lanes.
template <typename Gauge>
inline void wilson_site_hop_lanes(WilsonSpinor<float>* const* out,
                                  const WilsonSpinor<float>* const* in,
                                  const Gauge& u, std::int64_t s,
                                  const std::int64_t* sp,
                                  const std::int64_t* sm) {
  CplxLanes<float, 4> acc[kNSpin][kNColor] = {};
  CplxLanes<float, 4> psi[kNSpin][kNColor];
  for (int mu = 0; mu < kNDim; ++mu) {
    if (sp[mu] >= 0) {
      const Matrix3<float>& link = u.link(mu, s);
      gather_rhs_lanes(psi, in, sp[mu]);
      lane_wilson_leg<float, 4>(BroadcastLink{link}, mu, -1,
                                /*adjoint=*/false, psi, acc);
    }
    if (sm[mu] >= 0) {
      const Matrix3<float>& link = u.link(mu, sm[mu]);
      gather_rhs_lanes(psi, in, sm[mu]);
      lane_wilson_leg<float, 4>(BroadcastLink{link}, mu, +1,
                                /*adjoint=*/true, psi, acc);
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

#endif  // LQCD_SOA_SIMD

/// wilson_site_hop at site \p s for w <= kMaxMultiRhs RHS: out[r][s] =
/// D in[r] at s over the legs whose neighbour index is set (-1 drops a
/// leg: the Dirichlet cut of a block hop).  The neighbour indices are
/// resolved once and shared by every RHS.  Float batches run four RHS per
/// SIMD lane group; the tail lanes (w % 4), non-float reals and builds
/// without vector extensions run the scalar body per RHS.  The whole-
/// lattice hop below and PartitionedWilsonClover's batched block hop both
/// call it.
template <typename Real, typename Gauge>
inline void wilson_site_hop_multi(WilsonSpinor<Real>* const* out,
                                  const WilsonSpinor<Real>* const* in, int w,
                                  const Gauge& u, std::int64_t s,
                                  const std::int64_t* sp,
                                  const std::int64_t* sm) {
  int r0 = 0;
#ifdef LQCD_SOA_SIMD
  if constexpr (std::is_same_v<Real, float>) {
    for (; r0 + 4 <= w; r0 += 4) {
      wilson_site_hop_lanes(out + r0, in + r0, u, s, sp, sm);
    }
  }
#endif
  for (int r = r0; r < w; ++r) {
    out[r][s] = wilson_site_hop<Real>(u, in[r], s, sp, sm);
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
    std::int64_t sp[kNDim];
    std::int64_t sm[kNDim];
    wilson_neighbors(nt, s, nullptr, sp, sm);
    wilson_site_hop_multi(out, in, w, u, s, sp, sm);
  });
  // Links are loaded once per site for the whole group.
  meter_gauge_bytes(gauge_recon(u), 8 * (end - begin),
                    static_cast<int>(sizeof(Real)));
}

}  // namespace detail

/// outs[r](x) = D ins[r](x) for the selected target sites — the multi-RHS
/// twin of wilson_hop, with wraparound neighbours read from \p nt (the
/// unpartitioned table of the lattice's extents).  Batches wider than
/// kMaxMultiRhs run in groups.
template <typename Real, typename Gauge>
void wilson_hop_multi(const std::vector<WilsonField<Real>*>& outs,
                      const Gauge& u,
                      const std::vector<const WilsonField<Real>*>& ins,
                      const NeighborTable& nt,
                      std::optional<Parity> target = std::nullopt) {
  for (std::size_t base = 0; base < ins.size(); base += kMaxMultiRhs) {
    const int w = static_cast<int>(
        std::min<std::size_t>(kMaxMultiRhs, ins.size() - base));
    detail::wilson_hop_multi_group(outs, u, ins, nt, base, w, target);
  }
}

/// wilson_hop_multi with the shared table of the lattice's extents
/// (shared_local_neighbors; see the matching wilson_hop overload).
template <typename Real, typename Gauge>
void wilson_hop_multi(const std::vector<WilsonField<Real>*>& outs,
                      const Gauge& u,
                      const std::vector<const WilsonField<Real>*>& ins,
                      std::optional<Parity> target = std::nullopt) {
  if (ins.empty()) return;
  wilson_hop_multi(outs, u, ins,
                   *shared_local_neighbors(ins[0]->geometry(), 1), target);
}

}  // namespace lqcd
