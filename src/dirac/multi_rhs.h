#pragma once
/// \file multi_rhs.h
/// \brief Multi-RHS dslash kernels and the batched-operator interface.
///
/// The batched setting (QUDA's multi-GPU practice, Babich et al.
/// arXiv:1011.0024) amortizes the dominant memory traffic of the hopping
/// term — the gauge links — across right-hand sides: one link, brought
/// into cache once, services N spinor mat-vecs.  The kernel here is the
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
/// template parameter.  Each site resolves its neighbour indices once and
/// runs the one Wilson site body (detail::wilson_site_hop) per RHS: for a
/// float field that is the spin-pair lane leg (linalg/gamma.h), the one
/// Wilson lane leg.  wilson_hop_multi runs at every width, width 1
/// included.
///
/// Gauge traffic is metered nominally, once per link per site for the
/// whole group, not once per RHS, so `dslash.gauge_bytes` reflects the
/// amortization the batch is for: the per-RHS bodies reload each link,
/// and those reloads hit L1 (a compressed field's links are rebuilt once
/// per site and served from a SiteLinks copy).

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
#include "tune/site_loop.h"

namespace lqcd {

/// Widest RHS batch a single kernel sweep services; wider batches are
/// processed in groups of this size (a sweep holds one input and one
/// output site pointer per RHS).
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

namespace detail {

/// Batch-width fragment for the tune-cache aux key.
inline std::string multi_rhs_aux(std::string aux, int width) {
  aux += ",w" + std::to_string(width);
  return aux;
}

/// The links of one site's legs, rebuilt once from a compressed field
/// and served to every RHS of a batched site hop: link(mu, s) is the
/// forward link, link(mu, sm[mu]) the backward one (extents are at least
/// 2, so sm[mu] is never s).  The values are the field's own, so the bits
/// are too.
template <typename Real>
struct SiteLinks {
  std::int64_t s;
  Matrix3<Real> fwd[kNDim];
  Matrix3<Real> bwd[kNDim];
  const Matrix3<Real>& link(int mu, std::int64_t i) const {
    return i == s ? fwd[mu] : bwd[mu];
  }
};

/// wilson_site_hop at site \p s for w <= kMaxMultiRhs RHS: out[r][s] =
/// D in[r] at s over the legs whose neighbour index is set (-1 drops a
/// leg: the Dirichlet cut of a block hop).  The neighbour indices are
/// resolved once and shared by every RHS; the site body runs once per
/// RHS (spin-pair lanes for float).  A compressed field's links are
/// rebuilt once per site (SiteLinks), not once per RHS.  The
/// whole-lattice hop below and PartitionedWilsonClover's batched block
/// hop both call it.
template <typename Real, typename Gauge>
inline void wilson_site_hop_multi(WilsonSpinor<Real>* const* out,
                                  const WilsonSpinor<Real>* const* in, int w,
                                  const Gauge& u, std::int64_t s,
                                  const std::int64_t* sp,
                                  const std::int64_t* sm) {
  if constexpr (std::is_reference_v<decltype(u.link(0, s))>) {
    for (int r = 0; r < w; ++r) {
      out[r][s] = wilson_site_hop<Real>(u, in[r], s, sp, sm);
    }
  } else {
    SiteLinks<Real> links{s, {}, {}};
    for (int mu = 0; mu < kNDim; ++mu) {
      if (sp[mu] >= 0) links.fwd[mu] = u.link(mu, s);
      if (sm[mu] >= 0) links.bwd[mu] = u.link(mu, sm[mu]);
    }
    for (int r = 0; r < w; ++r) {
      out[r][s] = wilson_site_hop<Real>(links, in[r], s, sp, sm);
    }
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
  // Nominal: one fetch per link for the whole group (see the file comment).
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
