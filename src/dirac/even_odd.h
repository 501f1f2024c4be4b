#pragma once
/// \file even_odd.h
/// \brief Even-odd (red-black) Schur-complement preconditioning of the
/// Wilson-clover operator (§3.1).
///
/// With sites split by parity, M has the 2x2 block form
///   M = [ A_ee        -1/2 D_eo ]
///       [ -1/2 D_oe    A_oo     ]        A = 4 + m + A_clover,
/// and the Schur complement on the even checkerboard is
///   M_hat = A_ee - (1/4) D_eo A_oo^{-1} D_oe.
/// Solving M_hat x_e = b_e + (1/2) D_eo A_oo^{-1} b_o and back-substituting
/// x_o = A_oo^{-1} (b_o + (1/2) D_oe x_e) halves the system size and
/// improves the condition number — "almost always used" per the paper.
///
/// Fields passed through this operator keep the odd checkerboard zero.
///
/// M_hat is two parity hops, each followed by a pass of the Schur site
/// step over the parity it wrote (detail::schur_site,
/// dirac/wilson_kernel.h): A_oo^{-1} D_oe in on odd sites, then A_ee in -
/// (1/4) D_eo of that on even ones.  One clover field holds both
/// diagonals, A_ee on even sites and A_oo^{-1} on odd
/// (schur_diagonal_site), as the partitioned and block operators store
/// theirs.
///
/// Like WilsonCloverOperator, the half-hops can execute from a
/// reconstruct-12/-8 gauge field (ctor \p recon, LQCD_RECON override,
/// LQCD_RECON=tune policy sweep cached as `wilson_schur_recon`).

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "dirac/multi_rhs.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "dirac/wilson_kernel.h"
#include "fields/clover.h"
#include "fields/compressed_gauge.h"
#include "lattice/neighbor_table.h"
#include "util/parallel_for.h"

namespace lqcd {

/// The Schur operator M_hat (optionally Dirichlet-cut for Schwarz blocks),
/// applied one RHS at a time or as a batch.
template <typename Real>
class WilsonCloverSchurOperator
    : public LinearOperator<WilsonField<Real>>,
      public MultiRhsOperator<WilsonField<Real>> {
 public:
  /// \param a clover field (may be null for plain Wilson).
  WilsonCloverSchurOperator(const GaugeField<Real>& u,
                            const CloverField<Real>* a, double mass,
                            const LinkCut* mask = nullptr,
                            Reconstruct recon = Reconstruct::None)
      : u_(&u), mass_(mass), mask_(mask),
        nt_(shared_local_neighbors(u.geometry(), 1)), tmp_(u.geometry()),
        schur_(u.geometry()) {
    const Real d = static_cast<Real>(4.0 + mass);
    const LatticeGeometry& g = u.geometry();
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      schur_.at(s) = schur_diagonal_site(a != nullptr ? &a->at(s) : nullptr,
                                         d, s >= g.half_volume());
    }
    std::unique_ptr<WilsonField<Real>> tin;
    std::unique_ptr<WilsonField<Real>> tout;
    recon_ = select_reconstruct(
        "wilson_schur", detail::dslash_aux<Real>(std::nullopt, mask != nullptr),
        g.half_volume(), recon, [&](Reconstruct r) {
          if (!tin) {
            tin = std::make_unique<WilsonField<Real>>(g);
            tout = std::make_unique<WilsonField<Real>>(g);
          }
          ensure_compressed(r);
          with_gauge(r, [&](const auto& ug) { apply_impl(ug, *tout, *tin); });
        });
    ensure_compressed(recon_);
    if (recon_ != Reconstruct::Twelve) c12_.reset();
    if (recon_ != Reconstruct::Eight) c8_.reset();
  }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    with_gauge(recon_, [&](const auto& ug) { apply_impl(ug, out, in); });
  }

  /// Batched M_hat: one site sweep per hop services every RHS from a
  /// single (reconstructed) gauge-link load.  Per-RHS arithmetic replicates
  /// apply() exactly, so outs[r] is bitwise identical to apply(ins[r]).
  /// \throws std::logic_error on a Dirichlet-cut operator: the batched
  /// Schwarz runs its cut hops block by block
  /// (BlockTaskSchwarzPreconditioner), so no batched caller passes a cut.
  void apply_multi(const std::vector<WilsonField<Real>*>& outs,
                   const std::vector<const WilsonField<Real>*>& ins)
      const override {
    if (mask_ != nullptr) {
      throw std::logic_error(
          "WilsonCloverSchurOperator::apply_multi: the operator is "
          "Dirichlet-cut; batch the cut through "
          "BlockTaskSchwarzPreconditioner");
    }
    const std::size_t w = ins.size();
    for (std::size_t r = 0; r < w; ++r) this->count_application();
    while (tmp_multi_.size() < w) tmp_multi_.emplace_back(geometry());
    std::vector<WilsonField<Real>*> tmps(w);
    std::vector<const WilsonField<Real>*> ctmps(w);
    for (std::size_t r = 0; r < w; ++r) {
      zero_parity(tmp_multi_[r], Parity::Even);
      zero_parity(*outs[r], Parity::Odd);
      tmps[r] = &tmp_multi_[r];
      ctmps[r] = &tmp_multi_[r];
    }
    with_gauge(recon_, [&](const auto& ug) {
      // tmp_o = A_oo^{-1} D_oe in_e; each link and clover site is loaded
      // once for the batch.
      wilson_hop_multi(tmps, ug, ins, *nt_, Parity::Odd);
      schur_pass(Parity::Odd, tmps.data(), nullptr, w);
      // out_e = A_ee in_e - 1/4 D_eo tmp_o
      wilson_hop_multi(outs, ug, ctmps, *nt_, Parity::Even);
      schur_pass(Parity::Even, outs.data(), ins.data(), w);
    });
  }

  const LatticeGeometry& geometry() const override { return u_->geometry(); }

  Reconstruct recon() const { return recon_; }

  /// b_hat_e = b_e + (1/2) D_eo A_oo^{-1} b_o (result's odd part zero).
  void prepare_source(WilsonField<Real>& b_hat,
                      const WilsonField<Real>& b) const {
    tmp_.set_zero();
    for_parity(tmp_, Parity::Odd, [&](std::int64_t s, WilsonSpinor<Real>& v) {
      v = clover_apply(schur_.at(s), b.at(s));
    });
    b_hat.set_zero();
    with_gauge(recon_, [&](const auto& ug) {
      wilson_hop(b_hat, ug, tmp_, *nt_, Parity::Even, mask_);
    });
    const LatticeGeometry& g = geometry();
    for (std::int64_t s = 0; s < g.half_volume(); ++s) {
      WilsonSpinor<Real> v = b_hat.at(s);
      v *= Real(0.5);
      v += b.at(s);
      b_hat.at(s) = v;
    }
  }

  /// x_o = A_oo^{-1} (b_o + (1/2) D_oe x_e); fills the odd part of x.
  void reconstruct_solution(WilsonField<Real>& x,
                            const WilsonField<Real>& b) const {
    const LatticeGeometry& g = geometry();
    tmp_.set_zero();
    with_gauge(recon_, [&](const auto& ug) {
      wilson_hop(tmp_, ug, x, *nt_, Parity::Odd, mask_);
    });
    for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
      WilsonSpinor<Real> v = tmp_.at(s);
      v *= Real(0.5);
      v += b.at(s);
      x.at(s) = clover_apply(schur_.at(s), v);
    }
  }

 private:
  template <typename Gauge>
  void apply_impl(const Gauge& ug, WilsonField<Real>& out,
                  const WilsonField<Real>& in) const {
    WilsonField<Real>* tmp = &tmp_;
    WilsonField<Real>* o = &out;
    const WilsonField<Real>* i = &in;
    // tmp_o = A_oo^{-1} D_oe in_e
    zero_parity(tmp_, Parity::Even);
    wilson_hop(tmp_, ug, in, *nt_, Parity::Odd, mask_);
    schur_pass(Parity::Odd, &tmp, nullptr, 1);
    // out_e = A_ee in_e - 1/4 D_eo tmp_o
    zero_parity(out, Parity::Odd);
    wilson_hop(out, ug, tmp_, *nt_, Parity::Even, mask_);
    schur_pass(Parity::Even, &o, &i, 1);
  }

  /// The Schur step (detail::schur_site) in place on parity \p p of
  /// outs[0..w), which hold that parity's hop: A_oo^{-1} outs[r] on odd
  /// sites, A_ee ins[r] - 1/4 outs[r] on even ones (\p ins is read only
  /// there).  Each clover site is loaded once for the batch.
  void schur_pass(Parity p, WilsonField<Real>* const* outs,
                  const WilsonField<Real>* const* ins, std::size_t w) const {
    const std::int64_t h = geometry().half_volume();
    const std::int64_t begin = p == Parity::Even ? 0 : h;
    parallel_for(h, [&](std::int64_t i) {
      const std::int64_t s = begin + i;
      const CloverSite<Real>& cs = schur_.at(s);
      for (std::size_t r = 0; r < w; ++r) {
        WilsonSpinor<Real>& v = outs[r]->at(s);
        v = detail::schur_site(cs, v,
                               p == Parity::Even ? &ins[r]->at(s) : nullptr);
      }
    });
  }

  static void zero_parity(WilsonField<Real>& f, Parity p) {
    const auto half = f.parity_span(p);
    std::fill(half.begin(), half.end(), WilsonSpinor<Real>{});
  }

  void ensure_compressed(Reconstruct r) {
    if (r == Reconstruct::Twelve && !c12_) {
      c12_ = std::make_unique<CompressedGaugeField<Real>>(*u_,
                                                          Reconstruct::Twelve);
    }
    if (r == Reconstruct::Eight && !c8_) {
      c8_ = std::make_unique<CompressedGaugeField<Real>>(*u_,
                                                         Reconstruct::Eight);
    }
  }

  template <typename Fn>
  void with_gauge(Reconstruct r, Fn&& fn) const {
    switch (r) {
      case Reconstruct::Twelve: fn(*c12_); break;
      case Reconstruct::Eight: fn(*c8_); break;
      case Reconstruct::None:
      default: fn(*u_); break;
    }
  }

  template <typename Fn>
  void for_parity(WilsonField<Real>& f, Parity p, Fn&& fn) const {
    const LatticeGeometry& g = geometry();
    const std::int64_t begin = p == Parity::Even ? 0 : g.half_volume();
    const std::int64_t end =
        p == Parity::Even ? g.half_volume() : g.volume();
    for (std::int64_t s = begin; s < end; ++s) fn(s, f.at(s));
  }

  const GaugeField<Real>* u_;
  double mass_;
  const LinkCut* mask_;
  /// The neighbour table every hop reads (the mask, if any, drops legs on
  /// top of it), held so that the shared table is built once per operator,
  /// not per call.
  std::shared_ptr<const NeighborTable> nt_;
  mutable WilsonField<Real> tmp_;
  mutable std::vector<WilsonField<Real>> tmp_multi_;  // apply_multi scratch
  /// A_ee = A + 4 + m on even sites, A_oo^{-1} on odd (schur_diagonal_site).
  CloverField<Real> schur_;
  Reconstruct recon_ = Reconstruct::None;
  std::unique_ptr<CompressedGaugeField<Real>> c12_;
  std::unique_ptr<CompressedGaugeField<Real>> c8_;
};

}  // namespace lqcd
