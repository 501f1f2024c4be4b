#pragma once
/// \file wilson_ops.h
/// \brief Wilson and Wilson-clover operator classes on the full lattice.

#include <memory>
#include <optional>

#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "dirac/wilson_kernel.h"
#include "fields/clover.h"
#include "fields/compressed_gauge.h"
#include "fields/precision.h"

namespace lqcd {

/// M = (4 + m + A) - (1/2) D, optionally Dirichlet-cut by a block mask.
/// The clover field may be null (plain Wilson, A = 0).
///
/// Applications run the fused wilson_clover_apply kernel (hop + diagonal in
/// one sweep).  The gauge storage format defaults to the full 18-real field;
/// it can be forced per operator (\p recon) or process-wide via LQCD_RECON,
/// and LQCD_RECON=tune lets the autotuner pick the fastest format for this
/// kernel/volume (policy tunable, cached as `wilson_clover_recon`).
template <typename Real>
class WilsonCloverOperator : public LinearOperator<WilsonField<Real>> {
 public:
  WilsonCloverOperator(const GaugeField<Real>& u, const CloverField<Real>* a,
                       double mass, const LinkCut* mask = nullptr,
                       Reconstruct recon = Reconstruct::None)
      : u_(&u), a_(a), mass_(mass), mask_(mask),
        nt_(shared_local_neighbors(u.geometry(), 1)) {
    // Scratch fields exist only while the policy sweep runs (forced /
    // default settings never invoke the callback).
    std::unique_ptr<WilsonField<Real>> tin;
    std::unique_ptr<WilsonField<Real>> tout;
    recon_ = select_reconstruct(
        "wilson_clover",
        detail::dslash_aux<Real>(std::nullopt, mask != nullptr),
        u.geometry().volume(), recon, [&](Reconstruct r) {
          if (!tin) {
            tin = std::make_unique<WilsonField<Real>>(u.geometry());
            tout = std::make_unique<WilsonField<Real>>(u.geometry());
          }
          ensure_compressed(r);
          apply_with(r, *tout, *tin);
        });
    ensure_compressed(recon_);
    // Keep only the selected format resident.
    if (recon_ != Reconstruct::Twelve) c12_.reset();
    if (recon_ != Reconstruct::Eight) c8_.reset();
  }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    apply_with(recon_, out, in);
  }

  const LatticeGeometry& geometry() const override { return u_->geometry(); }

  double mass() const { return mass_; }
  const GaugeField<Real>& gauge() const { return *u_; }
  const CloverField<Real>* clover() const { return a_; }
  Reconstruct recon() const { return recon_; }

 private:
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

  void apply_with(Reconstruct r, WilsonField<Real>& out,
                  const WilsonField<Real>& in) const {
    switch (r) {
      case Reconstruct::Twelve:
        wilson_clover_apply(out, *c12_, a_, mass_, in, *nt_, mask_);
        break;
      case Reconstruct::Eight:
        wilson_clover_apply(out, *c8_, a_, mass_, in, *nt_, mask_);
        break;
      case Reconstruct::None:
      default:
        wilson_clover_apply(out, *u_, a_, mass_, in, *nt_, mask_);
        break;
    }
  }

  const GaugeField<Real>* u_;
  const CloverField<Real>* a_;
  double mass_;
  const LinkCut* mask_;
  /// The neighbour table of the applies, held so that the shared table is
  /// built once per operator, not per call.
  std::shared_ptr<const NeighborTable> nt_;
  Reconstruct recon_ = Reconstruct::None;
  std::unique_ptr<CompressedGaugeField<Real>> c12_;
  std::unique_ptr<CompressedGaugeField<Real>> c8_;
};

/// gamma5 M — Hermitian when M is gamma5-Hermitian; used in tests and for
/// CGNE/CGNR normal-equation solves.
template <typename Real>
void apply_gamma5_field(WilsonField<Real>& f) {
  for (auto& s : f.sites()) s = apply_gamma5(s);
}

/// Wraps an operator with the normal equations A^dag A using the
/// gamma5-Hermiticity A^dag = g5 A g5 of Wilson-type operators.
template <typename Real>
class WilsonNormalOperator : public LinearOperator<WilsonField<Real>> {
 public:
  explicit WilsonNormalOperator(const WilsonCloverOperator<Real>& m)
      : m_(&m), tmp_(m.geometry()) {}

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    m_->apply(tmp_, in);
    apply_gamma5_field(tmp_);
    m_->apply(out, tmp_);
    apply_gamma5_field(out);
  }

  const LatticeGeometry& geometry() const override { return m_->geometry(); }

 private:
  const WilsonCloverOperator<Real>* m_;
  mutable WilsonField<Real> tmp_;
};

}  // namespace lqcd
