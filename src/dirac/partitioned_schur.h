#pragma once
/// \file partitioned_schur.h
/// \brief The even-odd (Schur) preconditioned Wilson-clover operator
/// evaluated through the *partitioned* dslash — the exact operator the
/// paper's production solvers run on the cluster: every parity hop
/// exchanges ghost zones (half the face payload, since only source-parity
/// sites travel), and the traffic meters record it.

#include <memory>

#include "dirac/partitioned.h"
#include "fields/clover.h"
#include "util/parallel_for.h"

namespace lqcd {

/// M_hat = A_ee - (1/4) D_eo A_oo^{-1} D_oe with D applied by the
/// multi-dimensionally partitioned stencil.
template <typename Real>
class PartitionedWilsonCloverSchur : public LinearOperator<WilsonField<Real>> {
 public:
  PartitionedWilsonCloverSchur(const Partitioning& part,
                               const GaugeField<Real>& u,
                               const CloverField<Real>* a, double mass,
                               bool comms = true)
      : hop_(part, u, a, mass, comms), tmp_(part.global()),
        diag_(part.global()), inv_diag_(part.global()) {
    const Real d = static_cast<Real>(4.0 + mass);
    const LatticeGeometry& g = part.global();
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      CloverSite<Real> cs = a != nullptr ? a->at(s) : CloverSite<Real>{};
      cs = clover_add_diagonal(cs, d);
      diag_.at(s) = cs;
      inv_diag_.at(s) = clover_invert(cs);
    }
  }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    // tmp_o = A_oo^{-1} D_oe in_e.
    hop_.apply_hop(tmp_, in, Parity::Odd);
    for_parity(Parity::Odd, [&](std::int64_t s) {
      tmp_.at(s) = clover_apply(inv_diag_.at(s), tmp_.at(s));
    });
    // out_e = A_ee in_e - (1/4) D_eo tmp_o.
    hop_.apply_hop(out, tmp_, Parity::Even);
    for_parity(Parity::Even, [&](std::int64_t s) {
      WilsonSpinor<Real> v = clover_apply(diag_.at(s), in.at(s));
      WilsonSpinor<Real> h = out.at(s);
      h *= Real(-0.25);
      v += h;
      out.at(s) = v;
    });
  }

  const LatticeGeometry& geometry() const override { return hop_.geometry(); }

  /// b_hat_e = b_e + (1/2) D_eo A_oo^{-1} b_o.
  void prepare_source(WilsonField<Real>& b_hat,
                      const WilsonField<Real>& b) const {
    tmp_.set_zero();
    for_parity(Parity::Odd, [&](std::int64_t s) {
      tmp_.at(s) = clover_apply(inv_diag_.at(s), b.at(s));
    });
    hop_.apply_hop(b_hat, tmp_, Parity::Even);
    for_parity(Parity::Even, [&](std::int64_t s) {
      WilsonSpinor<Real> v = b_hat.at(s);
      v *= Real(0.5);
      v += b.at(s);
      b_hat.at(s) = v;
    });
    for (auto& v : b_hat.parity_span(Parity::Odd)) v = WilsonSpinor<Real>{};
  }

  /// x_o = A_oo^{-1} (b_o + (1/2) D_oe x_e).
  void reconstruct_solution(WilsonField<Real>& x,
                            const WilsonField<Real>& b) const {
    hop_.apply_hop(tmp_, x, Parity::Odd);
    for_parity(Parity::Odd, [&](std::int64_t s) {
      WilsonSpinor<Real> v = tmp_.at(s);
      v *= Real(0.5);
      v += b.at(s);
      x.at(s) = clover_apply(inv_diag_.at(s), v);
    });
  }

  const PartitionedTraffic& traffic() const { return hop_.traffic(); }
  const Partitioning& partitioning() const { return hop_.partitioning(); }

 private:
  /// fn(s) for every site of parity \p p, on the pool's default grid.
  /// Each call writes only site s, so the result is bitwise independent of
  /// the worker count; the grid is never tuned (no tune keys of its own).
  template <typename Fn>
  void for_parity(Parity p, Fn&& fn) const {
    const std::int64_t h = geometry().half_volume();
    const std::int64_t begin = p == Parity::Even ? 0 : h;
    parallel_for(h, [&](std::int64_t i) { fn(begin + i); });
  }

  PartitionedWilsonClover<Real> hop_;
  mutable WilsonField<Real> tmp_;
  CloverField<Real> diag_;
  CloverField<Real> inv_diag_;
};

}  // namespace lqcd
