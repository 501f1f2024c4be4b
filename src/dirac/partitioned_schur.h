#pragma once
/// \file partitioned_schur.h
/// \brief The even-odd (Schur) preconditioned Wilson-clover operator
/// evaluated through the *partitioned* dslash — the exact operator the
/// paper's production solvers run on the cluster: every parity hop
/// exchanges ghost zones (half the face payload, since only source-parity
/// sites travel), and the traffic meters record it.
///
/// As on the paper's GPUs, each rank applies the whole operator to its own
/// subvolume: the clover terms run as the hops' per-rank epilogues, on one
/// per-rank field holding A_ee on even sites and A_oo^{-1} on odd sites,
/// so the caller neither sweeps the global field nor keeps a global copy
/// of the clover term.  The epilogue runs after the exterior kernels have
/// finished the rank's hop, and its site step is the one every Schur
/// operator runs (detail::schur_site, whose clover multiply is on
/// spin-pair lanes in float).

#include <algorithm>
#include <utility>
#include <vector>

#include "dirac/partitioned.h"
#include "fields/clover.h"

namespace lqcd {

/// The diagonal blocks of the Schur system on rank \p r of \p map, in its
/// local even-odd order: A_ee = 4 + m + A on even sites and A_oo^{-1} on
/// odd sites (\p a may be null: plain Wilson).
template <typename Real>
CloverField<Real> schur_diagonal(const DomainMap& map, int r,
                                 const CloverField<Real>* a, double mass) {
  const LatticeGeometry& local = map.partitioning().local();
  const Real d = static_cast<Real>(4.0 + mass);
  CloverField<Real> out(local);
  map.for_sites(r, std::nullopt, [&](std::int64_t i, std::int64_t s) {
    out.at(i) = schur_diagonal_site(a != nullptr ? &a->at(s) : nullptr, d,
                                    i >= local.half_volume());
  });
  return out;
}

/// M_hat = A_ee - (1/4) D_eo A_oo^{-1} D_oe with D applied by the
/// multi-dimensionally partitioned stencil.
template <typename Real>
class PartitionedWilsonCloverSchur : public LinearOperator<WilsonField<Real>> {
 public:
  PartitionedWilsonCloverSchur(const Partitioning& part,
                               const GaugeField<Real>& u,
                               const CloverField<Real>* a, double mass,
                               bool comms = true)
      : hop_(part, u, nullptr, mass, comms), tmp_(part.global()) {
    clover_.reserve(static_cast<std::size_t>(part.num_ranks()));
    for (int r = 0; r < part.num_ranks(); ++r) {
      clover_.push_back(schur_diagonal(hop_.domain_map(), r, a, mass));
    }
  }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    // tmp_o = A_oo^{-1} D_oe in_e.
    hop_.apply_hop(tmp_, in, Parity::Odd, [&](int r, WilsonField<Real>& o) {
      const CloverField<Real>& a = clover(r);
      map().for_sites(r, Parity::Odd, [&](std::int64_t i, std::int64_t) {
        o.at(i) = detail::schur_site<Real>(a.at(i), o.at(i), nullptr);
      });
    });
    // out_e = A_ee in_e - (1/4) D_eo tmp_o.
    hop_.apply_hop(out, tmp_, Parity::Even, [&](int r, WilsonField<Real>& o) {
      const CloverField<Real>& a = clover(r);
      map().for_sites(r, Parity::Even, [&](std::int64_t i, std::int64_t s) {
        o.at(i) = detail::schur_site<Real>(a.at(i), o.at(i), &in.at(s));
      });
    });
  }

  const LatticeGeometry& geometry() const override { return hop_.geometry(); }

  /// b_hat_e = b_e + (1/2) D_eo A_oo^{-1} b_o (b_hat_o = 0).
  void prepare_source(WilsonField<Real>& b_hat,
                      const WilsonField<Real>& b) const {
    // tmp_o = A_oo^{-1} b_o from each rank's clover field; the even hop
    // reads only tmp_'s odd sites.  Once per solve, so it runs on the
    // caller's pool rather than as a rank run of its own.
    for (int r = 0; r < partitioning().num_ranks(); ++r) {
      const CloverField<Real>& a = clover(r);
      map().for_sites(r, Parity::Odd, [&](std::int64_t i, std::int64_t s) {
        tmp_.at(s) = clover_apply(a.at(i), b.at(s));
      });
    }
    hop_.apply_hop(b_hat, tmp_, Parity::Even, [&](int r, WilsonField<Real>& o) {
      map().for_sites(r, Parity::Even, [&](std::int64_t i, std::int64_t s) {
        WilsonSpinor<Real> v = o.at(i);
        v *= Real(0.5);
        v += b.at(s);
        o.at(i) = v;
      });
    });
  }

  /// x_o = A_oo^{-1} (b_o + (1/2) D_oe x_e).
  void reconstruct_solution(WilsonField<Real>& x,
                            const WilsonField<Real>& b) const {
    // The hop writes x_o into tmp_ (its copy-out zeroes the even sites,
    // which in x hold the solution).
    hop_.apply_hop(tmp_, x, Parity::Odd, [&](int r, WilsonField<Real>& o) {
      const CloverField<Real>& a = clover(r);
      map().for_sites(r, Parity::Odd, [&](std::int64_t i, std::int64_t s) {
        WilsonSpinor<Real> v = o.at(i);
        v *= Real(0.5);
        v += b.at(s);
        o.at(i) = clover_apply(a.at(i), v);
      });
    });
    const auto odd = std::as_const(tmp_).parity_span(Parity::Odd);
    std::copy(odd.begin(), odd.end(), x.parity_span(Parity::Odd).begin());
  }

  const PartitionedTraffic& traffic() const { return hop_.traffic(); }
  const Partitioning& partitioning() const { return hop_.partitioning(); }

 private:
  const DomainMap& map() const { return hop_.domain_map(); }
  const CloverField<Real>& clover(int r) const {
    return clover_[static_cast<std::size_t>(r)];
  }

  PartitionedWilsonClover<Real> hop_;  ///< no clover: hop-only applies
  mutable WilsonField<Real> tmp_;
  /// Per rank: A_ee on even local sites, A_oo^{-1} on odd (schur_diagonal).
  std::vector<CloverField<Real>> clover_;
};

}  // namespace lqcd
