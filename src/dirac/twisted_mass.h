#pragma once
/// \file twisted_mass.h
/// \brief The twisted-mass Wilson operator — QUDA's second headline action
/// (Babich et al., arXiv:1011.0024) — proving the dslash/solver/cluster
/// stack is action-generic.
///
/// For one flavor of the degenerate doublet the operator is
///   M(mu) = D_W + i mu gamma5          (tau3 = +1; the partner flavor
///                                       flips the sign of mu),
/// with D_W the (clover-)Wilson operator.  In the DeGrand-Rossi chiral
/// basis gamma5 = diag(+1, +1, -1, -1), so the twist term is diagonal in
/// the chiral 6x6 blocks of a CloverSite: block 0 (spins {0,1} x color)
/// gains +i*mu on its diagonal, block 1 gains -i*mu.  Encoding the twist
/// as a clover contribution reuses the whole Wilson-clover stack
/// unchanged — the even-odd Schur complement inverts the (now
/// non-Hermitian) A_oo with the same dense LU, and the partitioned,
/// multi-RHS, and Schwarz paths take the augmented field as-is.  That is
/// exactly how the GCR-DD solver runs twisted mass: GcrDdParams::twisted_mu
/// folds the term into the solver's single-precision clover copy.
///
/// Hermiticity: M(mu) is not gamma5-Hermitian on its own; the twisted
/// identity is  gamma5 M(mu) gamma5 = M(-mu)^dagger  (equivalently
/// gamma5·tau1 Hermiticity of the flavor doublet, since tau1 swaps the
/// two flavors and with them the sign of mu).  tests/test_twisted_mass.cpp
/// pins this together with the dense-reference check
/// (dense_twisted_mass in dirac/dense_reference.h).

#include "dirac/operator.h"
#include "dirac/wilson_ops.h"
#include "fields/clover.h"
#include "linalg/gamma.h"

namespace lqcd {

/// Adds the twist term i*mu*gamma5 (times \p flavor_sign = tau3 eigenvalue,
/// +1 or -1) to a clover site, using the chiral-block layout of clover.h.
template <typename Real>
void add_twist(CloverSite<Real>& cs, Real mu_tm, int flavor_sign = +1) {
  const Real mu = flavor_sign >= 0 ? mu_tm : -mu_tm;
  for (int b = 0; b < 2; ++b) {
    // Block b acts on spins {2b, 2b+1}; kGamma5Sign is constant across a
    // chiral block in this basis.
    const Real s = kGamma5Sign[2 * b] > 0 ? mu : -mu;
    auto& blk = cs.chi[static_cast<std::size_t>(b)];
    for (int d = 0; d < 6; ++d) blk(d, d) += Cplx<Real>(Real(0), s);
  }
}

/// The clover field carrying \p base (nullable) plus the twist term; the
/// augmented field drops into any clover-consuming operator.
template <typename Real>
CloverField<Real> twisted_clover(const LatticeGeometry& g,
                                 const CloverField<Real>* base, Real mu_tm,
                                 int flavor_sign = +1) {
  CloverField<Real> out(g);
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    CloverSite<Real> cs = base != nullptr ? base->at(s) : CloverSite<Real>{};
    add_twist(cs, mu_tm, flavor_sign);
    out.at(s) = cs;
  }
  return out;
}

/// Full-lattice twisted-mass(-clover) operator
///   M = (4 + m) + A + i mu gamma5 tau3 - D/2
/// for one flavor of the doublet, realized as a Wilson-clover operator on
/// the twist-augmented clover field.
template <typename Real>
class TwistedMassOperator : public LinearOperator<WilsonField<Real>> {
 public:
  TwistedMassOperator(const GaugeField<Real>& u, const CloverField<Real>* a,
                      double mass, double mu_tm, int flavor_sign = +1)
      : twist_(twisted_clover<Real>(u.geometry(), a,
                                    static_cast<Real>(mu_tm), flavor_sign)),
        op_(u, &twist_, mass) {}

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    op_.apply(out, in);
  }

  const LatticeGeometry& geometry() const override { return op_.geometry(); }

  const CloverField<Real>& twist_clover() const { return twist_; }

 private:
  CloverField<Real> twist_;  // must precede op_, which points into it
  WilsonCloverOperator<Real> op_;
};

}  // namespace lqcd
