// Analysis-phase workload (§2): compute a staggered (Goldstone) pion
// correlator from a point source on a quenched configuration.
//
// The propagator column G(x; 0)_{c c0} is obtained per source color c0 by
// exploiting normality of M = m + D/2: solve (M^dag M) z = b on the even
// checkerboard (the systems decouple by parity) and reconstruct
// x = M^dag z.  The correlator C(t) = sum_{vec x, c, c0} |G|^2 falls
// exponentially with the pion mass; we print C(t) and the effective mass.
//
// Usage: pion_correlator [--lattice 4] [--nt 16] [--mass 0.2] [--beta 5.9]

#include <cmath>
#include <cstdio>
#include <vector>

#include "dirac/staggered.h"
#include "fields/blas.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "gauge/staggered_links.h"
#include "solvers/cg.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace lqcd;
  const CliArgs args(argc, argv);
  const int ls = static_cast<int>(args.get_int("lattice", 4));
  const int nt = static_cast<int>(args.get_int("nt", 16));
  const double mass = args.get_double("mass", 0.2);
  const double beta = args.get_double("beta", 5.9);

  std::printf("== staggered pion correlator ==\n");
  std::printf("lattice %d^3 x %d, asqtad, mass = %.3f, beta = %.2f\n\n", ls,
              nt, mass, beta);

  const LatticeGeometry geom({ls, ls, ls, nt});
  GaugeField<double> u = hot_gauge(geom, 515);
  HeatbathParams hb;
  hb.beta = beta;
  thermalize(u, hb, 4);
  const AsqtadLinks links = build_asqtad_links(u);

  StaggeredSchurOperator<double> even_op(links.fat, links.lng, mass, 0.0);
  StaggeredOperator<double> m_op(links.fat, links.lng, mass);

  std::vector<double> corr(static_cast<std::size_t>(nt), 0.0);
  int total_iters = 0;
  for (int c0 = 0; c0 < kNColor; ++c0) {
    // Point source at the origin (an even site) in color c0.
    StaggeredField<double> b(geom);
    set_zero(b);
    b.at(Coord{0, 0, 0, 0})[c0] = Cplx<double>(1.0);

    // Solve (M^dag M) z = b on the even checkerboard.
    StaggeredField<double> z(geom);
    set_zero(z);
    CgParams cg;
    cg.tol = 1e-10;
    cg.max_iter = 20000;
    const SolverStats stats = cg_solve(even_op, z, b, cg);
    total_iters += stats.iterations;
    if (!stats.converged) {
      std::printf("WARNING: CG for color %d stopped at %.2e\n", c0,
                  stats.final_residual);
    }

    // x = M^dag z = (m - D/2) z: propagator column on both parities.
    StaggeredField<double> x(geom);
    m_op.apply(x, z);          // (m + D/2) z
    scale(-1.0, x);
    axpy(2.0 * mass, z, x);    // x = 2m z - (m + D/2) z = (m - D/2) z

    for (std::int64_t s = 0; s < geom.volume(); ++s) {
      const Coord xc = geom.eo_coords(s);
      corr[static_cast<std::size_t>(xc[3])] += norm2(x.at(s));
    }
  }

  std::printf("3 color solves, %d CG iterations total\n\n", total_iters);
  std::printf("%4s  %14s  %10s\n", "t", "C(t)", "m_eff(t)");
  for (int t = 0; t < nt; ++t) {
    const double c = corr[static_cast<std::size_t>(t)];
    double meff = 0.0;
    if (t + 1 < nt && corr[static_cast<std::size_t>(t + 1)] > 0) {
      meff = std::log(c / corr[static_cast<std::size_t>(t + 1)]);
    }
    std::printf("%4d  %14.6e  %10.4f\n", t, c, meff);
  }
  std::printf("\nC(t) is symmetric about t = %d (periodic lattice); the\n"
              "effective mass plateaus at the pion mass in lattice units.\n",
              nt / 2);
  return 0;
}
