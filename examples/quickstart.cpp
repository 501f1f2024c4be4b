// Quickstart: generate a small quenched gauge configuration, then solve the
// Wilson-clover Dirac equation M x = b with both production solver stacks —
// the mixed-precision BiCGstab baseline and the domain-decomposed GCR
// (GCR-DD) of the paper — and compare their work and accuracy.
//
// Usage: quickstart [--lattice 8] [--nt 8] [--mass 0.1] [--beta 5.9]
//                   [--tol 1e-5]

#include <cstdio>

#include "core/facade.h"
#include "fields/blas.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "gauge/observables.h"
#include "util/cli.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace lqcd;
  const CliArgs args(argc, argv);
  const int ls = static_cast<int>(args.get_int("lattice", 6));
  const int nt = static_cast<int>(args.get_int("nt", 8));
  const double mass = args.get_double("mass", 0.1);
  const double beta = args.get_double("beta", 5.9);
  const double tol = args.get_double("tol", 1e-5);

  std::printf("== lqcd-scaling quickstart ==\n");
  std::printf("lattice %d^3 x %d, beta = %.2f, mass = %.3f, tol = %.0e\n\n",
              ls, nt, beta, mass, tol);

  // 1. Gauge configuration: a short quenched heatbath from a hot start.
  const LatticeGeometry geom({ls, ls, ls, nt});
  GaugeField<double> u = hot_gauge(geom, 2024);
  HeatbathParams hb;
  hb.beta = beta;
  Stopwatch sw;
  thermalize(u, hb, 4);
  std::printf("thermalized 4 sweeps in %.2f s, plaquette = %.4f\n\n",
              sw.seconds(), average_plaquette(u));

  // 2. A Gaussian source.
  const WilsonField<double> b = gaussian_wilson_source(geom, 7);

  // 3. Solve with the mixed-precision BiCGstab baseline.
  WilsonSolveRequest req;
  req.mass = mass;
  req.csw = 1.0;
  req.tol = tol;
  req.kind = WilsonSolverKind::MixedBiCgStab;
  WilsonField<double> x_bicg(geom);
  sw.reset();
  const WilsonSolveOutcome bicg = solve_wilson_clover(u, b, x_bicg, req);
  const double t_bicg = sw.seconds();
  std::printf("BiCGstab (mixed double/single):\n");
  std::printf("  inner iterations %d, reliable updates %d, %.2f s\n",
              bicg.stats.inner_iterations, bicg.stats.restarts, t_bicg);
  std::printf("  true residual |b - Mx|/|b| = %.2e\n\n", bicg.true_residual);

  // 4. Solve with GCR-DD (single/half/half, 2 Schwarz domains along T).
  req.kind = WilsonSolverKind::GcrDd;
  req.block_grid = {1, 1, 1, 2};
  req.mr_steps = 10;
  WilsonField<double> x_gcr(geom);
  sw.reset();
  const WilsonSolveOutcome gcr = solve_wilson_clover(u, b, x_gcr, req);
  const double t_gcr = sw.seconds();
  std::printf("GCR-DD (single/half/half, 10 MR steps, T-split blocks):\n");
  std::printf("  outer iterations %d, restarts %d, MR steps %d, %.2f s\n",
              gcr.stats.iterations, gcr.stats.restarts,
              gcr.stats.inner_iterations, t_gcr);
  std::printf("  true residual |b - Mx|/|b| = %.2e\n\n", gcr.true_residual);

  // 5. The two solutions must agree to the solve tolerance.
  WilsonField<double> diff = x_gcr;
  axpy(-1.0, x_bicg, diff);
  std::printf("solution agreement |x_gcr - x_bicg| / |x_bicg| = %.2e\n",
              std::sqrt(norm2(diff) / norm2(x_bicg)));
  return 0;
}
