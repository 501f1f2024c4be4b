#include "core/facade.h"

#include <cmath>

#include "dirac/partitioned_schur.h"
#include "dirac/wilson_ops.h"
#include "gauge/clover_leaf.h"
#include "solvers/schwarz.h"

namespace lqcd {

WilsonSolveOutcome solve_wilson_clover(const GaugeField<double>& u,
                                       const WilsonField<double>& b,
                                       WilsonField<double>& x,
                                       const WilsonSolveRequest& req) {
  std::optional<CloverField<double>> clover;
  if (req.csw != 0.0) clover = build_clover_field(u, req.csw);

  WilsonSolveOutcome out;
  if (req.kind == WilsonSolverKind::GcrDd) {
    GcrDdParams p;
    p.mass = req.mass;
    p.tol = req.tol;
    p.kmax = req.kmax;
    p.delta = req.delta;
    p.mr.steps = req.mr_steps;
    p.block_grid = req.block_grid;
    GcrDdWilsonSolver solver(u, clover ? &*clover : nullptr, p);
    out.stats = solver.solve(x, b);
  } else {
    MixedBiCgStabParams p;
    p.mass = req.mass;
    p.tol = req.tol;
    MixedBiCgStabWilsonSolver solver(u, clover ? &*clover : nullptr, p);
    out.stats = solver.solve(x, b);
  }
  out.true_residual = wilson_clover_residual(u, req.mass, req.csw, x, b);
  return out;
}

DistributedSolveOutcome solve_wilson_clover_distributed(
    const GaugeField<double>& u, const WilsonField<double>& b,
    WilsonField<double>& x, const WilsonSolveRequest& req,
    std::array<int, kNDim> gpu_grid) {
  std::optional<CloverField<double>> clover;
  if (req.csw != 0.0) clover = build_clover_field(u, req.csw);
  const CloverField<double>* a = clover ? &*clover : nullptr;

  Partitioning part(u.geometry(), gpu_grid);
  PartitionedWilsonCloverSchur<double> outer(part, u, a, req.mass);
  PartitionedWilsonCloverSchur<double> dirichlet(part, u, a, req.mass,
                                                 /*comms=*/false);
  BlockMask mask(u.geometry(), gpu_grid);
  SchwarzPreconditioner<WilsonField<double>> precond(
      dirichlet, mask, MrParams{req.mr_steps, 1.0});

  WilsonField<double> b_hat(u.geometry());
  outer.prepare_source(b_hat, b);
  set_zero(x);
  GcrParams gp;
  gp.tol = req.tol;
  gp.kmax = req.kmax;
  gp.delta = req.delta;

  DistributedSolveOutcome out;
  out.stats = gcr_solve(outer, x, b_hat, &precond, gp);
  out.stats.inner_iterations = precond.inner_steps();
  outer.reconstruct_solution(x, b);
  out.true_residual = wilson_clover_residual(u, req.mass, req.csw, x, b);
  out.outer_ghost_bytes = outer.traffic().spinor.total_bytes();
  out.precond_ghost_bytes = dirichlet.traffic().spinor.total_bytes();
  out.gauge_ghost_bytes = outer.traffic().gauge.total_bytes();
  return out;
}

StaggeredMultishiftResult solve_staggered_multishift(
    const GaugeField<double>& u, const StaggeredField<double>& b_even,
    const StaggeredSolveRequest& req) {
  const AsqtadLinks links = build_asqtad_links(u, req.coefficients);
  StaggeredMultishiftParams p;
  p.mass = req.mass;
  p.shifts = req.shifts;
  p.tol_final = req.tol;
  StaggeredMultishiftSolver solver(links.fat, links.lng, p);
  return solver.solve(b_even);
}

double wilson_clover_residual(const GaugeField<double>& u, double mass,
                              double csw, const WilsonField<double>& x,
                              const WilsonField<double>& b) {
  std::optional<CloverField<double>> clover;
  if (csw != 0.0) clover = build_clover_field(u, csw);
  WilsonCloverOperator<double> m(u, clover ? &*clover : nullptr, mass);
  WilsonField<double> r(b.geometry());
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  return std::sqrt(norm2(r) / norm2(b));
}

}  // namespace lqcd
