#include "core/facade.h"

#include <cmath>

#include "dirac/wilson_ops.h"
#include "gauge/clover_leaf.h"

namespace lqcd {

namespace {

/// The GCR-DD settings of \p req, block grid aside.
GcrDdParams params_of(const WilsonSolveRequest& req) {
  GcrDdParams p;
  p.mass = req.mass;
  p.tol = req.tol;
  p.kmax = req.kmax;
  p.delta = req.delta;
  p.mr.steps = req.mr_steps;
  return p;
}

/// |b - M x| / |b| for the Wilson-clover operator with clover term \p a
/// (null: plain Wilson), in double precision.
double residual(const GaugeField<double>& u, const CloverField<double>* a,
                double mass, const WilsonField<double>& x,
                const WilsonField<double>& b) {
  WilsonCloverOperator<double> m(u, a, mass);
  WilsonField<double> r(b.geometry());
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  return std::sqrt(norm2(r) / norm2(b));
}

}  // namespace

WilsonSolveOutcome solve_wilson_clover(const GaugeField<double>& u,
                                       const WilsonField<double>& b,
                                       WilsonField<double>& x,
                                       const WilsonSolveRequest& req) {
  std::optional<CloverField<double>> clover;
  if (req.csw != 0.0) clover = build_clover_field(u, req.csw);

  WilsonSolveOutcome out;
  if (req.kind == WilsonSolverKind::GcrDd) {
    GcrDdParams p = params_of(req);
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
  out.true_residual = residual(u, clover ? &*clover : nullptr, req.mass, x, b);
  return out;
}

DistributedSolveOutcome solve_wilson_clover_distributed(
    const GaugeField<double>& u, const WilsonField<double>& b,
    WilsonField<double>& x, const WilsonSolveRequest& req,
    std::array<int, kNDim> gpu_grid) {
  std::optional<CloverField<double>> clover;
  if (req.csw != 0.0) clover = build_clover_field(u, req.csw);
  GcrDdParams p = params_of(req);
  p.block_grid = gpu_grid;
  p.rank_grid = gpu_grid;
  GcrDdWilsonSolver solver(u, clover ? &*clover : nullptr, p);

  DistributedSolveOutcome out;
  out.stats = solver.solve(x, b);
  out.true_residual = residual(u, clover ? &*clover : nullptr, req.mass, x, b);
  const PartitionedTraffic& outer = solver.partitioned_operator()->traffic();
  out.outer_ghost_bytes = outer.spinor.total_bytes();
  out.gauge_ghost_bytes = outer.gauge.total_bytes();
  out.precond_ghost_bytes =
      solver.preconditioner().traffic().spinor.total_bytes();
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
  return residual(u, clover ? &*clover : nullptr, mass, x, b);
}

}  // namespace lqcd
