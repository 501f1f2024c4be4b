// gcrdd-cluster: the paper's headline solver.  GcrDdWilsonSolver on an
// 8^4 quenched beta = 5.9 ensemble, clover csw = 1.0, mass -0.2, tol 1e-5,
// GcrDdParams defaults, Schwarz blocks = rank grid = {1,1,2,2} (four rank
// threads).  One op = one solve of a fresh Gaussian source.

#include <array>
#include <memory>

#include "comm/wire.h"
#include "core/gcr_dd.h"
#include "dirac/wilson_ops.h"
#include "gauge/clover_leaf.h"
#include "layers.h"
#include "perfmodel/stencil.h"
#include "wl_common.h"

namespace perfbench {
namespace {

using namespace lqcd;

constexpr std::array<int, kNDim> kDims{8, 8, 8, 8};
constexpr std::array<int, kNDim> kGrid{1, 1, 2, 2};
constexpr double kBeta = 5.9;
constexpr int kSweeps = 4;
constexpr std::uint64_t kEnsembleSeed = 5901;
constexpr double kCsw = 1.0;
constexpr double kMass = -0.2;
constexpr double kTol = 1e-5;
constexpr std::uint64_t kSalt = 11;
constexpr int kWarmupSolves = 1;
/// Bound on the double-precision residual |b - M x| / |b| of the full
/// system.  The solver converges the single-precision Schur system to
/// kTol; reconstruction and the float/half arithmetic cost up to an order
/// of magnitude on the full system.
constexpr double kCheckTol = 20 * kTol;

class GcrDdCluster final : public Workload {
 public:
  explicit GcrDdCluster(std::uint64_t seed)
      : seed_(seed), geom_(kDims), b_(geom_), x_(geom_), mx_(geom_) {}

  void setup(SetupTimes& t) override {
    solver_.reset();
    check_.reset();
    clover_.reset();
    u_.reset();
    auto t0 = std::chrono::steady_clock::now();
    u_ = std::make_unique<GaugeField<double>>(
        quenched_config(geom_, kBeta, kSweeps, kEnsembleSeed));
    t.config_s = since(t0);
    t0 = std::chrono::steady_clock::now();
    clover_ =
        std::make_unique<CloverField<double>>(build_clover_field(*u_, kCsw));
    t.clover_s = since(t0);
    t0 = std::chrono::steady_clock::now();
    GcrDdParams p;
    p.mass = kMass;
    p.tol = kTol;
    p.block_grid = kGrid;
    p.rank_grid = kGrid;
    solver_ = std::make_unique<GcrDdWilsonSolver>(*u_, clover_.get(), p);
    check_ = std::make_unique<WilsonCloverOperator<double>>(*u_, clover_.get(),
                                                            kMass);
    // Warm-up: fixed sources (not from the run seed), checked like timed
    // ops so the check operator's kernels are tuned here too.
    for (int w = 0; w < kWarmupSolves; ++w) {
      b_ = gaussian_wilson_source(geom_, 7000u + std::uint64_t(w));
      OpRecord rec = solve();
      check(rec);
      if (!rec.ok) throw std::runtime_error("warm-up solve failed: " + rec.error);
    }
    t.build_s = since(t0);
  }

  void prepare_op(std::uint64_t index) override {
    b_ = gaussian_wilson_source(geom_, input_seed(seed_, kSalt, index));
  }

  OpRecord run_op(std::uint64_t) override { return solve(); }

  void check_op(std::uint64_t, OpRecord& rec) override { check(rec); }

  void layer_metrics(const TraceInputs& in, MetricMap& out) override {
    const CallerBudget b = caller_budget(in.events, ranks());
    const double n = b.ops > 0 ? b.ops : 1;
    double matvecs = 0, inner = 0, iters = 0, restarts = 0;
    for (const OpRecord& r : in.ops) {
      matvecs += static_cast<double>(r.matvecs);
      inner += static_cast<double>(r.inner);
      iters += static_cast<double>(r.iterations);
      restarts += static_cast<double>(r.restarts);
    }
    const double nops = static_cast<double>(in.ops.size());
    const double op_ms = b.op_us / n / 1000.0;
    out["dirac.hop_ms"] = {b.hop_max_us / n / 1000.0, "ms"};
    out["dirac.interior_ms"] = {b.phases.interior_us / n / 1000.0, "ms"};
    out["dirac.exterior_ms"] = {b.phases.exterior_us / n / 1000.0, "ms"};
    out["comm.post_ms"] = {b.phases.post_us / n / 1000.0, "ms"};
    out["comm.wait_ms"] = {b.phases.wait_us / n / 1000.0, "ms"};
    out["comm.overlap_eff"] = {overlap_efficiency(in.delta), "ratio"};
    out["dirac.mr_op_ms"] = {b.caller.self("mr.op") / n / 1000.0, "ms"};
    out["solvers.schwarz_self_ms"] = {b.caller.self("schwarz.apply") / n / 1000.0,
                                      "ms"};
    const double gcr_self = b.caller.self("gcr.iter") +
                            b.caller.self("gcr.restart") +
                            b.caller.self("gcr.solve");
    out["solvers.gcr_self_ms"] = {gcr_self / n / 1000.0, "ms"};
    out["core.prep_ms"] = {b.caller.self("gcrdd.solve") / n / 1000.0, "ms"};
    out["dirac.matvecs_per_op"] = {(matvecs + inner) / nops, "count"};
    out["solvers.gcr_iters_per_op"] = {iters / nops, "count"};
    out["solvers.mr_steps_per_op"] = {inner / nops, "count"};
    out["solvers.restarts_per_op"] = {restarts / nops, "count"};
    // Computed flops: every outer matvec and every MR step is one Schur
    // apply of the clover stencil over the full lattice (perfmodel
    // convention: two parity hops of half the sites each).
    const double flops = (matvecs + inner) / nops *
                         static_cast<double>(geom_.volume()) *
                         dslash_flops_per_site(StencilKind::WilsonClover);
    out["dirac.flops_per_op"] = {flops, "flop"};
    out["dirac.gflops"] = {op_ms > 0 ? flops / (op_ms * 1e6) : 0.0, "Gflop/s"};
    const double named = b.hop_max_us + b.caller.self("mr.op") +
                         b.caller.self("schwarz.apply") + gcr_self +
                         b.caller.self("gcrdd.solve");
    out["other_ms"] = {(b.op_us - named) / n / 1000.0, "ms"};
  }

  std::map<std::string, std::string> context() const override {
    return {{"lattice", extents(kDims)},
            {"rank_grid", extents(kGrid)},
            {"block_grid", extents(kGrid)},
            {"wire_format",
             to_string(default_wire_format<HalfSpinor<float>>())},
            {"precision", "single outer, half Krylov + Schwarz"}};
  }

  int ranks() const override { return kGrid[2] * kGrid[3]; }

 private:
  OpRecord solve() {
    stats_ = solver_->solve(x_, b_);
    OpRecord rec;
    rec.iterations = stats_.iterations;
    rec.matvecs = stats_.matvecs;
    rec.inner = stats_.inner_iterations;
    rec.restarts = stats_.restarts;
    rec.solver_margin = stats_.final_residual / kTol;
    return rec;
  }

  void check(OpRecord& rec) {
    check_->apply(mx_, x_);
    rec.residual = residual_ratio(b_, mx_);
    const bool converged = solver_converged(stats_, kTol);
    rec.ok = converged && rec.residual <= kCheckTol;
    if (!converged) {
      rec.error = "solver stopped above tol";
    } else if (!rec.ok) {
      rec.error = "true residual above bound";
    }
  }

  std::uint64_t seed_;
  LatticeGeometry geom_;
  std::unique_ptr<GaugeField<double>> u_;
  std::unique_ptr<CloverField<double>> clover_;
  std::unique_ptr<GcrDdWilsonSolver> solver_;
  std::unique_ptr<WilsonCloverOperator<double>> check_;
  WilsonField<double> b_, x_, mx_;
  SolverStats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_gcrdd_cluster(std::uint64_t seed) {
  return std::make_unique<GcrDdCluster>(seed);
}

}  // namespace perfbench
