// multishift-asqtad: StaggeredMultishiftSolver on 6^3 x 12 with asqtad fat
// and long links from a fixed quenched beta = 5.9 configuration, mass
// 0.08, shifts {0, 0.02, 0.1, 0.5}, tol_final 1e-9.  One op = one solve of
// a fresh even-checkerboard source.  Single rank, no ghost exchange.

#include <array>
#include <memory>
#include <optional>

#include "composed_multishift.h"
#include "core/staggered_multishift.h"
#include "gauge/staggered_links.h"
#include "perfmodel/stencil.h"
#include "wl_common.h"

namespace perfbench {
namespace {

using namespace lqcd;

constexpr std::array<int, kNDim> kDims{6, 6, 6, 12};
constexpr double kBeta = 5.9;
constexpr int kSweeps = 4;
constexpr std::uint64_t kEnsembleSeed = 5904;
constexpr double kMass = 0.08;
constexpr double kTolFinal = 1e-9;
constexpr std::uint64_t kSalt = 44;
/// Bound on each shift's double residual |b - (M^dag M + sigma) x| / |b|
/// (the refinement stops at kTolFinal on the same quantity).
constexpr double kCheckTol = 10 * kTolFinal;

StaggeredMultishiftParams solver_params() {
  StaggeredMultishiftParams p;
  p.mass = kMass;
  p.shifts = {0.0, 0.02, 0.1, 0.5};
  p.tol_final = kTolFinal;
  return p;
}

class MultishiftAsqtad final : public Workload {
 public:
  explicit MultishiftAsqtad(std::uint64_t seed)
      : seed_(seed), geom_(kDims), b_(geom_), ax_(geom_) {}

  void setup(SetupTimes& t) override {
    solver_.reset();
    composed_.reset();
    checks_.clear();
    links_.reset();
    auto t0 = std::chrono::steady_clock::now();
    const GaugeField<double> u =
        quenched_config(geom_, kBeta, kSweeps, kEnsembleSeed);
    t.config_s = since(t0);
    t0 = std::chrono::steady_clock::now();
    links_ = std::make_unique<AsqtadLinks>(build_asqtad_links(u));
    t.links_s = since(t0);
    t0 = std::chrono::steady_clock::now();
    const StaggeredMultishiftParams p = solver_params();
    solver_ =
        std::make_unique<StaggeredMultishiftSolver>(links_->fat, links_->lng, p);
    composed_ =
        std::make_unique<ComposedMultishift>(links_->fat, links_->lng, p);
    for (double s : p.shifts) {
      checks_.push_back(std::make_unique<StaggeredSchurOperator<double>>(
          links_->fat, links_->lng, kMass, s));
    }
    make_source(7100);
    result_ = solver_->solve(b_);
    OpRecord warm = record();
    check_op(0, warm);
    if (!warm.ok) throw std::runtime_error("warm-up solve failed: " + warm.error);
    t.build_s = since(t0);
  }

  void prepare_op(std::uint64_t index) override {
    make_source(input_seed(seed_, kSalt, index));
  }

  OpRecord run_op(std::uint64_t index) override {
    // A traced run pairs every input: its traced first op runs the
    // composed stages (timed per layer), the untraced second op the
    // library solve, which must reproduce the composed solutions bitwise.
    if (trace_enabled()) {
      ComposedTimes t;
      result_ = composed_->solve(b_, t);
      composed_result_ = result_;
      composed_index_ = index;
      times_.cg_stage_s += t.cg_stage_s;
      times_.refine_stage_s += t.refine_stage_s;
      times_.stencil_s += t.stencil_s;
      composed_ops_ += 1;
      return record();
    }
    result_ = solver_->solve(b_);
    return record();
  }

  void check_op(std::uint64_t index, OpRecord& rec) override {
    rec.residual = 0;
    bool converged = true;
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      checks_[i]->apply(ax_, result_.solutions[i]);
      rec.residual = std::max(
          rec.residual, residual_ratio(b_, ax_, 0, geom_.half_volume()));
      converged = converged && result_.refines[i].converged;
    }
    rec.ok = converged && rec.residual <= kCheckTol;
    if (!converged) {
      rec.error = "refinement reports not converged";
    } else if (!rec.ok) {
      rec.error = "shift residual above bound";
    }
    if (!rec.traced && composed_result_ && composed_index_ == index) {
      if (!same_solutions(*composed_result_, result_)) {
        rec.ok = false;
        rec.error = "composed stages differ from the library solve";
      }
      composed_result_.reset();
    }
  }

  void layer_metrics(const TraceInputs& in, MetricMap& out) override {
    const double n = composed_ops_ > 0 ? composed_ops_ : 1;
    double matvecs = 0, cg_iters = 0, restarts = 0;
    for (const OpRecord& r : in.ops) {
      matvecs += static_cast<double>(r.matvecs);
      cg_iters += static_cast<double>(r.iterations + r.inner);
      restarts += static_cast<double>(r.restarts);
    }
    const double nops = std::max<double>(1, static_cast<double>(in.ops.size()));
    double op_us = 0;
    for (const auto& e : in.events) {
      if (std::string(e.name) == "bench.op") op_us += e.dur_us;
    }
    const double stencil_ms = 1000.0 * times_.stencil_s / n;
    const double cg_ms = 1000.0 * times_.cg_stage_s / n;
    const double refine_ms = 1000.0 * times_.refine_stage_s / n;
    out["dirac.stencil_ms"] = {stencil_ms, "ms"};
    out["solvers.cg_stage_ms"] = {cg_ms, "ms"};
    out["solvers.refine_stage_ms"] = {refine_ms, "ms"};
    out["fields.blas_ms"] = {cg_ms + refine_ms - stencil_ms, "ms"};
    out["other_ms"] = {op_us / n / 1000.0 - cg_ms - refine_ms, "ms"};
    out["solvers.cg_iters_per_op"] = {cg_iters / nops, "count"};
    out["solvers.restarts_per_op"] = {restarts / nops, "count"};
    out["dirac.matvecs_per_op"] = {matvecs / nops, "count"};
    // Computed flops: each matvec is (M^dag M + sigma) on the even sites,
    // i.e. two staggered hops over half the lattice each.
    const double flops = matvecs / nops * static_cast<double>(geom_.volume()) *
                         dslash_flops_per_site(StencilKind::ImprovedStaggered);
    out["dirac.flops_per_op"] = {flops, "flop"};
    out["dirac.gflops"] = {
        stencil_ms > 0 ? flops / (stencil_ms * 1e6) : 0.0, "Gflop/s"};
  }

  std::map<std::string, std::string> context() const override {
    return {{"lattice", extents(kDims)},
            {"rank_grid", "none"},
            {"shifts", "0,0.02,0.1,0.5"},
            {"precision", "single multishift, double/single refinement"}};
  }

 private:
  void make_source(std::uint64_t seed) {
    b_ = gaussian_staggered_source(geom_, seed);
    for (std::int64_t s = geom_.half_volume(); s < geom_.volume(); ++s) {
      b_.at(s) = ColorVector<double>{};
    }
  }

  OpRecord record() const {
    OpRecord rec;
    rec.iterations = result_.multishift.iterations;
    rec.matvecs = result_.total_matvecs();
    for (const SolverStats& r : result_.refines) {
      rec.inner += r.inner_iterations;
      rec.restarts += r.restarts;
      rec.solver_margin =
          std::max(rec.solver_margin, r.final_residual / kTolFinal);
    }
    return rec;
  }

  std::uint64_t seed_;
  LatticeGeometry geom_;
  std::unique_ptr<AsqtadLinks> links_;
  std::unique_ptr<StaggeredMultishiftSolver> solver_;
  std::unique_ptr<ComposedMultishift> composed_;
  std::vector<std::unique_ptr<StaggeredSchurOperator<double>>> checks_;
  StaggeredField<double> b_, ax_;
  StaggeredMultishiftResult result_;
  std::optional<StaggeredMultishiftResult> composed_result_;
  std::uint64_t composed_index_ = 0;
  ComposedTimes times_;
  double composed_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_multishift_asqtad(std::uint64_t seed) {
  return std::make_unique<MultishiftAsqtad>(seed);
}

}  // namespace perfbench
