// serve-campaign: a SolveService on 4^3 x 8 (Schwarz blocks {1,1,2,2}, no
// rank grid) serving two compatibility classes, Wilson-clover and twisted
// mass (mu = 0.1), both at mass -0.2.  Requests carry one RHS; batches are
// 8 wide; 16 requests are outstanding (8 per class) under one closed-loop
// driver thread.  One op = one served request; the first 16 completions
// are discarded as the transient.

#include <algorithm>
#include <array>
#include <memory>

#include "dirac/twisted_mass.h"
#include "dirac/wilson_ops.h"
#include "gauge/clover_leaf.h"
#include "perfmodel/stencil.h"
#include "serve/service.h"
#include "serve_driver.h"
#include "stats.h"
#include "wl_common.h"

namespace perfbench {
namespace {

using namespace lqcd;

constexpr std::array<int, kNDim> kDims{4, 4, 4, 8};
constexpr std::array<int, kNDim> kBlocks{1, 1, 2, 2};
constexpr double kBeta = 5.9;
constexpr int kSweeps = 4;
constexpr std::uint64_t kEnsembleSeed = 5903;
constexpr double kCsw = 1.0;
constexpr double kMass = -0.2;
constexpr double kMu = 0.1;
constexpr double kTol = 1e-5;
constexpr int kWidth = 8;
constexpr int kClasses = 2;  // 0 = Wilson-clover, 1 = twisted mass
constexpr std::size_t kTransient = 2 * kWidth;
constexpr std::uint64_t kSalt = 33;
constexpr double kCheckTol = 20 * kTol;
constexpr double kWarmupTol = 0.1;

class ServeCampaign final : public Workload {
 public:
  explicit ServeCampaign(std::uint64_t seed) : seed_(seed), geom_(kDims) {}

  void setup(SetupTimes& t) override {
    svc_.reset();  // joins the dispatcher before its fields go away
    check_wc_.reset();
    check_tm_.reset();
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
    serve::Config cfg;
    cfg.max_batch = kWidth;
    cfg.solver.mass = kMass;
    cfg.solver.tol = kTol;
    cfg.solver.block_grid = kBlocks;
    svc_ = std::make_unique<serve::SolveService>(*u_, clover_.get(), cfg);
    check_wc_ = std::make_unique<WilsonCloverOperator<double>>(
        *u_, clover_.get(), kMass);
    check_tm_ = std::make_unique<TwistedMassOperator<double>>(
        *u_, clover_.get(), kMass, kMu);
    // Warm-up.  One full-width request per class builds the service's
    // cached solvers and tunes the width-8 kernels; each solution is
    // checked, which tunes the check operators too.
    for (int cls = 0; cls < kClasses; ++cls) {
      serve::Request req = request(cls, 0);
      req.rhs.clear();
      for (int i = 0; i < kWidth; ++i) {
        req.rhs.push_back(gaussian_wilson_source(
            geom_, 9000u + std::uint64_t(100 * cls + i)));
      }
      const std::vector<WilsonField<double>> rhs = req.rhs;
      const serve::Result r = svc_->submit(std::move(req)).get();
      for (int i = 0; i < kWidth; ++i) {
        OpRecord rec;
        check(cls, r, static_cast<std::size_t>(i), rhs[std::size_t(i)], rec);
        if (!rec.ok) {
          throw std::runtime_error("warm-up request failed: " + rec.error);
        }
      }
    }
    // The lockstep solver narrows as RHS converge, and tune keys carry the
    // batch width: a loose-tolerance solve at every narrower width tunes
    // those kernels (tune keys do not depend on the tolerance).
    {
      GcrDdParams loose = cfg.solver;
      loose.tol = kWarmupTol;
      MultiRhsGcrDdWilsonSolver solver(*u_, clover_.get(), loose);
      for (int w = kWidth - 1; w >= 1; --w) {
        std::vector<WilsonField<double>> b, x;
        for (int i = 0; i < w; ++i) {
          b.push_back(gaussian_wilson_source(geom_, 9500u + std::uint64_t(i)));
          x.emplace_back(geom_);
        }
        std::vector<WilsonField<double>*> xs;
        std::vector<const WilsonField<double>*> bs;
        for (int i = 0; i < w; ++i) {
          xs.push_back(&x[std::size_t(i)]);
          bs.push_back(&b[std::size_t(i)]);
        }
        solver.solve(xs, bs);
      }
    }
    t.build_s = since(t0);
  }

  OpRecord run_op(std::uint64_t) override { return {}; }
  void check_op(std::uint64_t, OpRecord&) override {}

  std::vector<OpRecord> run_timed(const PhasePlan& plan,
                                  double& phase_s) override {
    using clock = std::chrono::steady_clock;
    // Class blocks, first class from the seed: the oldest future then
    // always belongs to the batch that finishes first, so the driver
    // refills one class while the other class's batch runs.
    const int first = static_cast<int>(input_seed(seed_, kSalt, ~0ull) % kClasses);
    std::vector<int> fill;
    for (int k = 0; k < kClasses; ++k) {
      for (int i = 0; i < kWidth; ++i) fill.push_back((first + k) % kClasses);
    }

    ClosedLoopDriver driver(*svc_, [this](int cls, std::uint64_t seq) {
      return request(cls, seq);
    });
    std::vector<OpRecord> ops;
    std::size_t retired = 0, in_window = 0, depth_begin = 0;
    std::uint64_t first_traced_seq = ~0ull;
    clock::time_point start{};
    bool window_open = true;
    driver.run(fill, [&](ServeCompletion& c, bool draining) {
      ++retired;
      OpRecord rec;
      rec.ms = 1000.0 * (c.result.wait_s + c.result.solve_s);
      rec.traced = c.seq >= first_traced_seq;
      if (c.result.ok() && !c.result.stats.empty()) {
        const SolverStats& s = c.result.stats[0];
        rec.iterations = s.iterations;
        rec.matvecs = s.matvecs;
        rec.inner = s.inner_iterations;
        rec.restarts = s.restarts;
        rec.solver_margin = s.final_residual / kTol;
      }
      check(c.cls, c.result, 0, c.rhs[0], rec);
      if (retired == kTransient) {
        start = clock::now();
        before_ = metrics_snapshot();
        depth_begin = driver.queue_depth_at_submit().size();
      }
      // Transient and drained requests count only when they fail.
      if (retired <= kTransient || draining) {
        if (!rec.ok) ops.push_back(std::move(rec));
        return true;
      }
      ops.push_back(rec);
      wait_ms_.push_back(1000.0 * c.result.wait_s);
      solve_ms_.push_back(1000.0 * c.result.solve_s);
      ++in_window;
      const double elapsed =
          std::chrono::duration<double>(clock::now() - start).count();
      if (plan.trace && first_traced_seq == ~0ull &&
          elapsed >= plan.seconds / 2) {
        // Requests submitted from here on run traced; the earlier ones
        // are the untraced half of the overhead comparison.
        set_trace_enabled(true);
        first_traced_seq = c.seq + kClasses * kWidth;
      }
      if (window_open && plan.done(elapsed, in_window)) {
        window_open = false;
        phase_s = elapsed;
        after_ = metrics_snapshot();
        const auto& depths = driver.queue_depth_at_submit();
        double sum = 0;
        for (std::size_t i = depth_begin; i < depths.size(); ++i) {
          sum += static_cast<double>(depths[i]);
        }
        queue_depth_mean_ =
            depths.size() > depth_begin
                ? sum / static_cast<double>(depths.size() - depth_begin)
                : 0.0;
        return false;
      }
      return true;
    });
    set_trace_enabled(false);
    outstanding_ = driver.outstanding_at_submit();
    return ops;
  }

  void layer_metrics(const TraceInputs& in, MetricMap& out) override {
    const MetricsSnapshot d = snapshot_delta(before_, after_);
    double matvecs = 0, inner = 0, iters = 0, restarts = 0, n = 0;
    for (const OpRecord& r : in.ops) {
      if (!r.ok) continue;
      matvecs += static_cast<double>(r.matvecs);
      inner += static_cast<double>(r.inner);
      iters += static_cast<double>(r.iterations);
      restarts += static_cast<double>(r.restarts);
      n += 1;
    }
    n = std::max(n, 1.0);
    const double busy_s = d.gauge("serve.dispatch_s");
    out["serve.wait_ms_p50"] = {median(wait_ms_), "ms"};
    out["serve.solve_ms_p50"] = {median(solve_ms_), "ms"};
    out["serve.occupancy_mean"] = {d.histogram("serve.batch.occupancy").mean(),
                                   "count"};
    out["serve.dispatch_busy_frac"] = {
        in.phase_s > 0 ? busy_s / in.phase_s : 0.0, "ratio"};
    out["serve.queue_depth_mean"] = {queue_depth_mean_, "count"};
    out["fields.blas_sweeps_per_op"] = {
        static_cast<double>(d.counter("blas.sweeps")) / n, "count"};
    out["dirac.gauge_bytes_per_op"] = {gauge_bytes(d) / n, "B"};
    out["dirac.matvecs_per_op"] = {(matvecs + inner) / n, "count"};
    out["solvers.gcr_iters_per_op"] = {iters / n, "count"};
    out["solvers.mr_steps_per_op"] = {inner / n, "count"};
    out["solvers.restarts_per_op"] = {restarts / n, "count"};
    const double flops = (matvecs + inner) / n *
                         static_cast<double>(geom_.volume()) *
                         dslash_flops_per_site(StencilKind::WilsonClover);
    out["dirac.flops_per_op"] = {flops, "flop"};
    out["dirac.gflops"] = {
        busy_s > 0 ? flops * n / (busy_s * 1e9) : 0.0, "Gflop/s"};

    // Span budget per request over the complete traced dispatches.
    int track = -1;
    std::vector<std::pair<double, double>> dispatches;
    for (const auto& e : in.events) {
      if (std::string(e.name) == "serve.dispatch") {
        track = e.track;
        dispatches.emplace_back(e.begin_us, e.begin_us + e.dur_us);
      }
    }
    std::vector<SpanEvent> inside;
    for (const auto& [b, e] : dispatches) {
      for (const SpanEvent& s : spans_within(in.events, b, e)) {
        if (s.track == track) inside.push_back(s);
      }
    }
    const FoldedSpans f = fold_timeline(inside, {track});
    const double reqs = std::max(
        1.0, static_cast<double>(dispatches.size()) *
                 d.histogram("serve.batch.occupancy").mean());
    const double multi = f.self("mr.op_multi");
    const double schwarz = f.self("schwarz.apply_multi");
    const double block_gcr = f.self("block_gcr.solve") +
                             f.self("block_gcr.restart");
    const double prep = f.self("block_gcrdd.solve");
    out["dirac.multi_op_ms"] = {multi / reqs / 1000.0, "ms"};
    out["solvers.schwarz_self_ms"] = {schwarz / reqs / 1000.0, "ms"};
    out["solvers.block_gcr_self_ms"] = {block_gcr / reqs / 1000.0, "ms"};
    out["core.prep_ms"] = {prep / reqs / 1000.0, "ms"};
    out["other_ms"] = {
        (f.self_sum() - multi - schwarz - block_gcr - prep) / reqs / 1000.0,
        "ms"};
  }

  std::map<std::string, std::string> context() const override {
    std::size_t lo = ~std::size_t{0}, hi = 0;
    for (std::size_t i = kClasses * kWidth - 1; i < outstanding_.size(); ++i) {
      lo = std::min(lo, outstanding_[i]);
      hi = std::max(hi, outstanding_[i]);
    }
    return {{"lattice", extents(kDims)},
            {"block_grid", extents(kBlocks)},
            {"rank_grid", "none"},
            {"classes", "wilson-clover, twisted-mass mu=0.1"},
            {"batch_width", std::to_string(svc_ ? svc_->batch_width() : 0)},
            {"outstanding",
             std::to_string(lo) + ".." + std::to_string(hi)},
            {"transient_discarded", std::to_string(kTransient)}};
  }

 private:
  serve::Request request(int cls, std::uint64_t seq) const {
    serve::Request req;
    req.action =
        cls == 1 ? serve::Action::TwistedMass : serve::Action::WilsonClover;
    req.mass = kMass;
    req.tol = kTol;
    req.twisted_mu = cls == 1 ? kMu : 0.0;
    req.rhs.push_back(
        gaussian_wilson_source(geom_, input_seed(seed_, kSalt, seq)));
    return req;
  }

  void check(int cls, const serve::Result& r, std::size_t i,
             const WilsonField<double>& b, OpRecord& rec) {
    if (!r.ok() || r.solutions.size() <= i || r.stats.size() <= i) {
      rec.ok = false;
      rec.error = "request not ok: " + r.error;
      return;
    }
    WilsonField<double> mx(geom_);
    if (cls == 1) {
      check_tm_->apply(mx, r.solutions[i]);
    } else {
      check_wc_->apply(mx, r.solutions[i]);
    }
    rec.residual = residual_ratio(b, mx);
    const bool converged = solver_converged(r.stats[i], kTol);
    rec.ok = converged && rec.residual <= kCheckTol;
    const std::string name = cls == 1 ? "twisted-mass" : "wilson-clover";
    if (!converged) {
      rec.error = name + ": solver stopped above tol";
    } else if (!rec.ok) {
      rec.error = name + ": true residual above bound";
    }
  }

  static double gauge_bytes(const MetricsSnapshot& d) {
    double total = 0;
    for (const char* r : {"18", "12", "8"}) {
      total += static_cast<double>(
          d.counter(std::string("dslash.gauge_bytes{recon=") + r + "}"));
    }
    return total;
  }

  std::uint64_t seed_;
  LatticeGeometry geom_;
  std::unique_ptr<GaugeField<double>> u_;
  std::unique_ptr<CloverField<double>> clover_;
  std::unique_ptr<WilsonCloverOperator<double>> check_wc_;
  std::unique_ptr<TwistedMassOperator<double>> check_tm_;
  std::unique_ptr<serve::SolveService> svc_;
  MetricsSnapshot before_, after_;
  std::vector<double> wait_ms_, solve_ms_;
  double queue_depth_mean_ = 0;
  std::vector<std::size_t> outstanding_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_campaign(std::uint64_t seed) {
  return std::make_unique<ServeCampaign>(seed);
}

}  // namespace perfbench
