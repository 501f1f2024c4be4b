// Self-tests of the benchmark harness: span folding, the percentile rule,
// the closed-loop serve driver and the composed multishift stages.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <vector>

#include "composed_multishift.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "serve_driver.h"
#include "stats.h"
#include "trace_fold.h"

namespace {

using namespace perfbench;
using lqcd::SpanEvent;

constexpr int kCaller = lqcd::kFallbackTrackBase;

// One traced op on the caller thread: GCR iteration with a Schwarz apply
// (MR inside) and one partitioned apply over two ranks.  The caller runs
// rank 0 (track 0, nested in its own depth tree); rank 1 is a fresh thread
// (depth 0).
std::vector<SpanEvent> synthetic_trace() {
  return {
      {"bench.op", 0, 100, kCaller, 0},
      {"gcr.iter", 10, 80, kCaller, 1},
      {"schwarz.apply", 15, 20, kCaller, 2},
      {"mr.op", 20, 10, kCaller, 3},
      {"rank.task", 40, 30, 0, 2},
      {"dslash.post", 40, 5, 0, 3},
      {"dslash.interior", 45, 15, 0, 3},
      {"dslash.wait", 60, 4, 0, 3},
      {"dslash.exterior", 64, 6, 0, 3},
      {"rank.task", 38, 37, 1, 0},
      {"dslash.post", 38, 2, 1, 1},
      {"dslash.interior", 40, 20, 1, 1},
      {"dslash.wait", 60, 8, 1, 1},
      {"dslash.exterior", 68, 7, 1, 1},
  };
}

TEST(TraceFold, GroupsOverlappingRankTasksIntoOneApply) {
  const auto applies = group_rank_applies(synthetic_trace());
  ASSERT_EQ(applies.size(), 1u);
  EXPECT_DOUBLE_EQ(applies[0].begin_us, 38);
  EXPECT_DOUBLE_EQ(applies[0].end_us, 75);
  EXPECT_DOUBLE_EQ(applies[0].max_task_us, 37);
  EXPECT_EQ(applies[0].tasks, 2);
  EXPECT_EQ(applies[0].caller_depth, 2);
}

TEST(TraceFold, CallerSelfTimeExcludesChildrenAndApplies) {
  const auto ev = synthetic_trace();
  const auto applies = group_rank_applies(ev);
  const FoldedSpans f =
      fold_timeline(caller_timeline(ev, kCaller, applies), {kCaller});
  EXPECT_DOUBLE_EQ(f.self("bench.op"), 20);       // 100 - gcr.iter
  EXPECT_DOUBLE_EQ(f.self("gcr.iter"), 23);       // 80 - 20 - 37
  EXPECT_DOUBLE_EQ(f.self("schwarz.apply"), 10);  // 20 - mr.op
  EXPECT_DOUBLE_EQ(f.self("mr.op"), 10);
  EXPECT_DOUBLE_EQ(f.self("dirac.hop"), 37);
  EXPECT_DOUBLE_EQ(f.self_sum(), 100);  // self times partition the op
}

TEST(TraceFold, PerTrackFoldSeparatesRanks) {
  const auto ev = synthetic_trace();
  const FoldedSpans rank0 = fold_timeline(ev, {0});
  const FoldedSpans rank1 = fold_timeline(ev, {1});
  // Rank 0's task is fully covered by its four phases.
  EXPECT_DOUBLE_EQ(rank0.self("rank.task"), 0);
  EXPECT_DOUBLE_EQ(rank0.self("dslash.interior"), 15);
  // Rank 1's phases cover all 37 us of its task.
  EXPECT_DOUBLE_EQ(rank1.self("rank.task"), 0);
  EXPECT_DOUBLE_EQ(rank1.self("dslash.wait"), 8);
  // The caller track alone does not see the rank-0 spans as children.
  EXPECT_DOUBLE_EQ(fold_timeline(ev, {kCaller}).self("gcr.iter"), 60);
}

TEST(TraceFold, OnlyDirectChildrenAreSubtracted) {
  const std::vector<SpanEvent> ev = {
      {"parent", 0, 10, 5, 0},
      {"a", 1, 4, 5, 1},
      {"b", 6, 2, 5, 1},
      {"grandchild", 2, 1, 5, 2},
  };
  const FoldedSpans f = fold_timeline(ev, {5});
  EXPECT_DOUBLE_EQ(f.self("parent"), 4);
  EXPECT_DOUBLE_EQ(f.self("a"), 3);
  EXPECT_DOUBLE_EQ(f.self("grandchild"), 1);
}

TEST(Stats, PercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(40, 0.75), 10u);
  EXPECT_FALSE(quantile_supported(39, 0.75));
  EXPECT_TRUE(quantile_supported(40, 0.75));
  EXPECT_EQ(min_samples_for(0.75), 40u);
  EXPECT_EQ(min_samples_for(0.5), 20u);
  EXPECT_EQ(min_samples_for(0.9), 100u);
}

TEST(Stats, QuantileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(ServeDriver, HoldsSixteenRequestsOutstanding) {
  using namespace lqcd;
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = weak_gauge(g, 31, 0.2);
  const CloverField<double> clover = build_clover_field(u, 1.0);
  serve::Config cfg;
  cfg.max_batch = 8;
  cfg.solver.mass = 0.1;
  cfg.solver.block_grid = {1, 1, 2, 2};
  serve::SolveService svc(u, &clover, cfg);
  ClosedLoopDriver driver(svc, [&](int cls, std::uint64_t seq) {
    serve::Request r;
    r.action = cls == 1 ? serve::Action::TwistedMass
                        : serve::Action::WilsonClover;
    r.mass = cfg.solver.mass;
    r.twisted_mu = cls == 1 ? 0.1 : 0.0;
    r.rhs.push_back(gaussian_wilson_source(g, 100 + seq));
    return r;
  });
  const std::vector<int> fill = {0, 1, 1, 0, 0, 1, 0, 1,
                                 1, 0, 0, 1, 1, 0, 1, 0};
  int retired = 0, drained = 0;
  driver.run(fill, [&](ServeCompletion& c, bool draining) {
    EXPECT_TRUE(c.result.ok());
    if (draining) {
      ++drained;
      return true;
    }
    return ++retired < 40;
  });
  EXPECT_EQ(drained, 15);  // the 40th retirement was not replaced
  const auto& out = driver.outstanding_at_submit();
  ASSERT_EQ(out.size(), 16u + 39u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < 16 ? i + 1 : 16u) << "submit " << i;
  }
  for (std::size_t d : driver.queue_depth_at_submit()) EXPECT_LE(d, 16u);
}

TEST(ComposedMultishift, BitwiseEqualToLibrarySolve) {
  using namespace lqcd;
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = weak_gauge(g, 41, 0.3);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredMultishiftParams p;
  p.mass = 0.1;
  p.shifts = {0.0, 0.05, 0.3};
  p.tol_final = 1e-9;
  StaggeredMultishiftSolver library(links.fat, links.lng, p);
  const ComposedMultishift composed(links.fat, links.lng, p);
  StaggeredField<double> b = gaussian_staggered_source(g, 42);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  ComposedTimes t;
  const StaggeredMultishiftResult a = composed.solve(b, t);
  const StaggeredMultishiftResult want = library.solve(b);
  EXPECT_TRUE(same_solutions(a, want));
  EXPECT_EQ(a.total_matvecs(), want.total_matvecs());
  EXPECT_GT(t.stencil_s, 0);
  EXPECT_LE(t.stencil_s, t.cg_stage_s + t.refine_stage_s);
}

}  // namespace
