// End-to-end microbenchmarks of the solver stacks on a small thermalized
// lattice — the real CPU cost of a solve with each algorithm, useful for
// tracking kernel-level regressions.

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "bench/tune_main.h"
#include "core/block_gcr_dd.h"
#include "core/staggered_multishift.h"
#include "dirac/wilson_ops.h"
#include "gauge/staggered_links.h"
#include "solvers/block_task_schwarz.h"
#include "solvers/cg.h"
#include "solvers/gcr.h"
#include "solvers/schwarz.h"

namespace {

using namespace lqcd;
using namespace lqcd::bench;

struct WilsonSetup {
  LatticeGeometry g{{4, 4, 4, 16}};
  GaugeField<double> u = make_config(g, 5.9, 2, 71);
  CloverField<double> clover = build_clover_field(u, 1.0);
  WilsonField<double> b = gaussian_wilson_source(g, 72);
};

void BM_SolveMixedBiCgStab(benchmark::State& state) {
  WilsonSetup s;
  for (auto _ : state) {
    MixedBiCgStabParams p;
    p.mass = 0.05;
    p.tol = 1e-6;
    MixedBiCgStabWilsonSolver solver(s.u, &s.clover, p);
    WilsonField<double> x(s.g);
    const SolverStats stats = solver.solve(x, s.b);
    benchmark::DoNotOptimize(stats.final_residual);
  }
}
BENCHMARK(BM_SolveMixedBiCgStab)->Unit(benchmark::kMillisecond);

void BM_SolveGcrDd(benchmark::State& state) {
  WilsonSetup s;
  for (auto _ : state) {
    GcrDdParams p;
    p.mass = 0.05;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, 4};
    GcrDdWilsonSolver solver(s.u, &s.clover, p);
    WilsonField<double> x(s.g);
    const SolverStats stats = solver.solve(x, s.b);
    benchmark::DoNotOptimize(stats.final_residual);
  }
}
// Real time: the Schwarz blocks run on pool workers, so the CPU time of
// the benchmark's own thread would under-report the solve.
BENCHMARK(BM_SolveGcrDd)->Unit(benchmark::kMillisecond)->UseRealTime();

// GCR-DD with fewer Schwarz blocks than pool workers (arg = blocks along
// t; 2 is the GcrDdParams default grid).  Each block is one serial task,
// so workers sit idle; below half the workers' worth of blocks the Schwarz
// runs the blocks one after another with their site loops on the pool.
void BM_SolveGcrDdBlocks(benchmark::State& state) {
  WilsonSetup s;
  for (auto _ : state) {
    GcrDdParams p;
    p.mass = 0.05;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, static_cast<int>(state.range(0))};
    GcrDdWilsonSolver solver(s.u, &s.clover, p);
    WilsonField<double> x(s.g);
    const SolverStats stats = solver.solve(x, s.b);
    benchmark::DoNotOptimize(stats.final_residual);
  }
}
BENCHMARK(BM_SolveGcrDdBlocks)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// One GCR-DD Schwarz apply (10 MR steps, half links and stores) on a batch
// of Schur vectors.  Args: blocks along t; 0 for the masked
// SchwarzPreconditioner applied to each RHS in turn, or 1 for the
// block-task preconditioner's apply_multi, which both GCR-DD solvers run;
// then the batch width.  Both give the same bits per RHS
// (tests/test_gcr_dd.cpp).
void BM_SchwarzApply(benchmark::State& state) {
  WilsonSetup s;
  const std::array<int, kNDim> grid{1, 1, 1, static_cast<int>(state.range(0))};
  const auto width = static_cast<std::size_t>(state.range(2));
  GaugeField<float> u = convert_gauge<float>(s.u);
  half_roundtrip(u);
  const CloverField<float> clover = convert_clover<float>(s.clover);
  const auto store = [](WilsonField<float>& f) {
    half_roundtrip(f, Parity::Even);
  };
  const MrParams mr{10, 1.0};
  std::vector<WilsonField<float>> in;
  std::vector<WilsonField<float>> out(width, WilsonField<float>(s.g));
  std::vector<WilsonField<float>*> outs;
  std::vector<const WilsonField<float>*> ins;
  for (std::size_t r = 0; r < width; ++r) {
    in.push_back(convert_field<float>(gaussian_wilson_source(s.g, 90 + r)));
    for (std::int64_t i = s.g.half_volume(); i < s.g.volume(); ++i) {
      in.back().at(i) = WilsonSpinor<float>{};
    }
  }
  for (std::size_t r = 0; r < width; ++r) {
    outs.push_back(&out[r]);
    ins.push_back(&in[r]);
  }
  if (state.range(1) == 0) {
    const BlockMask mask(s.g, grid);
    WilsonCloverSchurOperator<float> op(u, &clover, 0.05, &mask);
    SchwarzPreconditioner<WilsonField<float>> k(op, mask, mr, store);
    for (auto _ : state) {
      for (std::size_t r = 0; r < width; ++r) k.apply(out[r], in[r]);
      benchmark::DoNotOptimize(out.back().sites().data());
      benchmark::ClobberMemory();
    }
  } else {
    BlockTaskSchwarzPreconditioner<float> k(u, &clover, 0.05, grid, mr, store);
    for (auto _ : state) {
      k.apply_multi(outs, ins);
      benchmark::DoNotOptimize(out.back().sites().data());
      benchmark::ClobberMemory();
    }
  }
  state.SetLabel(state.range(1) == 0 ? "masked" : "block-task");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_SchwarzApply)->ArgsProduct({{1, 2, 4}, {0, 1}, {1, 8}})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Batched GCR-DD (arg = batch width): 8 RHS solved in batches of the given
// width on one solver.  Per-RHS iterates are bitwise identical to width 1
// (tests/test_serve.cpp); the time difference is the gauge-link and
// clover amortization of the multi-RHS dslash and of the block-task
// Schwarz preconditioner's batched block operator.
void BM_SolveBlockGcrDd(benchmark::State& state) {
  WilsonSetup s;
  constexpr int kRhs = 8;
  const int width = static_cast<int>(state.range(0));
  std::vector<WilsonField<double>> b;
  for (int i = 0; i < kRhs; ++i) {
    b.push_back(gaussian_wilson_source(s.g, 80u + std::uint64_t(i)));
  }
  GcrDdParams p;
  p.mass = 0.05;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 4};
  MultiRhsGcrDdWilsonSolver solver(s.u, &s.clover, p);
  for (auto _ : state) {
    for (int base = 0; base < kRhs; base += width) {
      const int w = std::min(width, kRhs - base);
      std::vector<WilsonField<double>> x(static_cast<std::size_t>(w),
                                         WilsonField<double>(s.g));
      std::vector<WilsonField<double>*> xs;
      std::vector<const WilsonField<double>*> bs;
      for (int i = 0; i < w; ++i) {
        xs.push_back(&x[static_cast<std::size_t>(i)]);
        bs.push_back(&b[static_cast<std::size_t>(base + i)]);
      }
      const std::vector<SolverStats> stats = solver.solve(xs, bs);
      benchmark::DoNotOptimize(stats.front().final_residual);
    }
  }
  state.SetLabel("width=" + std::to_string(width));
}
BENCHMARK(BM_SolveBlockGcrDd)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Fused vs unfused GCR linear algebra (arg 1 = fused).  Same iterates
// bitwise; the difference is memory passes per iteration: 4 fused vs 2k+5
// at basis size k.  `iter_sweeps_per_iter` reports the measured ratio from
// the metrics registry.  The operator and BLAS run on the worker pool, so
// the bench reports wall-clock time (real_time).
void BM_SolveGcrFusion(benchmark::State& state) {
  WilsonSetup s;
  WilsonCloverOperator<double> m(s.u, &s.clover, 0.05);
  Counter& sweeps = metric_counter("solver.gcr.iter_sweeps");
  const std::uint64_t sweeps0 = sweeps.value();
  std::int64_t iters = 0;
  for (auto _ : state) {
    GcrParams p;
    p.tol = 1e-6;
    p.fused = state.range(0) != 0;
    WilsonField<double> x(s.g);
    set_zero(x);
    const SolverStats stats = gcr_solve(m, x, s.b, nullptr, p);
    iters += stats.iterations;
    benchmark::DoNotOptimize(stats.final_residual);
  }
  if (iters > 0) {
    state.counters["iter_sweeps_per_iter"] =
        static_cast<double>(sweeps.value() - sweeps0) /
        static_cast<double>(iters);
  }
  state.SetLabel(state.range(0) != 0 ? "fused" : "unfused");
}
BENCHMARK(BM_SolveGcrFusion)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The staggered solves run their site loops and BLAS on the worker pool,
// so both report wall-clock time (real_time).
void BM_SolveStaggeredCg(benchmark::State& state) {
  const LatticeGeometry g({4, 4, 4, 16});
  const GaugeField<double> u = make_config(g, 5.9, 2, 73);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredSchurOperator<double> op(links.fat, links.lng, 0.08, 0.0);
  StaggeredField<double> b = gaussian_staggered_source(g, 74);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  for (auto _ : state) {
    StaggeredField<double> x(g);
    set_zero(x);
    CgParams p;
    p.tol = 1e-8;
    const SolverStats stats = cg_solve(op, x, b, p);
    benchmark::DoNotOptimize(stats.final_residual);
  }
}
BENCHMARK(BM_SolveStaggeredCg)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SolveStaggeredMultishift(benchmark::State& state) {
  const LatticeGeometry g({4, 4, 4, 16});
  const GaugeField<double> u = make_config(g, 5.9, 2, 75);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredMultishiftParams p;
  p.mass = 0.08;
  p.shifts = {0.0, 0.02, 0.1};
  p.tol_final = 1e-9;
  StaggeredField<double> b = gaussian_staggered_source(g, 76);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  for (auto _ : state) {
    StaggeredMultishiftSolver solver(links.fat, links.lng, p);
    const StaggeredMultishiftResult r = solver.solve(b);
    benchmark::DoNotOptimize(r.solutions.size());
  }
}
BENCHMARK(BM_SolveStaggeredMultishift)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

LQCD_TUNED_BENCH_MAIN()
