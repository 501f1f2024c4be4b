// Microbenchmarks of the real CPU Dirac-operator kernels in this library:
// Wilson hop (projection trick vs full-spinor reference), Wilson-clover,
// the improved staggered hop, and the even-odd Schur operators.  Counters
// report sustained Mflops using the standard per-site conventions.  Every
// bench is timed on the wall clock (UseRealTime): for a kernel that runs
// its sites on the worker pool, a kIsRate counter divides by the timing
// thread's CPU time otherwise, which overstates the rate.  Each tuned
// kernel runs one untimed apply first, so the tune sweep stays out of the
// timed loop.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/tune_main.h"
#include "comm/virtual_cluster.h"
#include "dirac/even_odd.h"
#include "dirac/multi_rhs.h"
#include "dirac/partitioned.h"
#include "dirac/partitioned_schur.h"
#include "dirac/recon_policy.h"
#include "dirac/staggered.h"
#include "dirac/wilson_kernel.h"
#include "dirac/wilson_ops.h"
#include "fields/compressed_gauge.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "perfmodel/stencil.h"
#include "util/parallel_for.h"

namespace {

using namespace lqcd;

// Lattice extent per dimension; LQCD_BENCH_L overrides (even, >= 4), so the
// CI perf-smoke job can run these on a tiny lattice.
int bench_extent() {
  if (const char* e = std::getenv("LQCD_BENCH_L")) {
    const int v = std::atoi(e);
    if (v >= 4 && v % 2 == 0) return v;
  }
  return 8;
}

// Streamed bytes per Wilson hop application: per site, 8 neighbour spinor
// loads + 1 spinor store (24 reals each) and 8 gauge links at the packed
// width.
double wilson_hop_bytes(const LatticeGeometry& g, Reconstruct scheme,
                        int real_bytes) {
  const double per_site =
      (8.0 + 1.0) * 24.0 * real_bytes +
      8.0 * reals_per_link(scheme) * real_bytes;
  return per_site * static_cast<double>(g.volume());
}

struct WilsonFixture {
  LatticeGeometry g{{bench_extent(), bench_extent(), bench_extent(),
                     bench_extent()}};
  GaugeField<double> u = hot_gauge(g, 1);
  CloverField<double> clover = build_clover_field(u, 1.0);
  WilsonField<double> in = gaussian_wilson_source(g, 2);
  WilsonField<double> out{g};
  // Held for the timed loops, so no hop call rebuilds the shared table.
  std::shared_ptr<const NeighborTable> nt = shared_local_neighbors(g, 1);
};

void BM_WilsonHop(benchmark::State& state) {
  WilsonFixture f;
  wilson_hop(f.out, f.u, f.in, *f.nt);  // untimed: runs the tune sweep
  for (auto _ : state) {
    wilson_hop(f.out, f.u, f.in, *f.nt);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kWilsonDslashFlopsPerSite *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["bytes_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          wilson_hop_bytes(f.g, Reconstruct::None, sizeof(double)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WilsonHop)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_WilsonHopReference(benchmark::State& state) {
  WilsonFixture f;
  for (auto _ : state) {
    wilson_hop_reference(f.out, f.u, f.in);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kWilsonDslashFlopsPerSite *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WilsonHopReference)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_WilsonCloverApply(benchmark::State& state) {
  WilsonFixture f;
  WilsonCloverOperator<double> m(f.u, &f.clover, -0.1);
  m.apply(f.out, f.in);  // untimed: runs the tune sweep
  for (auto _ : state) {
    m.apply(f.out, f.in);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          dslash_flops_per_site(StencilKind::WilsonClover) *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WilsonCloverApply)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The clover site algebra alone: clover_apply over the odd half of an L^4
// float field (8^4 unless LQCD_BENCH_L says otherwise), sites on the
// worker pool, so the time is wall-clock (real_time).
void BM_CloverSiteApply(benchmark::State& state) {
  WilsonFixture f;
  const CloverField<float> clover = convert_clover<float>(f.clover);
  const WilsonField<float> in = convert_field<float>(f.in);
  WilsonField<float> out(f.g);
  const std::int64_t h = f.g.half_volume();
  for (auto _ : state) {
    parallel_for(h, [&](std::int64_t i) {
      out.at(h + i) = clover_apply(clover.at(h + i), in.at(h + i));
    });
    benchmark::DoNotOptimize(out.sites().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CloverSiteApply)->Unit(benchmark::kMillisecond)->UseRealTime();

// The single-domain Schur operator M_hat over the whole L^4 lattice (8^4
// unless LQCD_BENCH_L says otherwise): two hops, each followed by a pass
// of the clover term.  Float is the operator the batched solve service
// runs, on spin-pair lanes.
template <typename Real>
void BM_WilsonSchurApply(benchmark::State& state) {
  WilsonFixture f;
  const GaugeField<Real> u = convert_gauge<Real>(f.u);
  const CloverField<Real> clover = convert_clover<Real>(f.clover);
  WilsonCloverSchurOperator<Real> schur(u, &clover, -0.1);
  WilsonField<Real> in = convert_field<Real>(f.in);
  for (std::int64_t s = f.g.half_volume(); s < f.g.volume(); ++s) {
    in.at(s) = WilsonSpinor<Real>{};
  }
  WilsonField<Real> out(f.g);
  schur.apply(out, in);  // untimed: runs the tune sweep
  for (auto _ : state) {
    schur.apply(out, in);
    benchmark::DoNotOptimize(out.sites().data());
  }
}
BENCHMARK_TEMPLATE(BM_WilsonSchurApply, float)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_WilsonSchurApply, double)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_WilsonHopSinglePrecision(benchmark::State& state) {
  WilsonFixture f;
  const GaugeField<float> uf = convert_gauge<float>(f.u);
  const WilsonField<float> inf = convert_field<float>(f.in);
  WilsonField<float> outf(f.g);
  wilson_hop(outf, uf, inf, *f.nt);  // untimed: runs the tune sweep
  for (auto _ : state) {
    wilson_hop(outf, uf, inf, *f.nt);
    benchmark::DoNotOptimize(outf.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kWilsonDslashFlopsPerSite *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WilsonHopSinglePrecision)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The multi-RHS hop (dirac/multi_rhs.h) over the whole L^4 float lattice,
// arg = batch width (1, 4, 5 or 8): each site resolves its neighbours once
// and runs the spin-pair lane site body per RHS.  Sites run on the worker
// pool, so the time is wall-clock (real_time); Mflops counts every RHS.
void BM_WilsonHopMulti(benchmark::State& state) {
  WilsonFixture f;
  const int width = static_cast<int>(state.range(0));
  const GaugeField<float> u = convert_gauge<float>(f.u);
  std::vector<WilsonField<float>> in;
  std::vector<WilsonField<float>> out;
  for (int r = 0; r < width; ++r) {
    in.push_back(convert_field<float>(
        gaussian_wilson_source(f.g, 10u + static_cast<std::uint64_t>(r))));
    out.emplace_back(f.g);
  }
  std::vector<WilsonField<float>*> outs;
  std::vector<const WilsonField<float>*> ins;
  for (int r = 0; r < width; ++r) {
    outs.push_back(&out[static_cast<std::size_t>(r)]);
    ins.push_back(&in[static_cast<std::size_t>(r)]);
  }
  for (auto _ : state) {
    wilson_hop_multi(outs, u, ins, *f.nt);
    benchmark::DoNotOptimize(out[0].sites().data());
    benchmark::ClobberMemory();
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * width *
          kWilsonDslashFlopsPerSite * static_cast<double>(f.g.volume()) /
          1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WilsonHopMulti)
    ->Arg(1)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The flops-for-bandwidth trade executed: the same hop kernel fed from a
// reconstruct-N gauge field (arg = 18 / 12 / 8).  `gauge_bytes_per_site` is
// the *measured* gauge traffic from the dslash.gauge_bytes{recon=N} counter
// delta across the timed loop — the number the perfmodel's per-recon byte
// formulas are held to in tests, and the >= 30%% reduction claim for
// recon-12 is read straight off this counter.
void BM_WilsonHopRecon(benchmark::State& state) {
  WilsonFixture f;
  const auto scheme = static_cast<Reconstruct>(state.range(0));
  const CompressedGaugeField<double> cu(f.u, scheme);
  Counter& meter = gauge_bytes_counter(scheme);
  wilson_hop(f.out, cu, f.in, *f.nt);  // untimed: runs the tune sweep
  const std::uint64_t before = meter.value();
  for (auto _ : state) {
    wilson_hop(f.out, cu, f.in, *f.nt);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  const double sites =
      static_cast<double>(state.iterations()) *
      static_cast<double>(f.g.volume());
  state.counters["gauge_bytes_per_site"] =
      static_cast<double>(meter.value() - before) / sites;
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kWilsonDslashFlopsPerSite *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string("recon") + to_string(scheme));
}
BENCHMARK(BM_WilsonHopRecon)
    ->Arg(18)
    ->Arg(12)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Half storage emulation on top of reconstruction (the paper's production
// config): packed reals round-trip the int16 fixed-point codec.
void BM_WilsonHopReconHalf(benchmark::State& state) {
  WilsonFixture f;
  const auto scheme = static_cast<Reconstruct>(state.range(0));
  const CompressedGaugeField<double> cu(f.u, scheme, /*half_storage=*/true);
  wilson_hop(f.out, cu, f.in, *f.nt);  // untimed: runs the tune sweep
  for (auto _ : state) {
    wilson_hop(f.out, cu, f.in, *f.nt);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.SetLabel(std::string("recon") + to_string(scheme) + "/half");
}
BENCHMARK(BM_WilsonHopReconHalf)
    ->Arg(12)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The full fused operator (hop + diagonal in one sweep) per gauge format.
void BM_WilsonCloverApplyRecon(benchmark::State& state) {
  WilsonFixture f;
  const auto scheme = static_cast<Reconstruct>(state.range(0));
  WilsonCloverOperator<double> m(f.u, &f.clover, -0.1, nullptr, scheme);
  m.apply(f.out, f.in);  // untimed: runs the tune sweep
  for (auto _ : state) {
    m.apply(f.out, f.in);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          dslash_flops_per_site(StencilKind::WilsonClover) *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string("recon") + to_string(scheme));
}
BENCHMARK(BM_WilsonCloverApplyRecon)
    ->Arg(18)
    ->Arg(12)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The free hop D over the whole 8^4 lattice.  The site loop runs on the
// worker pool, so the time (and the Mflops rate) is wall-clock.
template <typename Real>
void BM_StaggeredHop(benchmark::State& state) {
  const LatticeGeometry g({8, 8, 8, 8});
  const GaugeField<double> u = hot_gauge(g, 3);
  const AsqtadLinks links = build_asqtad_links(u);
  const GaugeField<Real> fat = convert_gauge<Real>(links.fat);
  const GaugeField<Real> lng = convert_gauge<Real>(links.lng);
  const StaggeredField<Real> in =
      convert_field<Real>(gaussian_staggered_source(g, 4));
  const std::shared_ptr<const NeighborTable> nt =
      shared_local_neighbors(g, 3);
  StaggeredField<Real> out(g);
  staggered_hop(out, fat, lng, in, *nt);  // untimed: runs the tune sweep
  for (auto _ : state) {
    staggered_hop(out, fat, lng, in, *nt);
    benchmark::DoNotOptimize(out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStaggeredDslashFlopsPerSite *
          static_cast<double>(g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_StaggeredHop, double)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_TEMPLATE(BM_StaggeredHop, float)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// (M^dag M)_ee on an L^4 lattice (arg0 = L).  The site loops run on the
// worker pool, so the time is wall-clock (real_time).
template <typename Real>
void BM_StaggeredSchurApply(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const LatticeGeometry g({l, l, l, l});
  const GaugeField<double> u = hot_gauge(g, 5);
  const AsqtadLinks links = build_asqtad_links(u);
  const GaugeField<Real> fat = convert_gauge<Real>(links.fat);
  const GaugeField<Real> lng = convert_gauge<Real>(links.lng);
  StaggeredSchurOperator<Real> schur(fat, lng, 0.05, 0.0);
  StaggeredField<Real> in =
      convert_field<Real>(gaussian_staggered_source(g, 6));
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    in.at(s) = ColorVector<Real>{};
  }
  StaggeredField<Real> out(g);
  // One untimed apply runs the tune sweeps, which at 16^4 would otherwise
  // fill the single timed iteration a short min_time allows.
  schur.apply(out, in);
  for (auto _ : state) {
    schur.apply(out, in);
    benchmark::DoNotOptimize(out.sites().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_TEMPLATE(BM_StaggeredSchurApply, double)
    ->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_TEMPLATE(BM_StaggeredSchurApply, float)
    ->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PartitionedWilson(benchmark::State& state) {
  // The virtual-cluster dslash under both rank runtimes.  arg0 selects the
  // mode (0 = seq reference, 1 = thread-per-rank channels); in threads
  // mode the overlap counters report the executed Fig. 4 overlap: the
  // fraction of each rank's comm window covered by its interior kernel.
  const RankMode mode = state.range(0) == 0 ? RankMode::Seq : RankMode::Threads;
  const RankMode prev = rank_mode();
  set_rank_mode(mode);
  WilsonFixture f;
  Partitioning part(f.g, {1, 1, 2, 2});
  PartitionedWilsonClover<double> op(part, f.u, &f.clover, -0.1);
  for (auto _ : state) {
    op.apply(f.out, f.in);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          dslash_flops_per_site(StencilKind::WilsonClover) *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  const OverlapStats& ov = op.overlap();
  if (ov.rank_samples > 0) {
    state.counters["overlap_eff"] = ov.overlap_efficiency();
    state.counters["wait_frac"] =
        ov.wait_s / (ov.post_s + ov.interior_s + ov.wait_s + ov.exterior_s);
  }
  state.SetLabel(rank_mode_name(mode));
  set_rank_mode(prev);
}
// The partitioned benches run their ranks on threads other than the
// timing thread, so time (and the Mflops rate) is wall-clock: real_time.
BENCHMARK(BM_PartitionedWilson)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PartitionedWilsonHalfGhost(benchmark::State& state) {
  // The same virtual-cluster dslash with precision-truncated ghost faces
  // (LQCD_GHOST_PREC=half, comm/wire.h): spin-projected faces quantized to
  // the int16+norm envelope at pack time, 28 wire bytes per face site vs
  // 96 at double.  wire_bytes_frac reports metered compressed bytes over
  // the uncompressed baseline (the ISSUE's <= 30% acceptance bound).
  const RankMode mode = state.range(0) == 0 ? RankMode::Seq : RankMode::Threads;
  const RankMode prev = rank_mode();
  set_rank_mode(mode);
  WilsonFixture f;
  Partitioning part(f.g, {1, 1, 2, 2});
  PartitionedWilsonClover<double> op_full(part, f.u, &f.clover, -0.1);
  setenv("LQCD_GHOST_PREC", "half", 1);
  init_ghost_prec_from_env();
  PartitionedWilsonClover<double> op(part, f.u, &f.clover, -0.1);
  unsetenv("LQCD_GHOST_PREC");
  init_ghost_prec_from_env();
  for (auto _ : state) {
    op.apply(f.out, f.in);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          dslash_flops_per_site(StencilKind::WilsonClover) *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  op_full.apply(f.out, f.in);
  const double full_bytes = static_cast<double>(
      op_full.traffic().spinor.total_bytes() /
      std::max<std::int64_t>(op_full.traffic().applications, 1));
  const double half_bytes =
      static_cast<double>(op.traffic().spinor.total_bytes()) /
      static_cast<double>(std::max<std::int64_t>(op.traffic().applications, 1));
  if (full_bytes > 0) {
    state.counters["wire_bytes_frac"] = half_bytes / full_bytes;
  }
  state.SetLabel(rank_mode_name(mode));
  set_rank_mode(prev);
}
BENCHMARK(BM_PartitionedWilsonHalfGhost)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PartitionedWilsonReconGhost(benchmark::State& state) {
  // The joint wire compression: unit-form reconstruction *and* half
  // precision (LQCD_GHOST_RECON=min + LQCD_GHOST_PREC=half) — faces
  // travel as norm + meta byte + 11 int16 direction components, 27 wire
  // bytes per face site vs 96 at double (28.1%, under the 28-byte
  // full-recon half envelope of BM_PartitionedWilsonHalfGhost); gauge
  // ghosts travel 12-real compressed.  wire_bytes_frac again reports
  // metered compressed bytes over the uncompressed baseline.
  const RankMode mode = state.range(0) == 0 ? RankMode::Seq : RankMode::Threads;
  const RankMode prev = rank_mode();
  set_rank_mode(mode);
  WilsonFixture f;
  Partitioning part(f.g, {1, 1, 2, 2});
  PartitionedWilsonClover<double> op_full(part, f.u, &f.clover, -0.1);
  setenv("LQCD_GHOST_PREC", "half", 1);
  setenv("LQCD_GHOST_RECON", "min", 1);
  init_ghost_prec_from_env();
  init_ghost_recon_from_env();
  PartitionedWilsonClover<double> op(part, f.u, &f.clover, -0.1);
  unsetenv("LQCD_GHOST_PREC");
  unsetenv("LQCD_GHOST_RECON");
  init_ghost_prec_from_env();
  init_ghost_recon_from_env();
  for (auto _ : state) {
    op.apply(f.out, f.in);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          dslash_flops_per_site(StencilKind::WilsonClover) *
          static_cast<double>(f.g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  op_full.apply(f.out, f.in);
  const double full_bytes = static_cast<double>(
      op_full.traffic().spinor.total_bytes() /
      std::max<std::int64_t>(op_full.traffic().applications, 1));
  const double recon_bytes =
      static_cast<double>(op.traffic().spinor.total_bytes()) /
      static_cast<double>(std::max<std::int64_t>(op.traffic().applications, 1));
  if (full_bytes > 0) {
    state.counters["wire_bytes_frac"] = recon_bytes / full_bytes;
  }
  state.SetLabel(rank_mode_name(mode));
  set_rank_mode(prev);
}
BENCHMARK(BM_PartitionedWilsonReconGhost)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PartitionedSchurApply(benchmark::State& state) {
  // The whole even-odd operator M_hat on an L^4 float lattice (arg0 = L)
  // over a {1,1,2,2} rank grid, the dslash-halfwire operator: each rank
  // copies its own parity in and out and applies its clover terms inside
  // its task.  arg1 selects the rank runtime (0 = seq, 1 = threads).
  const int l = static_cast<int>(state.range(0));
  const RankMode mode = state.range(1) == 0 ? RankMode::Seq : RankMode::Threads;
  const RankMode prev = rank_mode();
  set_rank_mode(mode);
  const LatticeGeometry g({l, l, l, l});
  const GaugeField<double> u = hot_gauge(g, 7);
  const CloverField<float> clover =
      convert_clover<float>(build_clover_field(u, 1.0));
  const PartitionedWilsonCloverSchur<float> op(
      Partitioning(g, {1, 1, 2, 2}), convert_gauge<float>(u), &clover, -0.2);
  WilsonField<float> in = convert_field<float>(gaussian_wilson_source(g, 8));
  for (auto& v : in.parity_span(Parity::Odd)) v = WilsonSpinor<float>{};
  WilsonField<float> out(g);
  // One untimed apply runs the tune sweeps.
  op.apply(out, in);
  for (auto _ : state) {
    op.apply(out, in);
    benchmark::DoNotOptimize(out.sites().data());
    benchmark::ClobberMemory();
  }
  state.counters["Mflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          dslash_flops_per_site(StencilKind::WilsonClover) *
          static_cast<double>(g.volume()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(rank_mode_name(mode));
  set_rank_mode(prev);
}
BENCHMARK(BM_PartitionedSchurApply)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DirichletWilsonHop(benchmark::State& state) {
  // The Schwarz preconditioner's kernel: hopping with the block cut.
  WilsonFixture f;
  BlockMask mask(f.g, {1, 1, 2, 2});
  // Untimed: runs the tune sweep.
  wilson_hop(f.out, f.u, f.in, *f.nt, std::nullopt, &mask);
  for (auto _ : state) {
    wilson_hop(f.out, f.u, f.in, *f.nt, std::nullopt, &mask);
    benchmark::DoNotOptimize(f.out.sites().data());
  }
}
BENCHMARK(BM_DirichletWilsonHop)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

LQCD_TUNED_BENCH_MAIN()
