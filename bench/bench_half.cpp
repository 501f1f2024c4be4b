// Microbenchmarks of the half-precision codec: per-site quantization, the
// field-wide round trip used by the mixed-precision solvers, and packing
// into genuine int16 storage.  The field round trips report wall-clock
// time (real_time), like the solver benches.

#include <benchmark/benchmark.h>

#include "fields/packed_half.h"
#include "fields/precision.h"
#include "gauge/configure.h"

namespace {

using namespace lqcd;

void BM_HalfRoundTripWilson(benchmark::State& state) {
  LatticeGeometry g({8, 8, 8, 16});
  WilsonField<float> f =
      convert_field<float>(gaussian_wilson_source(g, 1));
  for (auto _ : state) {
    half_roundtrip(f);
    benchmark::DoNotOptimize(f.sites().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.volume()) * 24 * 4);
}
BENCHMARK(BM_HalfRoundTripWilson)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The parity-restricted store the mixed-precision Schur solvers call after
// every kernel, on an 8^4 lattice.
void BM_HalfRoundTripWilsonParity(benchmark::State& state) {
  LatticeGeometry g({8, 8, 8, 8});
  WilsonField<float> f =
      convert_field<float>(gaussian_wilson_source(g, 7));
  for (auto _ : state) {
    half_roundtrip(f, Parity::Even);
    benchmark::DoNotOptimize(f.sites().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.half_volume()) * 24 * 4);
}
BENCHMARK(BM_HalfRoundTripWilsonParity)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_HalfRoundTripStaggered(benchmark::State& state) {
  LatticeGeometry g({8, 8, 8, 16});
  StaggeredField<float> f =
      convert_field<float>(gaussian_staggered_source(g, 2));
  for (auto _ : state) {
    half_roundtrip(f);
    benchmark::DoNotOptimize(f.sites().data());
  }
}
BENCHMARK(BM_HalfRoundTripStaggered)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_HalfPack(benchmark::State& state) {
  LatticeGeometry g({8, 8, 8, 16});
  const WilsonField<float> f =
      convert_field<float>(gaussian_wilson_source(g, 3));
  PackedHalfWilson packed(g);
  for (auto _ : state) {
    packed.pack(f);
    benchmark::DoNotOptimize(&packed);
  }
}
BENCHMARK(BM_HalfPack)->Unit(benchmark::kMillisecond);

void BM_HalfUnpack(benchmark::State& state) {
  LatticeGeometry g({8, 8, 8, 16});
  WilsonField<float> f = convert_field<float>(gaussian_wilson_source(g, 4));
  PackedHalfWilson packed(g);
  packed.pack(f);
  for (auto _ : state) {
    packed.unpack(f);
    benchmark::DoNotOptimize(f.sites().data());
  }
}
BENCHMARK(BM_HalfUnpack)->Unit(benchmark::kMillisecond);

void BM_GaugeHalfRoundTrip(benchmark::State& state) {
  LatticeGeometry g({4, 4, 4, 8});
  GaugeField<float> u = convert_gauge<float>(hot_gauge(g, 5));
  for (auto _ : state) {
    half_roundtrip(u);
    benchmark::DoNotOptimize(u.all_links().data());
  }
}
BENCHMARK(BM_GaugeHalfRoundTrip)->Unit(benchmark::kMillisecond);

void BM_PrecisionConvertDown(benchmark::State& state) {
  LatticeGeometry g({8, 8, 8, 16});
  const WilsonField<double> d = gaussian_wilson_source(g, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(convert_field<float>(d));
  }
}
BENCHMARK(BM_PrecisionConvertDown)->Unit(benchmark::kMillisecond);

}  // namespace
