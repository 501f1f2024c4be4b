#include "fields/precision.h"

namespace lqcd {

namespace {
template <typename Site>
void roundtrip_sites(std::span<Site> sites) {
  // Site value types are standard-layout aggregates of std::complex, so
  // their storage is exactly an array of floats; the fixed component count
  // lets the compiler unroll the per-site lane codec.  The loop runs on
  // the caller: a Schur-parity store of an 8^4 field takes about 0.1 ms on
  // the lanes, too little to pay for waking the pool's workers four times
  // per outer GCR iteration (DESIGN.md §21).
  constexpr int kReals = static_cast<int>(sizeof(Site) / sizeof(float));
  for (Site& s : sites) {
    roundtrip_site_half_n<kReals>(reinterpret_cast<float*>(&s));
  }
}

}  // namespace

void half_roundtrip(WilsonField<float>& f) { roundtrip_sites(f.sites()); }

void half_roundtrip(StaggeredField<float>& f) { roundtrip_sites(f.sites()); }

void half_roundtrip(WilsonField<float>& f, Parity p) {
  roundtrip_sites(f.parity_span(p));
}

void half_roundtrip(StaggeredField<float>& f, Parity p) {
  roundtrip_sites(f.parity_span(p));
}

void half_roundtrip(GaugeField<float>& g) {
  for (auto& u : g.all_links()) {
    for (auto& z : u.m) {
      z = Cplx<float>(dequantize_fixed(quantize_fixed(z.real(), 1.0f), 1.0f),
                      dequantize_fixed(quantize_fixed(z.imag(), 1.0f), 1.0f));
    }
  }
}

}  // namespace lqcd
