// Lane-blocked SoA layout (fields/soa_field.h, dirac/soa_kernel.h):
// transmute losslessness, bitwise parity of the SoA Wilson hop against the
// AoS kernel across parities, gauge formats, block cuts and worker counts,
// the layout policy axis, and identical solver iterates with the SoA
// operator path enabled.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>

#include "dirac/layout_policy.h"
#include "dirac/soa_kernel.h"
#include "dirac/wilson_kernel.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "fields/compressed_gauge.h"
#include "fields/precision.h"
#include "fields/soa_field.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "lattice/block_mask.h"
#include "solvers/gcr.h"
#include "tune/tune_cache.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

class SoaTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_worker_count(1);
    unsetenv("LQCD_LAYOUT");
    init_layout_from_env();
    set_tuning_enabled(true);
    global_tune_cache().clear();
  }
};

template <typename Site>
bool fields_equal(const LatticeField<Site>& a, const LatticeField<Site>& b) {
  return a.sites().size_bytes() == b.sites().size_bytes() &&
         std::memcmp(a.sites().data(), b.sites().data(),
                     a.sites().size_bytes()) == 0;
}

// ---------------------------------------------------------------------------
// Containers and transmuters.
// ---------------------------------------------------------------------------

TEST_F(SoaTest, TransmuteRoundTripIsBitwiseLossless) {
  const LatticeGeometry g({4, 4, 4, 4});
  const WilsonField<double> f = gaussian_wilson_source(g, 1);
  SoAWilsonField<double> s(g);
  to_soa(f, s);
  // Per-site gather agrees with the source...
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    const WilsonSpinor<double> a = f.at(i);
    const WilsonSpinor<double> b = s.site_at(i);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << "site " << i;
  }
  // ...and the inverse reorder round-trips exactly.
  WilsonField<double> back(g);
  from_soa(s, back);
  EXPECT_TRUE(fields_equal(f, back));
}

TEST_F(SoaTest, BlockIndexingIsConsistent) {
  const LatticeGeometry g({4, 4, 2, 2});
  SoAWilsonField<float> s(g);
  // Even extents keep every block full; block/lane round-trips the index.
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    const std::int64_t b = s.block_of(i);
    EXPECT_EQ(s.first_site(b) + s.lane_of(i), i);
    EXPECT_EQ(s.valid_lanes(b), SoAWilsonField<float>::kLanes);
    EXPECT_LT(b, s.blocks());
  }
  // Blocks never straddle the parity boundary.
  EXPECT_EQ(s.first_site(s.blocks_per_parity()), g.half_volume());
}

TEST_F(SoaTest, GaugePackingMatchesCompressedField) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 3);
  for (Reconstruct r :
       {Reconstruct::None, Reconstruct::Twelve, Reconstruct::Eight}) {
    for (bool half : {false, true}) {
      const SoAGaugeField<double> soa(u, r, half);
      const CompressedGaugeField<double> aos(u, r, half);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (std::int64_t s = 0; s < g.volume(); ++s) {
          const Matrix3<double> a = soa.link(mu, s);
          const Matrix3<double> b = aos.link(mu, s);
          ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
              << "recon" << to_string(r) << (half ? "/half" : "") << " mu="
              << mu << " s=" << s;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hop kernels: bitwise parity fuzz against the AoS kernels.
// ---------------------------------------------------------------------------

template <typename Real>
void fuzz_wilson_hop() {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> ud = hot_gauge(g, 11);
  const GaugeField<Real> u = convert_gauge<Real>(ud);
  const WilsonField<Real> in =
      convert_field<Real>(gaussian_wilson_source(g, 12));
  const BlockMask mask(g, {2, 1, 1, 2});
  SoAWilsonField<Real> sin(g);
  to_soa(in, sin);
  const std::optional<Parity> targets[] = {std::nullopt, Parity::Even,
                                           Parity::Odd};
  for (Reconstruct r :
       {Reconstruct::None, Reconstruct::Twelve, Reconstruct::Eight}) {
    const SoAGaugeField<Real> su(u, r);
    const CompressedGaugeField<Real> cu(u, r);
    for (const auto& target : targets) {
      for (const LinkCut* m :
           {static_cast<const LinkCut*>(nullptr),
            static_cast<const LinkCut*>(&mask)}) {
        WilsonField<Real> ref(g);
        if (r == Reconstruct::None) {
          wilson_hop(ref, u, in, target, m);
        } else {
          wilson_hop(ref, cu, in, target, m);
        }
        SoAWilsonField<Real> sout(g);
        wilson_hop_soa(sout, su, sin, target, m);
        WilsonField<Real> got(g);
        from_soa(sout, got);
        ASSERT_TRUE(fields_equal(ref, got))
            << "recon" << to_string(r) << " target="
            << (target.has_value()
                    ? (*target == Parity::Even ? "e" : "o")
                    : "full")
            << " mask=" << (m != nullptr);
      }
    }
  }
}

TEST_F(SoaTest, WilsonHopBitwiseMatchesAoSDouble) { fuzz_wilson_hop<double>(); }
TEST_F(SoaTest, WilsonHopBitwiseMatchesAoSFloat) { fuzz_wilson_hop<float>(); }

TEST_F(SoaTest, HopBitwiseIndependentOfWorkerCount) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 15);
  const WilsonField<double> in = gaussian_wilson_source(g, 16);
  const SoAGaugeField<double> su(u, Reconstruct::Twelve);
  SoAWilsonField<double> sin(g), out1(g), out4(g);
  to_soa(in, sin);
  set_worker_count(1);
  wilson_hop_soa(out1, su, sin);
  set_worker_count(4);
  wilson_hop_soa(out4, su, sin);
  EXPECT_EQ(std::memcmp(out1.raw().data(), out4.raw().data(),
                        out1.raw().size_bytes()),
            0);
}

// ---------------------------------------------------------------------------
// Layout policy axis and the operator wiring.
// ---------------------------------------------------------------------------

TEST_F(SoaTest, OperatorHonoursForcedLayoutBitwise) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 31);
  const CloverField<double> a = build_clover_field(u, 1.1);
  const WilsonField<double> in = gaussian_wilson_source(g, 32);

  setenv("LQCD_LAYOUT", "aos", 1);
  init_layout_from_env();
  WilsonCloverOperator<double> maos(u, &a, -0.2);
  ASSERT_EQ(maos.layout(), Layout::AoS);
  WilsonField<double> out_aos(g);
  maos.apply(out_aos, in);

  setenv("LQCD_LAYOUT", "soa", 1);
  init_layout_from_env();
  WilsonCloverOperator<double> msoa(u, &a, -0.2);
  ASSERT_EQ(msoa.layout(), Layout::SoA);
  WilsonField<double> out_soa(g);
  msoa.apply(out_soa, in);

  EXPECT_TRUE(fields_equal(out_aos, out_soa));
}

TEST_F(SoaTest, ForcedLayoutAppliesWithReconFormats) {
  // SoA x recon composition through the operator (the SoA gauge inherits
  // the compressed codec bit for bit).
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 33);
  const WilsonField<double> in = gaussian_wilson_source(g, 34);
  for (Reconstruct r : {Reconstruct::Twelve, Reconstruct::Eight}) {
    setenv("LQCD_LAYOUT", "aos", 1);
    init_layout_from_env();
    WilsonCloverOperator<double> maos(u, nullptr, 0.1, nullptr, r);
    WilsonField<double> out_aos(g);
    maos.apply(out_aos, in);

    setenv("LQCD_LAYOUT", "soa", 1);
    init_layout_from_env();
    WilsonCloverOperator<double> msoa(u, nullptr, 0.1, nullptr, r);
    WilsonField<double> out_soa(g);
    msoa.apply(out_soa, in);
    EXPECT_TRUE(fields_equal(out_aos, out_soa)) << "recon" << to_string(r);
  }
}

TEST_F(SoaTest, TuneSweepRecordsLayoutAxis) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = hot_gauge(g, 35);
  setenv("LQCD_LAYOUT", "tune", 1);
  init_layout_from_env();
  set_tuning_enabled(true);
  global_tune_cache().clear();
  WilsonCloverOperator<double> m(u, nullptr, 0.1);
  bool found = false;
  for (const auto& [key, res] : global_tune_cache().entries()) {
    if (key.kernel == "wilson_clover_layout") {
      found = true;
      EXPECT_TRUE(res.param == "layout=aos" || res.param == "layout=soa");
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(m.layout() == Layout::AoS || m.layout() == Layout::SoA);
}

TEST_F(SoaTest, GcrIteratesBitwiseIdenticalAcrossLayouts) {
  // A full GCR solve driven by the SoA operator path produces the exact
  // iterate sequence of the AoS path: every residual and the solution are
  // bit-identical, in both rank-mode settings of the worker pool.
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> ud = hot_gauge(g, 41);
  const GaugeField<float> u = convert_gauge<float>(ud);
  const WilsonField<float> b =
      convert_field<float>(gaussian_wilson_source(g, 42));
  GcrParams p;
  p.tol = 1e-4;

  SolverStats stats[2];
  WilsonField<float> x[2] = {WilsonField<float>(g), WilsonField<float>(g)};
  const char* layouts[2] = {"aos", "soa"};
  for (int i = 0; i < 2; ++i) {
    setenv("LQCD_LAYOUT", layouts[i], 1);
    init_layout_from_env();
    WilsonCloverOperator<float> m(u, nullptr, 0.3);
    ASSERT_EQ(m.layout(), i == 0 ? Layout::AoS : Layout::SoA);
    set_zero(x[i]);
    stats[i] = gcr_solve(m, x[i], b, nullptr, p);
    EXPECT_TRUE(stats[i].converged);
  }
  ASSERT_EQ(stats[0].iterations, stats[1].iterations);
  ASSERT_EQ(stats[0].residual_history.size(),
            stats[1].residual_history.size());
  EXPECT_EQ(std::memcmp(stats[0].residual_history.data(),
                        stats[1].residual_history.data(),
                        stats[0].residual_history.size() * sizeof(double)),
            0);
  EXPECT_TRUE(fields_equal(x[0], x[1]));
}

}  // namespace
}  // namespace lqcd
