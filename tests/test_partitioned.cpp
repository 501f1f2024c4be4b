// The multi-dimensionally partitioned operators (the paper's contribution):
// for every partitioning grid the result must equal the single-domain
// operator exactly, the communications-off mode must equal the
// block-Dirichlet operator, and the traffic meters must match the analytic
// face-byte formulas used by the performance model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "comm/virtual_cluster.h"
#include "dirac/even_odd.h"
#include "dirac/partitioned.h"
#include "dirac/partitioned_schur.h"
#include "dirac/staggered.h"
#include "dirac/twisted_mass.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "perfmodel/stencil.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

using Grid = std::array<int, 4>;

class PartitionedWilsonTest : public ::testing::TestWithParam<Grid> {};

TEST_P(PartitionedWilsonTest, MatchesSingleDomain) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 51);
  const CloverField<double> a = build_clover_field(u, 1.1);
  const double mass = -0.1;
  Partitioning part(g, GetParam());

  WilsonCloverOperator<double> ref_op(u, &a, mass);
  PartitionedWilsonClover<double> par_op(part, u, &a, mass);

  const WilsonField<double> in = gaussian_wilson_source(g, 52);
  WilsonField<double> expect(g), got(g);
  ref_op.apply(expect, in);
  par_op.apply(got, in);
  axpy(-1.0, expect, got);
  EXPECT_LT(norm2(got), 1e-20 * norm2(expect));
}

TEST_P(PartitionedWilsonTest, CommsOffEqualsBlockDirichlet) {
  // The interior kernel alone (comms off) and the masked fused apply run
  // the same site body over the same legs: bitwise equal, with and
  // without clover.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 53);
  const CloverField<double> a = build_clover_field(u, 1.1);
  const double mass = 0.05;
  Partitioning part(g, GetParam());
  BlockMask mask(g, GetParam());
  const WilsonField<double> in = gaussian_wilson_source(g, 54);

  const CloverField<double>* clovers[] = {nullptr, &a};
  for (const CloverField<double>* clover : clovers) {
    SCOPED_TRACE(clover != nullptr ? "clover" : "wilson");
    WilsonCloverOperator<double> masked_op(u, clover, mass, &mask);
    PartitionedWilsonClover<double> cut_op(part, u, clover, mass,
                                           /*comms=*/false);
    WilsonField<double> expect(g), got(g);
    masked_op.apply(expect, in);
    cut_op.apply(got, in);
    EXPECT_EQ(std::memcmp(expect.sites().data(), got.sites().data(),
                          expect.sites().size_bytes()),
              0);
  }
}

TEST_P(PartitionedWilsonTest, TrafficMatchesAnalyticModel) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 55);
  const double mass = 0.0;
  Partitioning part(g, GetParam());
  PartitionedWilsonClover<double> op(part, u, nullptr, mass);

  const WilsonField<double> in = gaussian_wilson_source(g, 56);
  WilsonField<double> out(g);
  op.apply(out, in);
  op.apply(out, in);

  const auto& traffic = op.traffic();
  EXPECT_EQ(traffic.applications, 2);
  for (int mu = 0; mu < kNDim; ++mu) {
    // Metered bytes per dimension over 2 applications and all ranks:
    // 2 apps x ranks x 2 directions x face_message_bytes.
    const double expect = 2.0 * part.num_ranks() * 2.0 *
                          face_message_bytes(part, StencilKind::Wilson,
                                             Precision::Double, mu);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(traffic.spinor.bytes_by_dim[static_cast<std::size_t>(mu)]),
        expect)
        << "mu=" << mu;
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, PartitionedWilsonTest,
                         ::testing::Values(Grid{1, 1, 1, 1}, Grid{1, 1, 1, 2},
                                           Grid{1, 1, 2, 2}, Grid{1, 2, 1, 2},
                                           Grid{2, 1, 1, 1}, Grid{2, 2, 2, 2},
                                           Grid{1, 1, 1, 4}, Grid{2, 2, 2, 4}));

class PartitionedStaggeredTest : public ::testing::TestWithParam<Grid> {};

TEST_P(PartitionedStaggeredTest, MatchesSingleDomain) {
  const LatticeGeometry g({4, 4, 8, 8});
  const GaugeField<double> u = hot_gauge(g, 61);
  const AsqtadLinks links = build_asqtad_links(u);
  const double mass = 0.07;
  Partitioning part(g, GetParam());

  StaggeredOperator<double> ref_op(links.fat, links.lng, mass);
  PartitionedStaggered<double> par_op(part, links.fat, links.lng, mass);

  const StaggeredField<double> in = gaussian_staggered_source(g, 62);
  StaggeredField<double> expect(g), got(g);
  ref_op.apply(expect, in);
  par_op.apply(got, in);
  axpy(-1.0, expect, got);
  EXPECT_LT(norm2(got), 1e-20 * norm2(expect));
}

TEST_P(PartitionedStaggeredTest, TrafficMatchesAnalyticModel) {
  const LatticeGeometry g({4, 4, 8, 8});
  const GaugeField<double> u = hot_gauge(g, 63);
  const AsqtadLinks links = build_asqtad_links(u);
  Partitioning part(g, GetParam());
  PartitionedStaggered<double> op(part, links.fat, links.lng, 0.05);

  const StaggeredField<double> in = gaussian_staggered_source(g, 64);
  StaggeredField<double> out(g);
  op.apply(out, in);

  const auto& traffic = op.traffic();
  for (int mu = 0; mu < kNDim; ++mu) {
    const double expect =
        part.num_ranks() * 2.0 *
        face_message_bytes(part, StencilKind::ImprovedStaggered,
                           Precision::Double, mu);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(traffic.spinor.bytes_by_dim[static_cast<std::size_t>(mu)]),
        expect)
        << "mu=" << mu;
  }
}

/// The free hop with a block cut against the partitioned operator with
/// comms off, within \p tol relative to norm2 of the hop.
template <typename Real>
void expect_comms_off_equals_block_dirichlet(const Grid& grid, double tol) {
  const LatticeGeometry g({4, 4, 8, 8});
  const GaugeField<double> u = hot_gauge(g, 65);
  const AsqtadLinks links = build_asqtad_links(u);
  const GaugeField<Real> fat = convert_gauge<Real>(links.fat);
  const GaugeField<Real> lng = convert_gauge<Real>(links.lng);
  Partitioning part(g, grid);
  BlockMask mask(g, grid);

  StaggeredField<Real> in =
      convert_field<Real>(gaussian_staggered_source(g, 66));
  StaggeredField<Real> expect(g), got(g);
  staggered_hop(expect, fat, lng, in, std::nullopt, &mask);
  // Dirichlet hop through the partitioned machinery: mass 0 gives D/2.
  PartitionedStaggered<Real> cut_op(part, fat, lng, 0.0, /*comms=*/false);
  cut_op.apply(got, in);
  scale(2.0, got);  // M = m + D/2 with m = 0
  axpy(-1.0, expect, got);
  EXPECT_LT(norm2(got), tol * norm2(expect));
}

TEST_P(PartitionedStaggeredTest, CommsOffEqualsBlockDirichlet) {
  expect_comms_off_equals_block_dirichlet<double>(GetParam(), 1e-20);
}

TEST_P(PartitionedStaggeredTest, CommsOffEqualsBlockDirichletFloat) {
  // float rounds each site sum to 24 bits: relative norm2 errors of a few
  // ulps squared.
  expect_comms_off_equals_block_dirichlet<float>(GetParam(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Grids, PartitionedStaggeredTest,
                         ::testing::Values(Grid{1, 1, 1, 1}, Grid{1, 1, 1, 2},
                                           Grid{1, 1, 2, 2}, Grid{1, 1, 2, 1},
                                           Grid{1, 1, 1, 2}, Grid{1, 1, 2, 2}));

class PartitionedSchurTest : public ::testing::TestWithParam<Grid> {};

TEST_P(PartitionedSchurTest, MatchesSingleDomainSchur) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 81);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const double mass = 0.1;
  Partitioning part(g, GetParam());

  WilsonCloverSchurOperator<double> ref(u, &a, mass);
  PartitionedWilsonCloverSchur<double> par(part, u, &a, mass);

  WilsonField<double> in = gaussian_wilson_source(g, 82);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    in.at(s) = WilsonSpinor<double>{};
  }
  WilsonField<double> expect(g), got(g);
  ref.apply(expect, in);
  par.apply(got, in);
  axpy(-1.0, expect, got);
  EXPECT_LT(norm2(got), 1e-18 * norm2(expect));
}

TEST_P(PartitionedSchurTest, PrepareAndReconstructMatchSingleDomain) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 83);
  const double mass = 0.2;
  Partitioning part(g, GetParam());

  WilsonCloverSchurOperator<double> ref(u, nullptr, mass);
  PartitionedWilsonCloverSchur<double> par(part, u, nullptr, mass);

  const WilsonField<double> b = gaussian_wilson_source(g, 84);
  WilsonField<double> bh_ref(g), bh_par(g);
  ref.prepare_source(bh_ref, b);
  par.prepare_source(bh_par, b);
  WilsonField<double> diff = bh_par;
  axpy(-1.0, bh_ref, diff);
  EXPECT_LT(norm2(diff), 1e-18 * norm2(bh_ref));

  // Reconstruction from the same even-site solution candidate.
  WilsonField<double> x_ref = gaussian_wilson_source(g, 85);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    x_ref.at(s) = WilsonSpinor<double>{};
  }
  WilsonField<double> x_par = x_ref;
  ref.reconstruct_solution(x_ref, b);
  par.reconstruct_solution(x_par, b);
  diff = x_par;
  axpy(-1.0, x_ref, diff);
  EXPECT_LT(norm2(diff), 1e-18 * norm2(x_ref));
}

/// The partitioned Schur operator as whole-field steps: apply_hop into a
/// global field, then the clover terms swept over the global field with
/// global A_ee and A_oo^{-1} copies.  The operator runs the same per-site
/// arithmetic inside the rank tasks, so it must match these bits.
template <typename Real>
class WholeFieldSchur {
 public:
  WholeFieldSchur(const Partitioning& part, const GaugeField<Real>& u,
                  const CloverField<Real>* a, double mass)
      : hop_(part, u, nullptr, mass), tmp_(part.global()),
        diag_(part.global()), inv_diag_(part.global()) {
    const Real d = static_cast<Real>(4.0 + mass);
    for (std::int64_t s = 0; s < part.global().volume(); ++s) {
      CloverSite<Real> cs = a != nullptr ? a->at(s) : CloverSite<Real>{};
      cs = clover_add_diagonal(cs, d);
      diag_.at(s) = cs;
      inv_diag_.at(s) = clover_invert(cs);
    }
  }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) {
    hop_.apply_hop(tmp_, in, Parity::Odd);
    for (std::int64_t s = h(); s < 2 * h(); ++s) {
      tmp_.at(s) = clover_apply(inv_diag_.at(s), tmp_.at(s));
    }
    hop_.apply_hop(out, tmp_, Parity::Even);
    for (std::int64_t s = 0; s < h(); ++s) {
      WilsonSpinor<Real> v = clover_apply(diag_.at(s), in.at(s));
      WilsonSpinor<Real> hop = out.at(s);
      hop *= Real(-0.25);
      v += hop;
      out.at(s) = v;
    }
  }

  void prepare_source(WilsonField<Real>& b_hat, const WilsonField<Real>& b) {
    tmp_.set_zero();
    for (std::int64_t s = h(); s < 2 * h(); ++s) {
      tmp_.at(s) = clover_apply(inv_diag_.at(s), b.at(s));
    }
    hop_.apply_hop(b_hat, tmp_, Parity::Even);
    for (std::int64_t s = 0; s < h(); ++s) {
      WilsonSpinor<Real> v = b_hat.at(s);
      v *= Real(0.5);
      v += b.at(s);
      b_hat.at(s) = v;
    }
    for (auto& v : b_hat.parity_span(Parity::Odd)) v = WilsonSpinor<Real>{};
  }

  void reconstruct_solution(WilsonField<Real>& x, const WilsonField<Real>& b) {
    hop_.apply_hop(tmp_, x, Parity::Odd);
    for (std::int64_t s = h(); s < 2 * h(); ++s) {
      WilsonSpinor<Real> v = tmp_.at(s);
      v *= Real(0.5);
      v += b.at(s);
      x.at(s) = clover_apply(inv_diag_.at(s), v);
    }
  }

 private:
  std::int64_t h() const { return tmp_.geometry().half_volume(); }

  PartitionedWilsonClover<Real> hop_;
  WilsonField<Real> tmp_;
  CloverField<Real> diag_;
  CloverField<Real> inv_diag_;
};

template <typename Site>
bool same_bits(const LatticeField<Site>& a, const LatticeField<Site>& b) {
  return a.sites().size() == b.sites().size() &&
         std::memcmp(a.sites().data(), b.sites().data(),
                     a.sites().size_bytes()) == 0;
}

/// Apply, prepare_source and reconstruct_solution of the partitioned Schur
/// operator against WholeFieldSchur, memcmp-equal for the clover term,
/// no clover and a twisted clover, in both rank modes at 1 and 4 workers.
template <typename Real>
void expect_schur_matches_whole_field(const Grid& grid) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u_d = hot_gauge(g, 181);
  const CloverField<double> a_d = build_clover_field(u_d, 1.0);
  const GaugeField<Real> u = convert_gauge<Real>(u_d);
  const CloverField<Real> a = convert_clover<Real>(a_d);
  const CloverField<Real> twisted =
      twisted_clover(g, &a, static_cast<Real>(0.1));
  const double mass = -0.05;
  const Partitioning part(g, grid);

  WilsonField<Real> in = convert_field<Real>(gaussian_wilson_source(g, 182));
  for (auto& v : in.parity_span(Parity::Odd)) v = WilsonSpinor<Real>{};
  const WilsonField<Real> b =
      convert_field<Real>(gaussian_wilson_source(g, 183));
  const WilsonField<Real> x0 = in;

  const struct {
    const char* name;
    const CloverField<Real>* clover;
  } cases[] = {{"clover", &a}, {"no clover", nullptr}, {"twisted", &twisted}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    WholeFieldSchur<Real> ref(part, u, c.clover, mass);
    PartitionedWilsonCloverSchur<Real> par(part, u, c.clover, mass);
    set_rank_mode(RankMode::Seq);
    set_worker_count(1);
    WilsonField<Real> want_apply(g), want_prep(g);
    WilsonField<Real> want_x = x0;
    ref.apply(want_apply, in);
    ref.prepare_source(want_prep, b);
    ref.reconstruct_solution(want_x, b);

    for (RankMode m : {RankMode::Seq, RankMode::Threads}) {
      for (int w : {1, 4}) {
        SCOPED_TRACE(std::string(rank_mode_name(m)) + " workers " +
                     std::to_string(w));
        set_rank_mode(m);
        set_worker_count(w);
        WilsonField<Real> got(g);
        par.apply(got, in);
        EXPECT_TRUE(same_bits(want_apply, got)) << "apply";
        WilsonField<Real> prep(g);
        par.prepare_source(prep, b);
        EXPECT_TRUE(same_bits(want_prep, prep)) << "prepare_source";
        WilsonField<Real> x = x0;
        par.reconstruct_solution(x, b);
        EXPECT_TRUE(same_bits(want_x, x)) << "reconstruct_solution";
      }
    }
  }
}

class PartitionedSchurBitwiseTest : public PartitionedSchurTest {
 protected:
  void TearDown() override {
    set_rank_mode(RankMode::Threads);
    set_worker_count(1);
  }
};

TEST_P(PartitionedSchurBitwiseTest, DoubleMatchesWholeFieldSteps) {
  expect_schur_matches_whole_field<double>(GetParam());
}

TEST_P(PartitionedSchurBitwiseTest, FloatMatchesWholeFieldSteps) {
  expect_schur_matches_whole_field<float>(GetParam());
}

TEST_P(PartitionedSchurBitwiseTest, ApplyHopZeroesEveryNonTargetSite) {
  // A NaN-filled out: the copy-out must write +0 on every non-target site
  // and the same target sites as an apply into a clean field.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 184);
  const Partitioning part(g, GetParam());
  const PartitionedWilsonClover<double> op(part, u, nullptr, 0.1);
  const WilsonField<double> in = gaussian_wilson_source(g, 185);
  const WilsonSpinor<double> zero{};
  for (RankMode m : {RankMode::Seq, RankMode::Threads}) {
    set_rank_mode(m);
    for (Parity target : {Parity::Even, Parity::Odd}) {
      SCOPED_TRACE(std::string(rank_mode_name(m)) +
                   (target == Parity::Even ? " even" : " odd"));
      WilsonField<double> clean(g);
      op.apply_hop(clean, in, target);
      WilsonField<double> dirty(g);
      for (auto& s : dirty.sites()) {
        for (auto& c : s.s) {
          for (auto& z : c.c) z = {std::nan(""), std::nan("")};
        }
      }
      op.apply_hop(dirty, in, target);
      EXPECT_TRUE(same_bits(clean, dirty));
      for (const auto& v : dirty.parity_span(opposite(target))) {
        ASSERT_EQ(std::memcmp(&v, &zero, sizeof v), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, PartitionedSchurTest,
                         ::testing::Values(Grid{1, 1, 1, 2}, Grid{1, 1, 2, 2},
                                           Grid{2, 2, 2, 2}, Grid{1, 2, 1, 4}));
INSTANTIATE_TEST_SUITE_P(Grids, PartitionedSchurBitwiseTest,
                         ::testing::Values(Grid{1, 1, 1, 2}, Grid{1, 1, 2, 2},
                                           Grid{2, 2, 2, 2}, Grid{1, 2, 1, 4}));

TEST(PartitionedSchur, ParityExchangeHalvesTraffic) {
  // The Schur operator exchanges only source-parity sites: per apply, the
  // two hops each move half a face exchange -> together exactly one full
  // exchange (same bytes as one unpreconditioned apply).
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 86);
  Partitioning part(g, {1, 1, 2, 2});

  PartitionedWilsonClover<double> full(part, u, nullptr, 0.1);
  PartitionedWilsonCloverSchur<double> schur(part, u, nullptr, 0.1);

  WilsonField<double> in = gaussian_wilson_source(g, 87);
  WilsonField<double> out(g);
  full.apply(out, in);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    in.at(s) = WilsonSpinor<double>{};
  }
  schur.apply(out, in);

  EXPECT_EQ(schur.traffic().spinor.total_bytes(),
            full.traffic().spinor.total_bytes());
  // But across twice as many messages (two parity rounds).
  EXPECT_EQ(schur.traffic().spinor.messages,
            2 * full.traffic().spinor.messages);
}

/// Runs the rank grids {1,1,1,1} .. {2,2,1,2} (ranks 1,2,4,8) under both
/// execution modes and both worker counts, asserting bitwise identity —
/// the equivalence guarantee of comm/virtual_cluster.h.
class RankModeDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_rank_mode(RankMode::Threads);
    set_worker_count(1);
  }

  static std::vector<Grid> rank_grids() {
    return {{1, 1, 1, 1}, {1, 1, 1, 2}, {1, 1, 2, 2}, {2, 2, 1, 2}};
  }

  static std::vector<int> worker_counts() {
    const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    if (hw == 1) return {1, 4};  // still exercise the pool on 1-core hosts
    return {1, hw};
  }

  template <typename Site>
  static void expect_bitwise_equal(const LatticeField<Site>& a,
                                   const LatticeField<Site>& b,
                                   const char* what) {
    auto sa = a.sites();
    auto sb = b.sites();
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0) << what;
  }

  template <typename Real>
  static void expect_staggered_apply_bitwise() {
    // Larger lattice: the asqtad stencil reaches 3 sites, so partitioned
    // local extents must stay >= 4.
    const LatticeGeometry g({4, 8, 8, 8});
    const GaugeField<double> u = hot_gauge(g, 93);
    const AsqtadLinks links = build_asqtad_links(u);
    const GaugeField<Real> fat = convert_gauge<Real>(links.fat);
    const GaugeField<Real> lng = convert_gauge<Real>(links.lng);
    const StaggeredField<Real> in =
        convert_field<Real>(gaussian_staggered_source(g, 94));

    const std::vector<Grid> grids{
        {1, 1, 1, 1}, {1, 1, 1, 2}, {1, 1, 2, 2}, {1, 2, 2, 2}};
    for (const Grid& grid : grids) {
      Partitioning part(g, grid);
      PartitionedStaggered<Real> op(part, fat, lng, 0.03);

      set_rank_mode(RankMode::Seq);
      set_worker_count(1);
      StaggeredField<Real> ref(g);
      op.apply(ref, in);

      for (RankMode m : {RankMode::Seq, RankMode::Threads}) {
        for (int w : worker_counts()) {
          set_rank_mode(m);
          set_worker_count(w);
          StaggeredField<Real> got(g);
          op.apply(got, in);
          expect_bitwise_equal(ref, got, "staggered apply");
        }
      }
    }
  }
};

TEST_F(RankModeDeterminismTest, WilsonApplyBitwiseAcrossModesAndWorkers) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 91);
  const CloverField<double> a = build_clover_field(u, 1.2);
  const WilsonField<double> in = gaussian_wilson_source(g, 92);

  for (const Grid& grid : rank_grids()) {
    Partitioning part(g, grid);
    PartitionedWilsonClover<double> op(part, u, &a, -0.15);

    set_rank_mode(RankMode::Seq);
    set_worker_count(1);
    WilsonField<double> ref(g);
    op.apply(ref, in);
    WilsonField<double> ref_hop(g);
    op.apply_hop(ref_hop, in, Parity::Even);

    for (RankMode m : {RankMode::Seq, RankMode::Threads}) {
      for (int w : worker_counts()) {
        set_rank_mode(m);
        set_worker_count(w);
        WilsonField<double> got(g);
        op.apply(got, in);
        expect_bitwise_equal(ref, got, "wilson apply");
        WilsonField<double> got_hop(g);
        op.apply_hop(got_hop, in, Parity::Even);
        expect_bitwise_equal(ref_hop, got_hop, "wilson apply_hop");
      }
    }
  }
}

TEST_F(RankModeDeterminismTest, StaggeredApplyBitwiseAcrossModesAndWorkers) {
  expect_staggered_apply_bitwise<double>();
}

TEST_F(RankModeDeterminismTest,
       StaggeredFloatApplyBitwiseAcrossModesAndWorkers) {
  // The float interior runs the colour-row lane body, the exterior its
  // ghost-leg multiply.
  expect_staggered_apply_bitwise<float>();
}

TEST_F(RankModeDeterminismTest, ThreadsModeReportsOverlapPhases) {
  // In the executed-overlap path every rank samples its post / interior /
  // wait / exterior phases; the efficiency metric must be well-defined.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 95);
  Partitioning part(g, {1, 1, 2, 2});
  PartitionedWilsonClover<double> op(part, u, nullptr, 0.1);
  const WilsonField<double> in = gaussian_wilson_source(g, 96);
  WilsonField<double> out(g);

  set_rank_mode(RankMode::Threads);
  op.reset_overlap();
  op.apply(out, in);
  const OverlapStats& ov = op.overlap();
  EXPECT_EQ(ov.rank_samples, part.num_ranks());
  EXPECT_GT(ov.interior_s, 0.0);
  EXPECT_GE(ov.overlap_efficiency(), 0.0);
  EXPECT_LE(ov.overlap_efficiency(), 1.0);

  // The sequential path does not sample overlap phases.
  set_rank_mode(RankMode::Seq);
  op.reset_overlap();
  op.apply(out, in);
  EXPECT_EQ(op.overlap().rank_samples, 0);
}

TEST_F(RankModeDeterminismTest, ReconApplyBitwiseAcrossModesAndWorkers) {
  // Link reconstruction in the partitioned hot path must keep the virtual
  // cluster's equivalence guarantee: seq == threads, any worker count,
  // bitwise — decompression is pure per-site arithmetic.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 97);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> in = gaussian_wilson_source(g, 98);

  for (const Grid& grid : {Grid{1, 1, 1, 2}, Grid{2, 2, 2, 2}}) {
    Partitioning part(g, grid);
    PartitionedWilsonClover<double> op(part, u, &a, -0.1, /*comms=*/true,
                                       Reconstruct::Twelve);
    ASSERT_EQ(op.recon(), Reconstruct::Twelve);

    set_rank_mode(RankMode::Seq);
    set_worker_count(1);
    WilsonField<double> ref(g);
    op.apply(ref, in);

    for (RankMode m : {RankMode::Seq, RankMode::Threads}) {
      for (int w : worker_counts()) {
        set_rank_mode(m);
        set_worker_count(w);
        WilsonField<double> got(g);
        op.apply(got, in);
        expect_bitwise_equal(ref, got, "recon-12 partitioned apply");
      }
    }
  }
}

TEST(PartitionedRecon, MatchesSingleDomainWithinCodecAccuracy) {
  // Compressed local link body + full ghost links must reproduce the
  // single-domain operator to the codec's round-trip error.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 99);
  const CloverField<double> a = build_clover_field(u, 1.1);
  const double mass = -0.1;
  const WilsonField<double> in = gaussian_wilson_source(g, 100);

  WilsonCloverOperator<double> ref_op(u, &a, mass);
  WilsonField<double> expect(g);
  ref_op.apply(expect, in);

  const struct {
    Reconstruct r;
    double tol;
  } cases[] = {{Reconstruct::Twelve, 1e-22}, {Reconstruct::Eight, 1e-16}};
  for (const auto& c : cases) {
    Partitioning part(g, {1, 1, 2, 2});
    PartitionedWilsonClover<double> par_op(part, u, &a, mass, /*comms=*/true,
                                           c.r);
    WilsonField<double> got(g);
    par_op.apply(got, in);
    axpy(-1.0, expect, got);
    EXPECT_LT(norm2(got), c.tol * norm2(expect)) << to_string(c.r);
  }
}

TEST(Partitioned, GaugeGhostBytesCountedOnce) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 71);
  Partitioning part(g, {1, 1, 1, 2});
  PartitionedWilsonClover<double> op(part, u, nullptr, 0.0);
  const auto gauge_bytes = op.traffic().gauge.total_bytes();
  EXPECT_GT(gauge_bytes, 0u);
  const WilsonField<double> in = gaussian_wilson_source(g, 72);
  WilsonField<double> out(g);
  op.apply(out, in);
  op.apply(out, in);
  EXPECT_EQ(op.traffic().gauge.total_bytes(), gauge_bytes);
}

}  // namespace
}  // namespace lqcd
