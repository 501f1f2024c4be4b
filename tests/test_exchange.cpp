// Ghost-zone exchange: scattered + exchanged fields must reproduce the
// global field's periodic neighbours exactly, and the byte meters must
// match the analytic face sizes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm/domain_map.h"
#include "fields/blas.h"
#include "comm/exchange.h"
#include "gauge/configure.h"

namespace lqcd {
namespace {

struct Case {
  std::array<int, 4> dims;
  std::array<int, 4> grid;
  int max_hop;
};

class ExchangeTest : public ::testing::TestWithParam<Case> {};

TEST_P(ExchangeTest, StaggeredGhostsMatchGlobalNeighbors) {
  const Case c = GetParam();
  Partitioning part(LatticeGeometry(c.dims), c.grid);
  const LatticeGeometry& g = part.global();
  NeighborTable nt(part.local(), part.partitioned_dims(), c.max_hop);
  DomainMap map(part);

  StaggeredField<double> global = gaussian_staggered_source(g, 99);
  std::vector<StaggeredField<double>> locals;
  map.scatter(global, locals);
  std::vector<GhostZones<ColorVector<double>>> ghosts(
      static_cast<std::size_t>(part.num_ranks()),
      GhostZones<ColorVector<double>>(nt));
  ExchangeCounters counters;
  exchange_ghosts<IdentityPacker<ColorVector<double>>>(part, nt, locals,
                                                       ghosts, &counters);

  const std::vector<int> hops = c.max_hop == 3 ? std::vector<int>{1, 3}
                                               : std::vector<int>{1};
  for (int r = 0; r < part.num_ranks(); ++r) {
    for (std::int64_t s = 0; s < part.local().volume(); ++s) {
      const Coord lx = part.local().eo_coords(s);
      const Coord gx = part.global_coord(r, lx);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int d : {+1, -1}) {
          for (int h : hops) {
            const auto ref = nt.neighbor(s, mu, d, h);
            const Coord gn = g.shifted(gx, mu, d * h);
            ColorVector<double> got;
            if (ref.local()) {
              got = locals[static_cast<std::size_t>(r)].at(ref.index);
            } else {
              got = ghosts[static_cast<std::size_t>(r)].at(ref.zone, ref.index);
            }
            const ColorVector<double> expect = global.at(gn);
            ASSERT_LT(norm2(got - expect), 1e-24)
                << "rank " << r << " mu " << mu << " d " << d << " h " << h;
          }
        }
      }
    }
  }

  // Metered bytes match analytic: per rank and partitioned dim,
  // 2 * depth * face_volume * sizeof(site).
  for (int mu = 0; mu < kNDim; ++mu) {
    std::uint64_t expect = 0;
    if (part.partitioned(mu)) {
      expect = 2ull * static_cast<std::uint64_t>(part.num_ranks()) *
               static_cast<std::uint64_t>(nt.ghost_depth()) *
               static_cast<std::uint64_t>(nt.face_volume(mu)) *
               sizeof(ColorVector<double>);
    }
    EXPECT_EQ(counters.bytes_by_dim[static_cast<std::size_t>(mu)], expect);
  }
}

TEST_P(ExchangeTest, WilsonProjectedGhostsMatchProjection) {
  const Case c = GetParam();
  if (c.max_hop != 1) GTEST_SKIP();
  Partitioning part(LatticeGeometry(c.dims), c.grid);
  const LatticeGeometry& g = part.global();
  NeighborTable nt(part.local(), part.partitioned_dims(), 1);
  DomainMap map(part);

  WilsonField<double> global = gaussian_wilson_source(g, 7);
  std::vector<WilsonField<double>> locals;
  map.scatter(global, locals);
  std::vector<GhostZones<HalfSpinor<double>>> ghosts(
      static_cast<std::size_t>(part.num_ranks()),
      GhostZones<HalfSpinor<double>>(nt));
  exchange_ghosts<WilsonProjectPacker<double>>(part, nt, locals, ghosts,
                                               nullptr);

  for (int r = 0; r < part.num_ranks(); ++r) {
    for (std::int64_t s = 0; s < part.local().volume(); ++s) {
      const Coord lx = part.local().eo_coords(s);
      const Coord gx = part.global_coord(r, lx);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int d : {+1, -1}) {
          const auto ref = nt.neighbor(s, mu, d, 1);
          if (ref.local()) continue;
          const Coord gn = g.shifted(gx, mu, d);
          // Forward ghosts carry (1 - gamma) projections, backward (1 +).
          const HalfSpinor<double> expect =
              project(mu, d > 0 ? -1 : +1, global.at(gn));
          const HalfSpinor<double>& got =
              ghosts[static_cast<std::size_t>(r)].at(ref.zone, ref.index);
          for (int a = 0; a < 2; ++a) {
            ASSERT_LT(norm2(got[a] - expect[a]), 1e-24);
          }
        }
      }
    }
  }
}

TEST_P(ExchangeTest, GaugeGhostsMatchGlobalLinks) {
  const Case c = GetParam();
  Partitioning part(LatticeGeometry(c.dims), c.grid);
  const LatticeGeometry& g = part.global();
  NeighborTable nt(part.local(), part.partitioned_dims(), c.max_hop);
  DomainMap map(part);

  const GaugeField<double> global = hot_gauge(g, 5);
  std::vector<GaugeField<double>> locals;
  map.scatter_gauge(global, locals);
  std::vector<GhostZones<Matrix3<double>>> ghosts(
      static_cast<std::size_t>(part.num_ranks()),
      GhostZones<Matrix3<double>>(nt));
  exchange_gauge_ghosts(part, nt, locals, ghosts, nullptr);

  const std::vector<int> hops = c.max_hop == 3 ? std::vector<int>{1, 3}
                                               : std::vector<int>{1};
  for (int r = 0; r < part.num_ranks(); ++r) {
    for (std::int64_t s = 0; s < part.local().volume(); ++s) {
      const Coord lx = part.local().eo_coords(s);
      const Coord gx = part.global_coord(r, lx);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int h : hops) {
          const auto ref = nt.neighbor(s, mu, -1, h);
          if (ref.local()) continue;
          const Coord gn = g.shifted(gx, mu, -h);
          const Matrix3<double>& got =
              ghosts[static_cast<std::size_t>(r)].at(ref.zone, ref.index);
          ASSERT_LT(norm2(got - global.link(mu, g.eo_index(gn))), 1e-24);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ExchangeTest,
    ::testing::Values(Case{{4, 4, 4, 4}, {1, 1, 1, 2}, 1},
                      Case{{4, 4, 4, 4}, {2, 2, 2, 2}, 1},
                      Case{{4, 4, 4, 8}, {1, 2, 1, 2}, 1},
                      Case{{4, 4, 4, 8}, {1, 1, 1, 2}, 3},
                      Case{{4, 4, 8, 8}, {1, 1, 2, 2}, 3},
                      Case{{8, 4, 4, 8}, {2, 1, 1, 2}, 3}));

TEST(DomainMap, ScatterGatherRoundTrip) {
  Partitioning part(LatticeGeometry({4, 4, 4, 8}), {1, 2, 2, 2});
  DomainMap map(part);
  WilsonField<double> global = gaussian_wilson_source(part.global(), 3);
  std::vector<WilsonField<double>> locals;
  map.scatter(global, locals);
  WilsonField<double> back(part.global());
  map.gather(locals, back);
  axpy(-1.0, global, back);
  EXPECT_EQ(norm2(back), 0.0);

  // The per-rank parity copies a partitioned operator's rank task runs: a
  // parity copy-in fills that parity and leaves the other untouched; a
  // parity copy-out writes that parity of the rank's sites, +0 on its
  // other sites, and nothing outside the rank.
  const WilsonField<double> other = gaussian_wilson_source(part.global(), 4);
  const WilsonSpinor<double> zero{};
  for (Parity p : {Parity::Even, Parity::Odd}) {
    for (int r = 0; r < part.num_ranks(); ++r) {
      const auto map_r = map.rank_map(r);
      WilsonField<double> local(part.local());
      map.scatter(r, other, local);
      const WilsonField<double> before = local;
      map.scatter(r, global, local, p);
      for (std::int64_t i = 0; i < part.local().volume(); ++i) {
        const bool in_p = (i < part.local().half_volume()) == (p == Parity::Even);
        const auto& want = in_p ? global.at(map_r[static_cast<std::size_t>(i)])
                                : before.at(i);
        ASSERT_EQ(std::memcmp(&local.at(i), &want, sizeof want), 0)
            << "copy-in rank " << r << " site " << i;
      }

      WilsonField<double> out = other;
      map.gather(r, local, out, p);
      std::vector<bool> mine(static_cast<std::size_t>(out.volume()), false);
      for (std::int64_t i = 0; i < part.local().volume(); ++i) {
        const std::int64_t s = map_r[static_cast<std::size_t>(i)];
        mine[static_cast<std::size_t>(s)] = true;
        const bool in_p = (i < part.local().half_volume()) == (p == Parity::Even);
        const auto& want = in_p ? local.at(i) : zero;
        ASSERT_EQ(std::memcmp(&out.at(s), &want, sizeof want), 0)
            << "copy-out rank " << r << " site " << i;
      }
      for (std::int64_t s = 0; s < out.volume(); ++s) {
        if (mine[static_cast<std::size_t>(s)]) continue;
        ASSERT_EQ(std::memcmp(&out.at(s), &other.at(s), sizeof zero), 0)
            << "copy-out of rank " << r << " wrote site " << s;
      }
    }
  }
}

}  // namespace
}  // namespace lqcd
