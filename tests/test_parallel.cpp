// Shared-memory parallel layer: the worker pool, and bitwise determinism
// of the parallelized kernels and reductions regardless of worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "dirac/wilson_kernel.h"
#include "fields/blas.h"
#include "fields/compressed_gauge.h"
#include "fields/precision.h"
#include "gauge/configure.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

/// Restores the worker count after each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_worker_count(1); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 7}) {
    set_worker_count(workers);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(1000, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ParallelTest, EmptyAndTinyRanges) {
  set_worker_count(4);
  int count = 0;
  parallel_for(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> hits{0};
  parallel_for(1, [&](std::int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 1);
}

TEST_F(ParallelTest, ReduceMatchesSerialSum) {
  set_worker_count(1);
  const double serial =
      parallel_reduce<double>(10000, [](std::int64_t i) { return 1.0 / (i + 1); });
  set_worker_count(5);
  const double parallel =
      parallel_reduce<double>(10000, [](std::int64_t i) { return 1.0 / (i + 1); });
  // Fixed chunk grid -> bitwise identical.
  EXPECT_EQ(serial, parallel);
}

TEST_F(ParallelTest, DotBitwiseIndependentOfWorkers) {
  const LatticeGeometry g({4, 4, 4, 8});
  const WilsonField<double> x = gaussian_wilson_source(g, 301);
  const WilsonField<double> y = gaussian_wilson_source(g, 302);
  set_worker_count(1);
  const std::complex<double> d1 = dot(x, y);
  const double n1 = norm2(x);
  set_worker_count(6);
  const std::complex<double> d6 = dot(x, y);
  const double n6 = norm2(x);
  EXPECT_EQ(d1, d6);
  EXPECT_EQ(n1, n6);
}

/// True when wilson_hop of \p in over \p u writes the same bytes on 1
/// worker as on 4.
template <typename Real, typename Gauge>
bool hop_bytes_match_across_workers(const Gauge& u,
                                    const WilsonField<Real>& in) {
  WilsonField<Real> out1(in.geometry()), out4(in.geometry());
  set_worker_count(1);
  wilson_hop(out1, u, in);
  set_worker_count(4);
  wilson_hop(out4, u, in);
  return std::memcmp(out1.sites().data(), out4.sites().data(),
                     out1.sites().size_bytes()) == 0;
}

TEST_F(ParallelTest, DslashBitwiseIndependentOfWorkers) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 303);
  const WilsonField<double> in = gaussian_wilson_source(g, 304);
  WilsonField<double> out1(g), out4(g);
  set_worker_count(1);
  wilson_hop(out1, u, in);
  set_worker_count(4);
  wilson_hop(out4, u, in);
  auto a = out1.sites();
  auto b = out4.sites();
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        ASSERT_EQ(a[i][sp][c], b[i][sp][c]);
      }
    }
  }
  // A float field runs the spin-pair lane body, on the full links and on
  // links rebuilt from reconstruct-12 storage.
  const GaugeField<float> uf = convert_gauge<float>(u);
  const WilsonField<float> inf = convert_field<float>(in);
  EXPECT_TRUE(hop_bytes_match_across_workers(uf, inf));
  EXPECT_TRUE(hop_bytes_match_across_workers(
      CompressedGaugeField<float>(uf, Reconstruct::Twelve), inf));
}

TEST_F(ParallelTest, RepeatedJobsOnSamePool) {
  set_worker_count(3);
  for (int round = 0; round < 50; ++round) {
    const double v = parallel_reduce<double>(
        257, [&](std::int64_t i) { return static_cast<double>(i + round); });
    const double expect = 257.0 * round + 256.0 * 257.0 / 2.0;
    ASSERT_EQ(v, expect);
  }
}

TEST_F(ParallelTest, ConcurrentTopLevelJobsCoverEveryIndex) {
  // Regression (TSan-covered, see the tsan preset): the pool has a single
  // job slot, so two top-level parallel_for calls from different non-pool
  // threads used to publish into it unserialized — torn job state, lost or
  // double-run chunks.  With the run mutex each caller's job must cover
  // its own index set exactly once.
  set_worker_count(4);
  constexpr int kCallers = 4;
  constexpr int kN = 2000;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&hits, t] {
      for (int round = 0; round < kRounds; ++round) {
        parallel_for(kN, [&hits, t](std::int64_t i) {
          hits[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
              .fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) {
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
                    .load(),
                kRounds)
          << "caller " << t << " index " << i;
    }
  }
}

TEST_F(ParallelTest, WorkerCountChurnDuringJobsIsSafe) {
  // Regression (TSan-covered): pool() used to rebuild the Pool whenever the
  // requested worker count changed, even while another thread's run() was
  // in flight — destroying the pool under a live job.  Rebuilds now happen
  // only between jobs, under the same run mutex.
  set_worker_count(3);
  std::atomic<bool> stop{false};
  std::thread churn([&stop] {
    int w = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      set_worker_count(w);
      w = (w % 5) + 2;  // cycle 2..6
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 200; ++round) {
    const double v = parallel_reduce<double>(
        513, [](std::int64_t i) { return static_cast<double>(i); });
    ASSERT_EQ(v, 512.0 * 513.0 / 2.0);
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A parallel_for issued from inside a pool job must take the serial path
  // (the caller holds the run mutex): nested fan-out would self-deadlock.
  set_worker_count(4);
  std::atomic<std::int64_t> total{0};
  parallel_for(64, [&total](std::int64_t) {
    std::int64_t local = 0;
    parallel_for(100, [&local](std::int64_t i) { local += i; });
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 64 * (99 * 100 / 2));
}

TEST_F(ParallelTest, WorkerCountClamped) {
  set_worker_count(0);
  EXPECT_EQ(worker_count(), 1);
  set_worker_count(-5);
  EXPECT_EQ(worker_count(), 1);
  set_worker_count(3);
  EXPECT_EQ(worker_count(), 3);
}

}  // namespace
}  // namespace lqcd
