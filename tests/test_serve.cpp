// The batched multi-RHS solve stack (ISSUE 6): bitwise equivalence of the
// multi-RHS dslash kernels and the lockstep block solvers against N
// independent single-RHS runs (in both virtual-cluster rank modes), the
// bounded request queue, and the SolveService end-to-end — coalescing,
// per-request stats isolation, typed deadline expiry, shutdown semantics,
// and transparent batch repair under injected faults.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/virtual_cluster.h"
#include "core/gcr_dd.h"
#include "dirac/even_odd.h"
#include "dirac/multi_rhs.h"
#include "dirac/wilson_kernel.h"
#include "dirac/wilson_ops.h"
#include "fault/fault.h"
#include "fields/blas.h"
#include "fields/compressed_gauge.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "obs/metrics.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "soak/checkpoint.h"
#include "solvers/block_task_schwarz.h"
#include "solvers/gcr.h"
#include "solvers/schwarz.h"

namespace lqcd {
namespace {

GaugeField<double> thermalized(const LatticeGeometry& g, std::uint64_t seed) {
  GaugeField<double> u = hot_gauge(g, seed);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 3);
  return u;
}

template <typename Field>
void expect_bitwise_equal(const Field& a, const Field& b, const char* what) {
  ASSERT_EQ(a.sites().size_bytes(), b.sites().size_bytes());
  EXPECT_EQ(std::memcmp(a.sites().data(), b.sites().data(),
                        a.sites().size_bytes()),
            0)
      << what;
}

void expect_stats_equal(const SolverStats& a, const SolverStats& b,
                        const char* what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.matvecs, b.matvecs) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.inner_iterations, b.inner_iterations) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.final_residual, b.final_residual) << what;
  ASSERT_EQ(a.residual_history.size(), b.residual_history.size()) << what;
  for (std::size_t i = 0; i < a.residual_history.size(); ++i) {
    EXPECT_EQ(a.residual_history[i], b.residual_history[i])
        << what << " iter " << i;
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS kernels: per-RHS bitwise identity to the single-RHS twins.
// ---------------------------------------------------------------------------

/// wilson_hop_multi on \p width sources against wilson_hop on each, on
/// the whole lattice and on each parity target, with the links of \p u
/// (full or 12/8-reconstructed).
template <typename Real, typename Gauge>
void expect_hop_multi_matches_single(const Gauge& u, int width) {
  const LatticeGeometry& g = u.geometry();
  std::vector<WilsonField<Real>> in;
  std::vector<WilsonField<Real>> out_multi;
  for (int r = 0; r < width; ++r) {
    in.push_back(convert_field<Real>(
        gaussian_wilson_source(g, 212u + std::uint64_t(r))));
    out_multi.emplace_back(g);
  }
  std::vector<WilsonField<Real>*> outs;
  std::vector<const WilsonField<Real>*> ins;
  for (int r = 0; r < width; ++r) {
    outs.push_back(&out_multi[std::size_t(r)]);
    ins.push_back(&in[std::size_t(r)]);
  }
  for (auto target : {std::optional<Parity>{}, std::optional<Parity>{
                          Parity::Even}, std::optional<Parity>{Parity::Odd}}) {
    wilson_hop_multi(outs, u, ins, target);
    for (int r = 0; r < width; ++r) {
      WilsonField<Real> ref(g);
      set_zero(ref);
      wilson_hop(ref, u, in[std::size_t(r)], target);
      // Restrict the comparison to the written sites when a parity is
      // targeted (the untargeted complement is unspecified scratch).
      const std::int64_t begin =
          target.has_value() && *target == Parity::Odd ? g.half_volume() : 0;
      const std::int64_t end =
          target.has_value() && *target == Parity::Even ? g.half_volume()
                                                        : g.volume();
      for (std::int64_t s = begin; s < end; ++s) {
        EXPECT_EQ(std::memcmp(&out_multi[std::size_t(r)].at(s), &ref.at(s),
                              sizeof(WilsonSpinor<Real>)),
                  0)
            << "rhs " << r << " site " << s;
      }
    }
  }
}

/// The hop comparison on full 18-real links and on 12- and 8-real
/// reconstructed links (rebuilt per link load, as the single-RHS hop does).
template <typename Real>
void expect_hop_multi_matches_single_all_formats(int width) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<Real> u = convert_gauge<Real>(hot_gauge(g, 211));
  {
    SCOPED_TRACE("recon18");
    expect_hop_multi_matches_single<Real>(u, width);
  }
  for (Reconstruct r : {Reconstruct::Twelve, Reconstruct::Eight}) {
    SCOPED_TRACE(std::string("recon") + to_string(r));
    const CompressedGaugeField<Real> cu(u, r);
    expect_hop_multi_matches_single<Real>(cu, width);
  }
}

TEST(MultiRhs, WilsonHopBitwiseMatchesSingle) {
  // Width 5 is not a power of two: a ragged group.  In float it is one
  // four-lane SIMD group plus a scalar tail.
  {
    SCOPED_TRACE("double");
    expect_hop_multi_matches_single_all_formats<double>(5);
  }
  SCOPED_TRACE("float");
  expect_hop_multi_matches_single_all_formats<float>(5);
}

TEST(MultiRhs, MaskedSchurApplyMultiThrows) {
  // The batched Schwarz runs its cut hops block by block, so a batched
  // apply of a Dirichlet-cut Schur operator is refused.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<float> u = convert_gauge<float>(hot_gauge(g, 221));
  const BlockMask mask(g, {1, 1, 1, 2});
  const WilsonCloverSchurOperator<float> masked(u, nullptr, 0.1, &mask);
  WilsonField<float> in(g), out(g);
  set_zero(in);
  EXPECT_THROW(masked.apply_multi({&out}, {&in}), std::logic_error);
}

TEST(MultiRhs, WilsonSchurApplyMultiBitwiseMatchesSingle) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 231);
  const CloverField<double> a = build_clover_field(u, 1.0);
  WilsonCloverSchurOperator<double> op(u, &a, 0.1);
  constexpr int kN = 4;
  std::vector<WilsonField<double>> in;
  std::vector<WilsonField<double>> out_multi;
  for (int r = 0; r < kN; ++r) {
    in.push_back(gaussian_wilson_source(g, 232u + std::uint64_t(r)));
    out_multi.emplace_back(g);
  }
  std::vector<WilsonField<double>*> outs;
  std::vector<const WilsonField<double>*> ins;
  for (int r = 0; r < kN; ++r) {
    outs.push_back(&out_multi[std::size_t(r)]);
    ins.push_back(&in[std::size_t(r)]);
  }
  op.apply_multi(outs, ins);
  for (int r = 0; r < kN; ++r) {
    WilsonField<double> ref(g);
    op.apply(ref, in[std::size_t(r)]);
    expect_bitwise_equal(out_multi[std::size_t(r)], ref, "wilson schur");
  }
}

// ---------------------------------------------------------------------------
// Block solvers: lockstep recursions match N independent solves exactly.
// ---------------------------------------------------------------------------

TEST(BlockSolvers, BlockGcrBitwiseMatchesGcr) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 251);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const GaugeField<float> u_f = convert_gauge<float>(u);
  const CloverField<float> a_f = convert_clover<float>(a);
  WilsonCloverSchurOperator<float> op(u_f, &a_f, 0.1);

  constexpr int kN = 3;
  std::vector<WilsonField<float>> b;
  for (int r = 0; r < kN; ++r) {
    b.push_back(
        convert_field<float>(gaussian_wilson_source(g, 252u + std::uint64_t(r))));
    // The Schur system lives on the even sites.
    for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
      b[std::size_t(r)].at(s) = WilsonSpinor<float>{};
    }
  }
  // Unpreconditioned single-precision GCR: a modest tolerance it can reach
  // (the preconditioned full stack is tested at 1e-5 below).
  GcrParams gp;
  gp.tol = 1e-4;

  std::vector<WilsonField<float>> x_block;
  std::vector<WilsonField<float>*> xs;
  std::vector<const WilsonField<float>*> bs;
  for (int r = 0; r < kN; ++r) {
    x_block.emplace_back(g);
    set_zero(x_block[std::size_t(r)]);
  }
  for (int r = 0; r < kN; ++r) {
    xs.push_back(&x_block[std::size_t(r)]);
    bs.push_back(&b[std::size_t(r)]);
  }
  const BlockPreconditioner<WilsonField<float>>* no_precond = nullptr;
  const std::vector<SolverStats> block =
      block_gcr_solve(op, xs, bs, no_precond, gp);

  for (int r = 0; r < kN; ++r) {
    WilsonField<float> x(g);
    set_zero(x);
    const SolverStats solo = gcr_solve(op, x, b[std::size_t(r)], nullptr, gp);
    EXPECT_TRUE(solo.converged) << "rhs " << r;
    expect_stats_equal(block[std::size_t(r)], solo, "block gcr stats");
    expect_bitwise_equal(x_block[std::size_t(r)], x, "block gcr solution");
  }

  // Preconditioned: the block-task Schwarz's batched apply against
  // gcr_solve with the masked single-RHS Schwarz, which the driver serves
  // through its per-RHS preconditioner adapter.  Only the batched
  // preconditioner reports its MR steps.
  const BlockMask mask(g, {1, 1, 1, 2});
  WilsonCloverSchurOperator<float> masked(u_f, &a_f, 0.1, &mask);
  const MrParams mr{6, 1.0};
  const std::function<void(WilsonField<float>&)> store =
      [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };
  const BlockTaskSchwarzPreconditioner<float> batched_k(
      u_f, &a_f, 0.1, {1, 1, 1, 2}, mr, store);
  const SchwarzPreconditioner<WilsonField<float>> solo_k(masked, mask, mr,
                                                         store);
  GcrParams pp;
  pp.tol = 1e-5;
  pp.kmax = 8;
  for (int r = 0; r < kN; ++r) set_zero(x_block[std::size_t(r)]);
  const std::vector<SolverStats> pblock =
      block_gcr_solve(op, xs, bs, &batched_k, pp, store);
  for (int r = 0; r < kN; ++r) {
    WilsonField<float> x(g);
    set_zero(x);
    const SolverStats solo =
        gcr_solve(op, x, b[std::size_t(r)], &solo_k, pp, store);
    EXPECT_TRUE(solo.converged) << "rhs " << r;
    EXPECT_EQ(solo.inner_iterations, 0) << "rhs " << r;
    SolverStats batched = pblock[std::size_t(r)];
    EXPECT_GE(batched.inner_iterations, mr.steps * batched.iterations)
        << "rhs " << r;
    batched.inner_iterations = 0;
    expect_stats_equal(batched, solo, "preconditioned block gcr stats");
    expect_bitwise_equal(x_block[std::size_t(r)], x,
                         "preconditioned block gcr solution");
  }
}

TEST(BlockSolvers, BlockGcrDdMatchesSingleAcrossRankModes) {
  // Full stack over the virtual cluster: the batched GCR-DD solver must
  // reproduce GcrDdWilsonSolver per RHS — stats, residual trajectory and
  // the solution fields — in both the sequential reference and the
  // concurrent rank runtime.  Five RHS: the batched Schwarz hops run one
  // four-lane SIMD group plus a scalar tail until the batch narrows.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 271);
  const CloverField<double> a = build_clover_field(u, 1.0);
  constexpr int kN = 5;
  std::vector<WilsonField<double>> b;
  for (int r = 0; r < kN; ++r) {
    b.push_back(gaussian_wilson_source(g, 272u + std::uint64_t(r)));
  }

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 1, 2}};

  for (RankMode mode : {RankMode::Seq, RankMode::Threads}) {
    const RankMode prev = rank_mode();
    set_rank_mode(mode);

    GcrDdWilsonSolver block_solver(u, &a, p);
    std::vector<WilsonField<double>> x_block;
    std::vector<WilsonField<double>*> xs;
    std::vector<const WilsonField<double>*> bs;
    for (int r = 0; r < kN; ++r) x_block.emplace_back(g);
    for (int r = 0; r < kN; ++r) {
      xs.push_back(&x_block[std::size_t(r)]);
      bs.push_back(&b[std::size_t(r)]);
    }
    const std::vector<SolverStats> block = block_solver.solve(xs, bs);

    GcrDdWilsonSolver solo_solver(u, &a, p);
    for (int r = 0; r < kN; ++r) {
      WilsonField<double> x(g);
      const SolverStats solo = solo_solver.solve(x, b[std::size_t(r)]);
      EXPECT_TRUE(solo.converged) << "rhs " << r;
      expect_stats_equal(block[std::size_t(r)], solo, "block gcr-dd stats");
      expect_bitwise_equal(x_block[std::size_t(r)], x, "block gcr-dd solution");
    }
    set_rank_mode(prev);
  }
}

// ---------------------------------------------------------------------------
// BoundedQueue semantics.
// ---------------------------------------------------------------------------

TEST(BoundedQueue, FifoBackpressureAndClose) {
  serve::BoundedQueue<int> q(2, "serve.test.queue.depth");
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.depth(), 2u);

  // A push at capacity blocks until a pop frees a slot.
  std::thread producer([&] {
    int v = 3;
    EXPECT_TRUE(q.push(std::move(v)));
  });
  std::optional<int> first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1);
  producer.join();
  EXPECT_EQ(q.depth(), 2u);

  // close(): queued items drain FIFO, further pushes are rejected.
  q.close();
  int rejected = 9;
  EXPECT_FALSE(q.push(std::move(rejected)));
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CloseUnblocksWaitingConsumer) {
  serve::BoundedQueue<int> q(4, "serve.test.queue2.depth");
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

// ---------------------------------------------------------------------------
// SolveService end-to-end.
// ---------------------------------------------------------------------------

serve::Config small_service_config(int max_batch) {
  serve::Config cfg;
  cfg.max_batch = max_batch;  // skip the tuning probe in tests
  cfg.solver.mass = 0.1;
  cfg.solver.tol = 1e-5;
  cfg.solver.block_grid = {1, 1, 1, 2};
  return cfg;
}

double true_residual(const GaugeField<double>& u, const CloverField<double>* a,
                     double mass, const WilsonField<double>& x,
                     const WilsonField<double>& b) {
  WilsonCloverOperator<double> m(u, a, mass);
  WilsonField<double> r(x.geometry());
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  return std::sqrt(norm2(r) / norm2(b));
}

TEST(SolveService, BatchedRequestMatchesSequentialRequestsBitwise) {
  // The service-level statement of the lockstep contract: a 2-RHS request
  // dispatched as one batch returns exactly the solutions and stats of the
  // same two RHS submitted (and therefore solved) one at a time.  This is
  // also the per-request stats-isolation regression — nothing about a
  // batch-mate (inner iterations, rollbacks) leaks into a request's stats.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 281);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b1 = gaussian_wilson_source(g, 282);
  const WilsonField<double> b2 = gaussian_wilson_source(g, 283);

  serve::SolveService svc(u, &a, small_service_config(4));
  EXPECT_EQ(svc.batch_width(), 4);

  auto submit_one = [&](const WilsonField<double>& b) {
    serve::Request req;
    req.mass = 0.1;
    req.tol = 1e-5;
    req.rhs.push_back(b);
    return svc.submit(std::move(req)).get();
  };
  // Sequential solo requests (each future awaited before the next submit,
  // so each dispatches as a width-1 batch).
  const serve::Result solo1 = submit_one(b1);
  const serve::Result solo2 = submit_one(b2);
  ASSERT_EQ(solo1.status, serve::Status::Ok);
  ASSERT_EQ(solo2.status, serve::Status::Ok);
  ASSERT_EQ(solo1.stats.size(), 1u);
  EXPECT_TRUE(solo1.stats[0].converged);
  EXPECT_TRUE(solo2.stats[0].converged);

  // One 2-RHS request: dispatched whole as a single batch.
  const std::uint64_t batches_before =
      metrics_snapshot().counter("serve.batches");
  serve::Request both;
  both.mass = 0.1;
  both.tol = 1e-5;
  both.rhs.push_back(b1);
  both.rhs.push_back(b2);
  const serve::Result batched = svc.submit(std::move(both)).get();
  ASSERT_EQ(batched.status, serve::Status::Ok);
  ASSERT_EQ(batched.solutions.size(), 2u);
  ASSERT_EQ(batched.stats.size(), 2u);
  EXPECT_EQ(metrics_snapshot().counter("serve.batches"), batches_before + 1);

  expect_stats_equal(batched.stats[0], solo1.stats[0], "request rhs 0");
  expect_stats_equal(batched.stats[1], solo2.stats[0], "request rhs 1");
  expect_bitwise_equal(batched.solutions[0], solo1.solutions[0], "rhs 0");
  expect_bitwise_equal(batched.solutions[1], solo2.solutions[0], "rhs 1");
  EXPECT_LT(true_residual(u, &a, 0.1, batched.solutions[0], b1), 5e-5);
  EXPECT_LT(true_residual(u, &a, 0.1, batched.solutions[1], b2), 5e-5);

  // Identical re-submission reports identical per-solve stats (no
  // cumulative-counter leakage from the earlier solves).
  const serve::Result again = submit_one(b1);
  ASSERT_EQ(again.status, serve::Status::Ok);
  expect_stats_equal(again.stats[0], solo1.stats[0], "repeat request");
}

TEST(SolveService, CoalescesCompatibleRequests) {
  // Stall the dispatcher with a first request, then enqueue several
  // compatible singles: once the dispatcher frees up it must pull them
  // into shared batches — strictly fewer dispatches than requests.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 291);
  const WilsonField<double> b = gaussian_wilson_source(g, 292);

  const std::uint64_t batches_before =
      metrics_snapshot().counter("serve.batches");
  constexpr int kRequests = 6;
  std::vector<std::future<serve::Result>> futs;
  {
    serve::SolveService svc(u, nullptr, small_service_config(4));
    for (int i = 0; i < kRequests; ++i) {
      serve::Request req;
      req.mass = 0.1;
      req.tol = 1e-5;
      req.rhs.push_back(b);
      futs.push_back(svc.submit(std::move(req)));
    }
    // Destructor shuts down after draining every accepted request.
  }
  std::vector<serve::Result> results;
  results.reserve(futs.size());
  for (auto& f : futs) results.push_back(f.get());
  for (const serve::Result& r : results) {
    ASSERT_EQ(r.status, serve::Status::Ok);
    ASSERT_EQ(r.stats.size(), 1u);
    EXPECT_TRUE(r.stats[0].converged);
    // Identical RHS solved lockstep: every request reports the same solve
    // whatever batch it landed in.
    EXPECT_EQ(r.stats[0].iterations, results[0].stats[0].iterations);
    EXPECT_EQ(r.stats[0].final_residual, results[0].stats[0].final_residual);
    EXPECT_EQ(r.stats[0].inner_iterations,
              results[0].stats[0].inner_iterations);
  }
  const std::uint64_t batches =
      metrics_snapshot().counter("serve.batches") - batches_before;
  EXPECT_GE(batches, 2u);  // at least ceil(6 / 4)
  EXPECT_LE(batches, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(metrics_snapshot().histogram("serve.batch.occupancy").count, 0u);
}

TEST(SolveService, DeadlineExpiryIsTyped) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 301);
  serve::SolveService svc(u, nullptr, small_service_config(4));

  const std::uint64_t expired_before =
      metrics_snapshot().counter("serve.deadline_expired");
  serve::Request req;
  req.mass = 0.1;
  req.tol = 1e-5;
  req.rhs.push_back(gaussian_wilson_source(g, 302));
  req.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);  // already expired
  const serve::Result r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status, serve::Status::DeadlineExpired);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_EQ(metrics_snapshot().counter("serve.deadline_expired"),
            expired_before + 1);
}

TEST(SolveService, ShutdownDrainsThenRejects) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 311);
  serve::SolveService svc(u, nullptr, small_service_config(2));

  serve::Request req;
  req.mass = 0.1;
  req.tol = 1e-5;
  req.rhs.push_back(gaussian_wilson_source(g, 312));
  std::future<serve::Result> accepted = svc.submit(std::move(req));
  svc.shutdown();
  // The accepted request completed during the drain.
  EXPECT_EQ(accepted.get().status, serve::Status::Ok);

  serve::Request late;
  late.mass = 0.1;
  late.tol = 1e-5;
  late.rhs.push_back(gaussian_wilson_source(g, 313));
  const serve::Result r = svc.submit(std::move(late)).get();
  EXPECT_EQ(r.status, serve::Status::ShuttingDown);
  EXPECT_FALSE(r.ok());
}

TEST(SolveService, ChaosFaultedBatchRepairsTransparently) {
  // One ghost message is bit-flipped while a 2-RHS batch is in flight over
  // the virtual cluster.  The exchange repairs it, the block solver rolls
  // back exactly the batch in flight, and both requests still converge to
  // tolerance with the rollback recorded in their own stats.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 321);
  const WilsonField<double> b1 = gaussian_wilson_source(g, 322);
  const WilsonField<double> b2 = gaussian_wilson_source(g, 323);

  const RankMode prev = rank_mode();
  set_rank_mode(RankMode::Threads);
  clear_fault_plan();

  serve::Config cfg = small_service_config(4);
  cfg.solver.rank_grid = {{1, 1, 1, 2}};
  cfg.solver.half_krylov = false;
  cfg.solver.half_preconditioner = false;

  const std::uint64_t rollbacks_before =
      metrics_snapshot().counter("solver.rollbacks");
  const std::uint64_t retries_before =
      metrics_snapshot().counter("comm.retries");

  serve::Result r;
  {
    serve::SolveService svc(u, nullptr, cfg);
    // Warm up the solver cache with a fault-free request so the one-shot
    // fault below cannot fire during solver construction; ordinal 40 then
    // lands inside an outer iteration of the batched solve (each per-RHS
    // Schur matvec posts 8 messages on this rank grid, and the initial
    // residuals alone post 16).
    serve::Request warm;
    warm.mass = 0.1;
    warm.tol = 1e-5;
    warm.rhs.push_back(b1);
    ASSERT_EQ(svc.submit(std::move(warm)).get().status, serve::Status::Ok);
    FaultSpec spec;
    spec.seed = 33;
    spec.once[static_cast<int>(FaultKind::BitFlip)] = 40;
    spec.max_retries = 4;
    set_fault_plan(spec);

    serve::Request req;
    req.mass = 0.1;
    req.tol = 1e-5;
    req.rhs.push_back(b1);
    req.rhs.push_back(b2);
    r = svc.submit(std::move(req)).get();
    clear_fault_plan();
  }
  set_rank_mode(prev);

  ASSERT_EQ(r.status, serve::Status::Ok);
  ASSERT_EQ(r.stats.size(), 2u);
  EXPECT_TRUE(r.stats[0].converged);
  EXPECT_TRUE(r.stats[1].converged);
  // The repair fired mid-batch: it was observed as a comm retry and rolled
  // the in-flight batch back.
  EXPECT_GE(metrics_snapshot().counter("comm.retries"), retries_before + 1);
  EXPECT_GE(metrics_snapshot().counter("solver.rollbacks"),
            rollbacks_before + 1);
  EXPECT_GE(r.stats[0].rollbacks + r.stats[1].rollbacks, 1);
  // Transparent repair: both solutions still meet the tolerance.
  EXPECT_LT(true_residual(u, nullptr, 0.1, r.solutions[0], b1), 5e-5);
  EXPECT_LT(true_residual(u, nullptr, 0.1, r.solutions[1], b2), 5e-5);
}

TEST(SolveService, KillRestoreResumesBitwise) {
  // The soak harness's core contract (ISSUE 7): checkpoint a batch
  // mid-solve, drop the service, restore a fresh one from the persisted
  // state, and the resumed requests finish with per-request SolverStats —
  // the residual history included — and solution iterates bitwise
  // identical to an uninterrupted run.  Exercised in both virtual-cluster
  // rank modes with the checkpoint taking the full file round trip.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 331);
  const WilsonField<double> b1 = gaussian_wilson_source(g, 332);
  const WilsonField<double> b2 = gaussian_wilson_source(g, 333);
  clear_fault_plan();  // bitwise comparison is only defined fault-free

  for (RankMode mode : {RankMode::Seq, RankMode::Threads}) {
    const RankMode prev = rank_mode();
    set_rank_mode(mode);
    const char* mode_name = rank_mode_name(mode);

    serve::Config cfg = small_service_config(4);
    cfg.solver.rank_grid = {{1, 1, 1, 2}};
    auto make_request = [&] {
      serve::Request req;
      req.mass = cfg.solver.mass;
      req.tol = cfg.solver.tol;
      req.rhs.push_back(b1);
      req.rhs.push_back(b2);
      return req;
    };

    // Uninterrupted reference run.
    serve::Result reference;
    {
      serve::SolveService svc(u, nullptr, cfg);
      reference = svc.submit(make_request()).get();
    }
    ASSERT_EQ(reference.status, serve::Status::Ok) << mode_name;

    // Killed run: capture at driver round 2, stop, drop the service.
    BlockGcrCheckpoint<WilsonField<float>> captured;
    serve::Result killed;
    {
      serve::Config kill_cfg = cfg;
      kill_cfg.checkpoint.emplace();
      kill_cfg.checkpoint->batch_ordinal = 0;
      kill_cfg.checkpoint->at_round = 2;
      kill_cfg.checkpoint->kill = true;
      kill_cfg.checkpoint->captured = &captured;
      serve::SolveService svc(u, nullptr, kill_cfg);
      killed = svc.submit(make_request()).get();
    }
    ASSERT_TRUE(captured.valid()) << mode_name;
    ASSERT_EQ(killed.status, serve::Status::Interrupted) << mode_name;
    EXPECT_TRUE(killed.solutions.empty()) << mode_name;
    ASSERT_EQ(killed.stats.size(), 2u) << mode_name;
    // The killed run's partial history is a prefix of the reference's.
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& partial = killed.stats[i].residual_history;
      const auto& full = reference.stats[i].residual_history;
      ASSERT_LE(partial.size(), full.size()) << mode_name;
      for (std::size_t k = 0; k < partial.size(); ++k) {
        EXPECT_EQ(partial[k], full[k]) << mode_name << " rhs " << i;
      }
    }

    // Persist through the checkpoint container and read it back, so the
    // restore takes the same path a real process restart would.
    const std::string path =
        std::string("test_serve_kill_restore_") + mode_name + ".ckpt";
    {
      soak::CheckpointWriter w;
      soak::ByteWriter payload;
      soak::put_block_gcr_checkpoint(payload, captured);
      w.section("solver/block_gcr", payload.take());
      w.write(path);
    }
    const soak::CheckpointReader reader = soak::CheckpointReader::open(path);
    soak::ByteReader section = reader.section("solver/block_gcr");
    const BlockGcrCheckpoint<WilsonField<float>> restored =
        soak::get_block_gcr_checkpoint<WilsonField<float>>(section);
    std::remove(path.c_str());

    // Resumed run on a fresh service: must reproduce the reference bitwise.
    serve::Result resumed;
    {
      serve::Config resume_cfg = cfg;
      resume_cfg.resume = &restored;
      serve::SolveService svc(u, nullptr, resume_cfg);
      resumed = svc.submit(make_request()).get();
    }
    ASSERT_EQ(resumed.status, serve::Status::Ok) << mode_name;
    ASSERT_EQ(resumed.stats.size(), 2u) << mode_name;
    for (std::size_t i = 0; i < 2; ++i) {
      expect_stats_equal(reference.stats[i], resumed.stats[i],
                         "kill-restore stats");
      expect_bitwise_equal(reference.solutions[i], resumed.solutions[i],
                           "kill-restore solution");
    }
    set_rank_mode(prev);
  }
}

}  // namespace
}  // namespace lqcd
