// The fused BLAS kernels (fields/blas.h): each must be BITWISE identical
// to the unfused op sequence it replaces — that is the contract that lets
// GcrParams::fused flip freely without changing residual histories — and
// invariant under the worker count, because reductions run on the fixed
// chunk grid rather than the parallel shard grid.  Also covers the sweep
// counter (one pass == one tick) and the tuned copy loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "fields/blas.h"
#include "fields/precision.h"
#include "gauge/configure.h"
#include "obs/metrics.h"
#include "util/parallel_for.h"

namespace lqcd {
namespace {

using Field = WilsonField<double>;

struct FusedBlasTest : public ::testing::Test {
  LatticeGeometry g{{4, 4, 4, 8}};
  Field w = gaussian_wilson_source(g, 201);
  Field y0 = gaussian_wilson_source(g, 202);
  std::vector<Field> basis;
  std::vector<const Field*> ptrs;
  std::vector<std::complex<double>> coeffs;

  void SetUp() override {
    for (int j = 0; j < 5; ++j) {
      basis.push_back(gaussian_wilson_source(g, 210 + j));
      coeffs.emplace_back(0.3 * (j + 1), -0.1 * j);
    }
    for (const Field& f : basis) ptrs.push_back(&f);
  }

  void TearDown() override { set_worker_count(1); }

  static void expect_bitwise_equal(const Field& a, const Field& b) {
    auto sa = a.sites();
    auto sb = b.sites();
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0);
  }
};

TEST_F(FusedBlasTest, BlockCdotMatchesDotLoop) {
  const auto fused = block_cdot(ptrs, w);
  ASSERT_EQ(fused.size(), basis.size());
  for (std::size_t j = 0; j < basis.size(); ++j) {
    const auto single = dot(basis[j], w);
    // Bitwise: same inner products, same fixed-chunk partial order.
    EXPECT_EQ(fused[j].real(), single.real()) << "j=" << j;
    EXPECT_EQ(fused[j].imag(), single.imag()) << "j=" << j;
  }
}

TEST_F(FusedBlasTest, BlockCaxpyMatchesCaxpyLoop) {
  Field fused = y0;
  block_caxpy(coeffs, ptrs, fused);
  Field unfused = y0;
  for (std::size_t j = 0; j < basis.size(); ++j) {
    caxpy(coeffs[j], basis[j], unfused);
  }
  expect_bitwise_equal(fused, unfused);
}

TEST_F(FusedBlasTest, BlockCaxpyNorm2MatchesSequence) {
  Field fused = y0;
  const double n_fused = block_caxpy_norm2(coeffs, ptrs, fused);
  Field unfused = y0;
  for (std::size_t j = 0; j < basis.size(); ++j) {
    caxpy(coeffs[j], basis[j], unfused);
  }
  const double n_unfused = norm2(unfused);
  expect_bitwise_equal(fused, unfused);
  EXPECT_EQ(n_fused, n_unfused);
}

TEST_F(FusedBlasTest, EmptyBasisIsNorm2) {
  Field y = y0;
  const double n = block_caxpy_norm2({}, {}, y);
  expect_bitwise_equal(y, y0);  // no update happened
  EXPECT_EQ(n, norm2(y0));
  EXPECT_TRUE(block_cdot({}, w).empty());
}

TEST_F(FusedBlasTest, CaxpyNorm2MatchesPair) {
  const std::complex<double> a(0.7, -1.3);
  Field fused = y0;
  const double n_fused = caxpy_norm2(a, w, fused);
  Field unfused = y0;
  caxpy(a, w, unfused);
  expect_bitwise_equal(fused, unfused);
  EXPECT_EQ(n_fused, norm2(unfused));
}

TEST_F(FusedBlasTest, ScaleCdotMatchesPair) {
  Field fused = y0;
  const auto d_fused = scale_cdot(0.25, fused, w);
  Field unfused = y0;
  scale(0.25, unfused);
  const auto d_unfused = dot(unfused, w);
  expect_bitwise_equal(fused, unfused);
  EXPECT_EQ(d_fused.real(), d_unfused.real());
  EXPECT_EQ(d_fused.imag(), d_unfused.imag());
}

TEST_F(FusedBlasTest, XmyNorm2MatchesCopyAxpyNorm2) {
  Field fused(g);
  const double n_fused = xmy_norm2(w, y0, fused);
  Field unfused(g);
  copy(unfused, w);
  axpy(-1.0, y0, unfused);
  expect_bitwise_equal(fused, unfused);
  EXPECT_EQ(n_fused, norm2(unfused));
}

TEST_F(FusedBlasTest, CgUpdateNorm2MatchesAxpySequence) {
  // x_j += a_j p_j over three pairs, then y += b w, with |y|^2.
  const std::vector<double> a{0.3, -1.2, 0.7};
  std::vector<Field> x_fused{basis[3], basis[4], y0};
  std::vector<Field> x_unfused = x_fused;
  std::vector<const Field*> ps{ptrs[0], ptrs[1], ptrs[2]};
  std::vector<Field*> xs{&x_fused[0], &x_fused[1], &x_fused[2]};
  Field y_fused = basis[1];
  Counter& sweeps = metric_counter("blas.sweeps");
  const std::uint64_t before = sweeps.value();
  const double n_fused = cg_update_norm2(a, ps, xs, -0.4, w, y_fused);
  EXPECT_EQ(sweeps.value() - before, 1u);

  for (std::size_t j = 0; j < a.size(); ++j) {
    axpy(a[j], *ps[j], x_unfused[j]);
  }
  Field y_unfused = basis[1];
  axpy(-0.4, w, y_unfused);
  const double n_unfused = norm2(y_unfused);
  for (std::size_t j = 0; j < a.size(); ++j) {
    expect_bitwise_equal(x_fused[j], x_unfused[j]);
  }
  expect_bitwise_equal(y_fused, y_unfused);
  EXPECT_EQ(std::memcmp(&n_fused, &n_unfused, sizeof(double)), 0);

  // With no pairs it is axpy + norm2.
  Field y_alone = basis[1];
  const double n_alone = cg_update_norm2<WilsonSpinor<double>>(
      {}, {}, {}, -0.4, w, y_alone);
  expect_bitwise_equal(y_alone, y_unfused);
  EXPECT_EQ(std::memcmp(&n_alone, &n_unfused, sizeof(double)), 0);
}

TEST_F(FusedBlasTest, CgDirectionUpdateMatchesXpayScaleAxpy) {
  // p = r + alpha p, then p_j = alpha_j p_j + zeta_j r.
  const std::vector<double> alphas{0.9, -0.35, 1.7};
  const std::vector<double> zetas{0.6, 1.1, -0.25};
  Field p_fused = y0;
  std::vector<Field> pj_fused{basis[0], basis[2], basis[4]};
  Field p_unfused = p_fused;
  std::vector<Field> pj_unfused = pj_fused;
  std::vector<Field*> pj{&pj_fused[0], &pj_fused[1], &pj_fused[2]};
  Counter& sweeps = metric_counter("blas.sweeps");
  const std::uint64_t before = sweeps.value();
  cg_direction_update(w, 0.45, p_fused, alphas, zetas, pj);
  EXPECT_EQ(sweeps.value() - before, 1u);

  xpay(w, 0.45, p_unfused);
  for (std::size_t j = 0; j < alphas.size(); ++j) {
    scale(alphas[j], pj_unfused[j]);
    axpy(zetas[j], w, pj_unfused[j]);
  }
  expect_bitwise_equal(p_fused, p_unfused);
  for (std::size_t j = 0; j < alphas.size(); ++j) {
    expect_bitwise_equal(pj_fused[j], pj_unfused[j]);
  }
}

TEST(FusedBlasSingle, CgPassesMatchSequenceInFloat) {
  // The float site type: coefficients round to float exactly as the
  // unfused axpy/xpay/scale calls round them.
  using F = StaggeredField<float>;
  const LatticeGeometry g({4, 4, 4, 8});
  const F r = convert_field<float>(gaussian_staggered_source(g, 230));
  const F ap = convert_field<float>(gaussian_staggered_source(g, 231));
  const F p0 = convert_field<float>(gaussian_staggered_source(g, 232));
  const F x0 = convert_field<float>(gaussian_staggered_source(g, 233));
  const F q0 = convert_field<float>(gaussian_staggered_source(g, 234));
  F x_fused = x0, y_fused = r;
  const double n_fused = cg_update_norm2({-0.123456789}, {&p0}, {&x_fused},
                                         0.987654321, ap, y_fused);
  F x_unfused = x0, y_unfused = r;
  axpy(-0.123456789, p0, x_unfused);
  axpy(0.987654321, ap, y_unfused);
  const double n_unfused = norm2(y_unfused);
  EXPECT_EQ(std::memcmp(x_fused.sites().data(), x_unfused.sites().data(),
                        x_fused.sites().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(y_fused.sites().data(), y_unfused.sites().data(),
                        y_fused.sites().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(&n_fused, &n_unfused, sizeof(double)), 0);

  F p_fused = p0, q_fused = q0;
  cg_direction_update(r, 0.31415926, p_fused, {0.2718281828}, {1.41421356},
                      {&q_fused});
  F p_unfused = p0, q_unfused = q0;
  xpay(r, 0.31415926, p_unfused);
  scale(0.2718281828, q_unfused);
  axpy(1.41421356, r, q_unfused);
  EXPECT_EQ(std::memcmp(p_fused.sites().data(), p_unfused.sites().data(),
                        p_fused.sites().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(q_fused.sites().data(), q_unfused.sites().data(),
                        q_fused.sites().size_bytes()),
            0);
}

TEST_F(FusedBlasTest, TunedCopyMatchesSource) {
  Field dst(g);
  copy(dst, w);
  expect_bitwise_equal(dst, w);
}

TEST_F(FusedBlasTest, WorkerCountInvariance) {
  // The fixed reduction grid makes every fused result — fields AND scalars
  // — independent of how many pool workers execute the chunks.
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  set_worker_count(1);
  Field y_ref = y0;
  const double n_ref = block_caxpy_norm2(coeffs, ptrs, y_ref);
  const auto d_ref = block_cdot(ptrs, w);
  Field r_ref(g);
  const double x_ref = xmy_norm2(w, y0, r_ref);
  Field u_ref = y0;
  Field v_ref = basis[0];
  const double c_ref = cg_update_norm2({0.3}, {&w}, {&v_ref}, -0.7, w, u_ref);
  cg_direction_update(w, 0.2, u_ref, {0.8}, {1.3}, {&v_ref});

  set_worker_count(hw);
  Field y_par = y0;
  const double n_par = block_caxpy_norm2(coeffs, ptrs, y_par);
  const auto d_par = block_cdot(ptrs, w);
  Field r_par(g);
  const double x_par = xmy_norm2(w, y0, r_par);
  Field u_par = y0;
  Field v_par = basis[0];
  const double c_par = cg_update_norm2({0.3}, {&w}, {&v_par}, -0.7, w, u_par);
  cg_direction_update(w, 0.2, u_par, {0.8}, {1.3}, {&v_par});

  expect_bitwise_equal(u_ref, u_par);
  expect_bitwise_equal(v_ref, v_par);
  EXPECT_EQ(c_ref, c_par);
  expect_bitwise_equal(y_ref, y_par);
  expect_bitwise_equal(r_ref, r_par);
  EXPECT_EQ(n_ref, n_par);
  EXPECT_EQ(x_ref, x_par);
  ASSERT_EQ(d_ref.size(), d_par.size());
  for (std::size_t j = 0; j < d_ref.size(); ++j) {
    EXPECT_EQ(d_ref[j].real(), d_par[j].real());
    EXPECT_EQ(d_ref[j].imag(), d_par[j].imag());
  }

  // The half-precision store gives the same bits at 1 worker, at 4 or
  // more, and inside a serial region (block and rank tasks), on either
  // parity, whichever thread runs its sites.
  const WilsonField<float> wf = convert_field<float>(w);
  const StaggeredField<float> sf =
      convert_field<float>(gaussian_staggered_source(g, 230));
  for (const Parity p : {Parity::Even, Parity::Odd}) {
    set_worker_count(1);
    WilsonField<float> w_ref = wf;
    StaggeredField<float> s_ref = sf;
    half_roundtrip(w_ref, p);
    half_roundtrip(s_ref, p);

    set_worker_count(std::max(4, hw));
    WilsonField<float> w_pool = wf;
    StaggeredField<float> s_pool = sf;
    half_roundtrip(w_pool, p);
    half_roundtrip(s_pool, p);

    WilsonField<float> w_serial = wf;
    StaggeredField<float> s_serial = sf;
    {
      SerialRegionGuard serial;
      half_roundtrip(w_serial, p);
      half_roundtrip(s_serial, p);
    }
    for (const auto* f : {&w_pool, &w_serial}) {
      EXPECT_EQ(std::memcmp(w_ref.sites().data(), f->sites().data(),
                            w_ref.sites().size_bytes()),
                0);
    }
    for (const auto* f : {&s_pool, &s_serial}) {
      EXPECT_EQ(std::memcmp(s_ref.sites().data(), f->sites().data(),
                            s_ref.sites().size_bytes()),
                0);
    }
    // The store changed the live parity (it is not a no-op on this data).
    EXPECT_NE(std::memcmp(w_ref.sites().data(), wf.sites().data(),
                          wf.sites().size_bytes()),
              0);
  }
}

TEST_F(FusedBlasTest, SweepCounterCountsOnePassPerOp) {
  Counter& sweeps = metric_counter("blas.sweeps");
  Field y = y0;

  std::uint64_t before = sweeps.value();
  const auto ignored = block_cdot(ptrs, w);
  (void)ignored;
  block_caxpy_norm2(coeffs, ptrs, y);
  scale_cdot(0.5, y, w);
  caxpy_norm2({0.1, 0.2}, w, y);
  EXPECT_EQ(sweeps.value() - before, 4u);  // the fused GCR iteration budget

  // The unfused equivalents of the same work: 2k+5 passes at basis size k.
  before = sweeps.value();
  for (const Field* x : ptrs) {
    const auto ignored2 = dot(*x, w);
    (void)ignored2;
  }
  for (std::size_t j = 0; j < basis.size(); ++j) caxpy(coeffs[j], basis[j], y);
  norm2(y);
  scale(0.5, y);
  const auto ignored3 = dot(y, w);
  (void)ignored3;
  caxpy({0.1, 0.2}, w, y);
  norm2(y);
  EXPECT_EQ(sweeps.value() - before, 2 * basis.size() + 5);

  // Empty-basis block_cdot is free: no pass, no tick.
  before = sweeps.value();
  EXPECT_TRUE(block_cdot({}, w).empty());
  EXPECT_EQ(sweeps.value(), before);
}

}  // namespace
}  // namespace lqcd
