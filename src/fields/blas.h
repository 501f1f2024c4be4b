#pragma once
/// \file blas.h
/// \brief BLAS-1 style operations on lattice fields, plus the
/// block-restricted reductions required by the additive Schwarz
/// preconditioner.
///
/// All reductions accumulate in double regardless of the field's working
/// precision — single-precision Krylov solvers rely on this (it is also
/// what QUDA does on the GPU via tree reductions).
///
/// Block-restricted variants take a BlockMask; "the reductions required in
/// each of the domain-specific linear solvers are restricted to that domain
/// only" (§8.1), which is what makes the preconditioner communication-free.
///
/// **Sweep accounting.**  Every operation here makes exactly one pass over
/// the lattice index space and adds 1 to the `blas.sweeps` counter — the
/// currency of the fused-kernel arithmetic in DESIGN.md §13.  The fused
/// variants (block_cdot, block_caxpy_norm2, caxpy_norm2, cg_update_norm2,
/// cg_direction_update, scale_cdot, xmy_norm2) replace several passes with
/// one; they are bitwise identical to the sequences they replace because
/// (a) per-site update order matches the unfused op sequence exactly and
/// (b) reductions always run on the fixed default chunk grid with partials
/// combined in chunk order (util/parallel_for.h), never on the autotuner's
/// swept grid.

#include <complex>
#include <vector>

#include "fields/lattice_field.h"
#include "lattice/block_mask.h"
#include "obs/metrics.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"

namespace lqcd {

namespace detail {
/// One lattice-wide pass by a BLAS op (fused ops still count once).
inline void count_blas_sweep() {
  static Counter& sweeps = metric_counter("blas.sweeps");
  sweeps.add();
}
}  // namespace detail

/// y = 0.
template <typename Site>
void set_zero(LatticeField<Site>& y) {
  y.set_zero();
}

/// dst = src (geometries must match).
template <typename Site>
void copy(LatticeField<Site>& dst, const LatticeField<Site>& src) {
  detail::count_blas_sweep();
  auto d = dst.sites();
  auto s = src.sites();
  tuned_site_loop("blas_copy", site_aux<Site>(), d,
                  static_cast<std::int64_t>(d.size()), [&](std::int64_t i) {
                    d[static_cast<std::size_t>(i)] =
                        s[static_cast<std::size_t>(i)];
                  });
}

namespace detail {
/// Real scalar type of a site (float or double).
template <typename Site>
struct site_real;
template <typename Real>
struct site_real<ColorVector<Real>> {
  using type = Real;
};
template <typename Real>
struct site_real<WilsonSpinor<Real>> {
  using type = Real;
};
template <typename Site>
using site_real_t = typename site_real<Site>::type;
}  // namespace detail

/// y += a x.  (Fused BLAS loops run through the autotuner: every candidate
/// re-shards the same per-site arithmetic, so results are bitwise identical
/// regardless of tuning — only the reductions below have ordering
/// sensitivity, and those keep the fixed chunk grid.)
template <typename Site>
void axpy(double a, const LatticeField<Site>& x, LatticeField<Site>& y) {
  detail::count_blas_sweep();
  using Real = detail::site_real_t<Site>;
  const Real ar = static_cast<Real>(a);
  auto xs = x.sites();
  auto ys = y.sites();
  tuned_site_loop("blas_axpy", site_aux<Site>(), ys,
                  static_cast<std::int64_t>(ys.size()), [&](std::int64_t i) {
                    Site t = xs[static_cast<std::size_t>(i)];
                    t *= ar;
                    ys[static_cast<std::size_t>(i)] += t;
                  });
}

/// y = x + a y.
template <typename Site>
void xpay(const LatticeField<Site>& x, double a, LatticeField<Site>& y) {
  detail::count_blas_sweep();
  using Real = detail::site_real_t<Site>;
  const Real ar = static_cast<Real>(a);
  auto xs = x.sites();
  auto ys = y.sites();
  tuned_site_loop("blas_xpay", site_aux<Site>(), ys,
                  static_cast<std::int64_t>(ys.size()), [&](std::int64_t i) {
                    const auto u = static_cast<std::size_t>(i);
                    Site t = ys[u];
                    t *= ar;
                    t += xs[u];
                    ys[u] = t;
                  });
}

/// y = a x + b y.
template <typename Site>
void axpby(double a, const LatticeField<Site>& x, double b,
           LatticeField<Site>& y) {
  detail::count_blas_sweep();
  using Real = detail::site_real_t<Site>;
  const Real ar = static_cast<Real>(a);
  const Real br = static_cast<Real>(b);
  auto xs = x.sites();
  auto ys = y.sites();
  tuned_site_loop("blas_axpby", site_aux<Site>(), ys,
                  static_cast<std::int64_t>(ys.size()), [&](std::int64_t i) {
                    const auto u = static_cast<std::size_t>(i);
                    Site t = xs[u];
                    t *= ar;
                    Site v = ys[u];
                    v *= br;
                    t += v;
                    ys[u] = t;
                  });
}

/// y += a x with complex a.
template <typename Site>
void caxpy(std::complex<double> a, const LatticeField<Site>& x,
           LatticeField<Site>& y) {
  detail::count_blas_sweep();
  using Real = detail::site_real_t<Site>;
  const Cplx<Real> ar(static_cast<Real>(a.real()), static_cast<Real>(a.imag()));
  auto xs = x.sites();
  auto ys = y.sites();
  tuned_site_loop("blas_caxpy", site_aux<Site>(), ys,
                  static_cast<std::int64_t>(ys.size()), [&](std::int64_t i) {
                    const auto u = static_cast<std::size_t>(i);
                    Site t = xs[u];
                    t *= ar;
                    ys[u] += t;
                  });
}

/// x *= a.
template <typename Site>
void scale(double a, LatticeField<Site>& x) {
  detail::count_blas_sweep();
  using Real = detail::site_real_t<Site>;
  const Real ar = static_cast<Real>(a);
  auto xs = x.sites();
  tuned_site_loop("blas_scale", site_aux<Site>(), xs,
                  static_cast<std::int64_t>(xs.size()), [&](std::int64_t i) {
                    xs[static_cast<std::size_t>(i)] *= ar;
                  });
}

/// <x, y> accumulated in double (deterministic fixed-chunk reduction).
template <typename Site>
std::complex<double> dot(const LatticeField<Site>& x,
                         const LatticeField<Site>& y) {
  detail::count_blas_sweep();
  auto xs = x.sites();
  auto ys = y.sites();
  return parallel_reduce<std::complex<double>>(
      static_cast<std::int64_t>(xs.size()), [&](std::int64_t i) {
        const auto v = inner(xs[static_cast<std::size_t>(i)],
                             ys[static_cast<std::size_t>(i)]);
        return std::complex<double>(v.real(), v.imag());
      });
}

/// ||x||^2 accumulated in double (deterministic fixed-chunk reduction).
template <typename Site>
double norm2(const LatticeField<Site>& x) {
  auto xs = x.sites();
  detail::count_blas_sweep();
  return parallel_reduce<double>(
      static_cast<std::int64_t>(xs.size()), [&](std::int64_t i) {
        return static_cast<double>(norm2(xs[static_cast<std::size_t>(i)]));
      });
}

/// Per-Schwarz-block <x, y>; index = block id.
template <typename Site>
std::vector<std::complex<double>> block_dot(const LatticeField<Site>& x,
                                            const LatticeField<Site>& y,
                                            const BlockMask& mask) {
  detail::count_blas_sweep();
  std::vector<std::complex<double>> acc(
      static_cast<std::size_t>(mask.num_blocks()));
  auto xs = x.sites();
  auto ys = y.sites();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto v = inner(xs[i], ys[i]);
    acc[static_cast<std::size_t>(
        mask.block_of_site(static_cast<std::int64_t>(i)))] +=
        std::complex<double>(v.real(), v.imag());
  }
  return acc;
}

/// Per-Schwarz-block ||x||^2.
template <typename Site>
std::vector<double> block_norm2(const LatticeField<Site>& x,
                                const BlockMask& mask) {
  detail::count_blas_sweep();
  std::vector<double> acc(static_cast<std::size_t>(mask.num_blocks()));
  auto xs = x.sites();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc[static_cast<std::size_t>(
        mask.block_of_site(static_cast<std::int64_t>(i)))] +=
        static_cast<double>(norm2(xs[i]));
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Fused multi-pass operations.  Each makes ONE pass over the index space and
// is bitwise identical to the op sequence it replaces (see file comment).
// ---------------------------------------------------------------------------

/// All inner products <x_j, w> for a basis {x_j} in one pass — the
/// classical-Gram-Schmidt projection step of GCR's orthogonalization.
/// Entry j equals dot(*xs[j], w) bitwise: partials live on the same fixed
/// chunk grid and combine in the same chunk order.
template <typename Site>
std::vector<std::complex<double>> block_cdot(
    const std::vector<const LatticeField<Site>*>& xs,
    const LatticeField<Site>& w) {
  const std::size_t k = xs.size();
  std::vector<std::complex<double>> out(k);
  if (k == 0) return out;
  detail::count_blas_sweep();
  auto ws = w.sites();
  const std::int64_t n = static_cast<std::int64_t>(ws.size());
  const int chunks = default_chunk_count(n);
  std::vector<std::complex<double>> partial(k * static_cast<std::size_t>(chunks));
  detail::run_chunked(n, chunks, [&](int c, std::int64_t b, std::int64_t e) {
    // Per basis vector within the chunk: the chunk's sites stay cache-hot,
    // so the DRAM cost is one sweep even though k accumulators advance.
    for (std::size_t j = 0; j < k; ++j) {
      auto zs = xs[j]->sites();
      std::complex<double> acc{};
      for (std::int64_t i = b; i < e; ++i) {
        const auto v = inner(zs[static_cast<std::size_t>(i)],
                             ws[static_cast<std::size_t>(i)]);
        acc += std::complex<double>(v.real(), v.imag());
      }
      partial[j * static_cast<std::size_t>(chunks) +
              static_cast<std::size_t>(c)] = acc;
    }
  });
  for (std::size_t j = 0; j < k; ++j) {
    std::complex<double> total{};
    for (int c = 0; c < chunks; ++c) {
      total += partial[j * static_cast<std::size_t>(chunks) +
                       static_cast<std::size_t>(c)];
    }
    out[j] = total;
  }
  return out;
}

/// y += sum_j a_j x_j in one pass (per site, terms added in j order — the
/// same order as j successive caxpy calls, so the result is bitwise equal).
template <typename Site>
void block_caxpy(const std::vector<std::complex<double>>& a,
                 const std::vector<const LatticeField<Site>*>& xs,
                 LatticeField<Site>& y) {
  using Real = detail::site_real_t<Site>;
  const std::size_t k = xs.size();
  if (k == 0) return;
  detail::count_blas_sweep();
  std::vector<Cplx<Real>> ar(k);
  for (std::size_t j = 0; j < k; ++j) {
    ar[j] = Cplx<Real>(static_cast<Real>(a[j].real()),
                       static_cast<Real>(a[j].imag()));
  }
  auto ys = y.sites();
  tuned_site_loop("blas_block_caxpy_multi", site_aux<Site>(), ys,
                  static_cast<std::int64_t>(ys.size()), [&](std::int64_t i) {
                    const auto u = static_cast<std::size_t>(i);
                    Site acc = ys[u];
                    for (std::size_t j = 0; j < k; ++j) {
                      Site t = xs[j]->sites()[u];
                      t *= ar[j];
                      acc += t;
                    }
                    ys[u] = acc;
                  });
}

/// y += sum_j a_j x_j, returning ||y||^2, in one pass — GCR's CGS update
/// plus the norm that previously cost its own sweep.  With an empty basis
/// this is exactly norm2(y).  Runs on the fixed reduction grid.
template <typename Site>
double block_caxpy_norm2(const std::vector<std::complex<double>>& a,
                         const std::vector<const LatticeField<Site>*>& xs,
                         LatticeField<Site>& y) {
  using Real = detail::site_real_t<Site>;
  const std::size_t k = xs.size();
  detail::count_blas_sweep();
  std::vector<Cplx<Real>> ar(k);
  for (std::size_t j = 0; j < k; ++j) {
    ar[j] = Cplx<Real>(static_cast<Real>(a[j].real()),
                       static_cast<Real>(a[j].imag()));
  }
  auto ys = y.sites();
  const std::int64_t n = static_cast<std::int64_t>(ys.size());
  const int chunks = default_chunk_count(n);
  std::vector<double> partial(static_cast<std::size_t>(chunks));
  detail::run_chunked(n, chunks, [&](int c, std::int64_t b, std::int64_t e) {
    double acc = 0;
    for (std::int64_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(i);
      Site v = ys[u];
      for (std::size_t j = 0; j < k; ++j) {
        Site t = xs[j]->sites()[u];
        t *= ar[j];
        v += t;
      }
      ys[u] = v;
      acc += static_cast<double>(norm2(v));
    }
    partial[static_cast<std::size_t>(c)] = acc;
  });
  double total = 0;
  for (const double p : partial) total += p;
  return total;
}

/// y += a x, returning ||y||^2, in one pass (caxpy + norm2 fused; bitwise
/// equal to the pair).  The residual-update epilogue of a GCR iteration.
template <typename Site>
double caxpy_norm2(std::complex<double> a, const LatticeField<Site>& x,
                   LatticeField<Site>& y) {
  using Real = detail::site_real_t<Site>;
  const Cplx<Real> ar(static_cast<Real>(a.real()), static_cast<Real>(a.imag()));
  detail::count_blas_sweep();
  auto xs = x.sites();
  auto ys = y.sites();
  const std::int64_t n = static_cast<std::int64_t>(ys.size());
  const int chunks = default_chunk_count(n);
  std::vector<double> partial(static_cast<std::size_t>(chunks));
  detail::run_chunked(n, chunks, [&](int c, std::int64_t b, std::int64_t e) {
    double acc = 0;
    for (std::int64_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(i);
      Site t = xs[u];
      t *= ar;
      ys[u] += t;
      acc += static_cast<double>(norm2(ys[u]));
    }
    partial[static_cast<std::size_t>(c)] = acc;
  });
  double total = 0;
  for (const double p : partial) total += p;
  return total;
}

/// x_j += a_j p_j for every j, then y += b w, returning ||y||^2, in one
/// pass — the solution and residual updates of a (multi-shift) CG
/// iteration with the residual norm (axpy per j, axpy, norm2 fused; bitwise
/// equal to the sequence).  Runs on the fixed reduction grid.  Each x_j
/// must be distinct from every other field of the call.
template <typename Site>
double cg_update_norm2(const std::vector<double>& a,
                       const std::vector<const LatticeField<Site>*>& ps,
                       const std::vector<LatticeField<Site>*>& xs, double b,
                       const LatticeField<Site>& w, LatticeField<Site>& y) {
  using Real = detail::site_real_t<Site>;
  const std::size_t k = xs.size();
  detail::count_blas_sweep();
  std::vector<Real> ar(k);
  for (std::size_t j = 0; j < k; ++j) ar[j] = static_cast<Real>(a[j]);
  const Real br = static_cast<Real>(b);
  auto ws = w.sites();
  auto ys = y.sites();
  const std::int64_t n = static_cast<std::int64_t>(ys.size());
  const int chunks = default_chunk_count(n);
  std::vector<double> partial(static_cast<std::size_t>(chunks));
  detail::run_chunked(n, chunks, [&](int c, std::int64_t lo, std::int64_t hi) {
    for (std::size_t j = 0; j < k; ++j) {
      auto pj = ps[j]->sites();
      auto xj = xs[j]->sites();
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto u = static_cast<std::size_t>(i);
        Site t = pj[u];
        t *= ar[j];
        xj[u] += t;
      }
    }
    double acc = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(i);
      Site t = ws[u];
      t *= br;
      ys[u] += t;
      acc += static_cast<double>(norm2(ys[u]));
    }
    partial[static_cast<std::size_t>(c)] = acc;
  });
  double total = 0;
  for (const double p : partial) total += p;
  return total;
}

/// p = r + alpha p, then p_j = alpha_j p_j + zeta_j r for every j, in one
/// pass — the search-direction updates of a (multi-shift) CG iteration
/// (xpay, then scale + axpy per j, fused; bitwise equal to the sequence).
/// Runs untuned on the default grid: the loop writes several fields, which
/// the site-loop tuner's single save/restore span cannot cover.  Each p_j
/// must be distinct from r and p.
template <typename Site>
void cg_direction_update(const LatticeField<Site>& r, double alpha,
                         LatticeField<Site>& p,
                         const std::vector<double>& alphas,
                         const std::vector<double>& zetas,
                         const std::vector<LatticeField<Site>*>& ps) {
  using Real = detail::site_real_t<Site>;
  const std::size_t k = ps.size();
  detail::count_blas_sweep();
  const Real ar = static_cast<Real>(alpha);
  std::vector<Real> alr(k);
  std::vector<Real> zr(k);
  for (std::size_t j = 0; j < k; ++j) {
    alr[j] = static_cast<Real>(alphas[j]);
    zr[j] = static_cast<Real>(zetas[j]);
  }
  auto rs = r.sites();
  auto p0 = p.sites();
  const std::int64_t n = static_cast<std::int64_t>(p0.size());
  detail::run_chunked(n, default_chunk_count(n),
                      [&](int, std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(i);
      Site t = p0[u];
      t *= ar;
      t += rs[u];
      p0[u] = t;
    }
    for (std::size_t j = 0; j < k; ++j) {
      auto pj = ps[j]->sites();
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto u = static_cast<std::size_t>(i);
        pj[u] *= alr[j];
        Site t = rs[u];
        t *= zr[j];
        pj[u] += t;
      }
    }
  });
}

/// x *= a, returning <x, w>, in one pass (scale + dot fused; bitwise equal
/// to the pair) — GCR's basis normalization plus projection on rhat.
template <typename Site>
std::complex<double> scale_cdot(double a, LatticeField<Site>& x,
                                const LatticeField<Site>& w) {
  using Real = detail::site_real_t<Site>;
  const Real ar = static_cast<Real>(a);
  detail::count_blas_sweep();
  auto xs = x.sites();
  auto ws = w.sites();
  const std::int64_t n = static_cast<std::int64_t>(xs.size());
  const int chunks = default_chunk_count(n);
  std::vector<std::complex<double>> partial(static_cast<std::size_t>(chunks));
  detail::run_chunked(n, chunks, [&](int c, std::int64_t b, std::int64_t e) {
    std::complex<double> acc{};
    for (std::int64_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(i);
      xs[u] *= ar;
      const auto v = inner(xs[u], ws[u]);
      acc += std::complex<double>(v.real(), v.imag());
    }
    partial[static_cast<std::size_t>(c)] = acc;
  });
  std::complex<double> total{};
  for (const auto& p : partial) total += p;
  return total;
}

/// out = x - y, returning ||out||^2, in one pass — the residual
/// recomputation r = b - A x (copy + axpy + norm2 fused, bitwise equal:
/// per site the subtraction is (-1)*y + x, matching axpy(-1, ...)).
template <typename Site>
double xmy_norm2(const LatticeField<Site>& x, const LatticeField<Site>& y,
                 LatticeField<Site>& out) {
  using Real = detail::site_real_t<Site>;
  detail::count_blas_sweep();
  auto xs = x.sites();
  auto ys = y.sites();
  auto os = out.sites();
  const std::int64_t n = static_cast<std::int64_t>(os.size());
  const int chunks = default_chunk_count(n);
  std::vector<double> partial(static_cast<std::size_t>(chunks));
  detail::run_chunked(n, chunks, [&](int c, std::int64_t b, std::int64_t e) {
    double acc = 0;
    for (std::int64_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(i);
      Site t = ys[u];
      t *= Real(-1);
      t += xs[u];
      os[u] = t;
      acc += static_cast<double>(norm2(t));
    }
    partial[static_cast<std::size_t>(c)] = acc;
  });
  double total = 0;
  for (const double p : partial) total += p;
  return total;
}

/// y += a_b x on each block b, with block-specific complex coefficients —
/// the update step of the block-local MR iteration.
template <typename Site>
void block_caxpy(const std::vector<std::complex<double>>& a,
                 const LatticeField<Site>& x, LatticeField<Site>& y,
                 const BlockMask& mask) {
  detail::count_blas_sweep();
  using Real = detail::site_real_t<Site>;
  auto xs = x.sites();
  auto ys = y.sites();
  tuned_site_loop(
      "blas_block_caxpy", site_aux<Site>(), ys,
      static_cast<std::int64_t>(ys.size()), [&](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        const auto& ab = a[static_cast<std::size_t>(mask.block_of_site(i))];
        Site t = xs[u];
        t *= Cplx<Real>(static_cast<Real>(ab.real()),
                        static_cast<Real>(ab.imag()));
        ys[u] += t;
      });
}

}  // namespace lqcd
