#pragma once
/// \file wl_common.h
/// \brief Helpers shared by the workloads: the fixed gauge ensembles, the
/// outside-the-library residual checks, and the factory hooks.

#include <array>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <string>

#include "fields/lattice_field.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "harness.h"
#include "solvers/solver_stats.h"

namespace perfbench {

/// A quenched configuration: hot start + heatbath sweeps at \p beta.  The
/// seed is a per-workload constant, so the ensemble is a fixed dataset and
/// the work per op does not depend on the run seed.
inline lqcd::GaugeField<double> quenched_config(const lqcd::LatticeGeometry& g,
                                                double beta, int sweeps,
                                                std::uint64_t seed) {
  lqcd::GaugeField<double> u = lqcd::hot_gauge(g, seed);
  lqcd::HeatbathParams hb;
  hb.beta = beta;
  hb.seed = seed;
  lqcd::thermalize(u, hb, sweeps);
  return u;
}

/// The GCR solvers stop once their iterated residual drops below tol, then
/// recompute the true residual in single precision and report `converged`
/// only if that is <= tol.  Right at the threshold the recomputation's
/// rounding decides: about one solve in three hundred ends at 1.0001 x tol
/// and is reported not converged.  The checks accept up to this factor; a
/// solve cut short by an iteration or restart limit ends far above it.
constexpr double kConvergedSlack = 1.05;

inline bool solver_converged(const lqcd::SolverStats& s, double tol) {
  return s.converged || s.final_residual <= kConvergedSlack * tol;
}

/// "8x8x8x16"-style extents, for the context block.
inline std::string extents(const std::array<int, lqcd::kNDim>& d) {
  std::string s;
  for (int mu = 0; mu < lqcd::kNDim; ++mu) {
    s += (mu > 0 ? "x" : "") + std::to_string(d[static_cast<std::size_t>(mu)]);
  }
  return s;
}

/// Seconds since \p t0.
inline double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

namespace detail {
template <typename Real>
void accumulate(const lqcd::ColorVector<Real>& b,
                const lqcd::ColorVector<Real>& a, double& rr, double& bb) {
  for (int c = 0; c < lqcd::kNColor; ++c) {
    const std::complex<double> bc(b.c[c].real(), b.c[c].imag());
    const std::complex<double> ac(a.c[c].real(), a.c[c].imag());
    rr += std::norm(bc - ac);
    bb += std::norm(bc);
  }
}
template <typename Real>
void accumulate(const lqcd::WilsonSpinor<Real>& b,
                const lqcd::WilsonSpinor<Real>& a, double& rr, double& bb) {
  for (int s = 0; s < lqcd::kNSpin; ++s) accumulate(b.s[s], a.s[s], rr, bb);
}
}  // namespace detail

/// |b - a| / |b| over the sites in [begin, end), accumulated in double by
/// plain loops (no library BLAS: the check must not touch the metered
/// sweep counters or the tuner).
template <typename Site>
double residual_ratio(const lqcd::LatticeField<Site>& b,
                      const lqcd::LatticeField<Site>& a, std::int64_t begin,
                      std::int64_t end) {
  double rr = 0, bb = 0;
  for (std::int64_t s = begin; s < end; ++s) {
    detail::accumulate(b.at(s), a.at(s), rr, bb);
  }
  return bb > 0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

template <typename Site>
double residual_ratio(const lqcd::LatticeField<Site>& b,
                      const lqcd::LatticeField<Site>& a) {
  return residual_ratio(b, a, 0, b.geometry().volume());
}

/// Workload constructors (one translation unit each).
std::unique_ptr<Workload> make_gcrdd_cluster(std::uint64_t seed);
std::unique_ptr<Workload> make_dslash_halfwire(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_campaign(std::uint64_t seed);
std::unique_ptr<Workload> make_multishift_asqtad(std::uint64_t seed);

}  // namespace perfbench
