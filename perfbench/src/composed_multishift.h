#pragma once
/// \file composed_multishift.h
/// \brief The two stages of StaggeredMultishiftSolver::solve, composed
/// from the same public calls (multishift_cg_solve, then one
/// mixed_cg_solve per shift) with timing adapters around every operator.
///
/// The solver emits no spans, so the traced run of multishift-asqtad uses
/// this composition to split the solve into the staggered stencil and the
/// rest (multi-shift and CG BLAS, conversions).  The composition builds
/// its operators exactly as the library does, so its solutions are
/// bitwise equal to the library solve; the benchmark checks that on every
/// traced op.

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "core/staggered_multishift.h"

namespace perfbench {

/// Forwards to \p op and accumulates the wall time of its applies.
template <typename Field>
class TimedOperator final : public lqcd::LinearOperator<Field> {
 public:
  explicit TimedOperator(const lqcd::LinearOperator<Field>& op) : op_(op) {}

  void apply(Field& out, const Field& in) const override {
    const auto t0 = std::chrono::steady_clock::now();
    op_.apply(out, in);
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  }
  const lqcd::LatticeGeometry& geometry() const override {
    return op_.geometry();
  }

  double seconds() const { return seconds_; }

 private:
  const lqcd::LinearOperator<Field>& op_;
  mutable double seconds_ = 0;
};

/// Stage and stencil wall times of one composed solve (seconds).
struct ComposedTimes {
  double cg_stage_s = 0;      ///< the multishift_cg_solve call
  double refine_stage_s = 0;  ///< the mixed_cg_solve calls
  double stencil_s = 0;       ///< operator applies inside both stages
};

class ComposedMultishift {
 public:
  ComposedMultishift(const lqcd::GaugeField<double>& fat,
                     const lqcd::GaugeField<double>& lng,
                     lqcd::StaggeredMultishiftParams params)
      : params_(std::move(params)), fat_d_(fat), lng_d_(lng),
        fat_f_(lqcd::convert_gauge<float>(fat)),
        lng_f_(lqcd::convert_gauge<float>(lng)),
        base_f_(fat_f_, lng_f_, params_.mass, 0.0) {
    for (double s : params_.shifts) {
      ops_d_.push_back(std::make_unique<lqcd::StaggeredSchurOperator<double>>(
          fat_d_, lng_d_, params_.mass, s));
      ops_f_.push_back(std::make_unique<lqcd::StaggeredSchurOperator<float>>(
          fat_f_, lng_f_, params_.mass, s));
    }
  }

  // The operators point into this object's own link copies.
  ComposedMultishift(const ComposedMultishift&) = delete;
  ComposedMultishift& operator=(const ComposedMultishift&) = delete;

  lqcd::StaggeredMultishiftResult solve(const lqcd::StaggeredField<double>& b,
                                        ComposedTimes& t) const {
    using clock = std::chrono::steady_clock;
    lqcd::StaggeredMultishiftResult result;
    const lqcd::LatticeGeometry& geom = b.geometry();

    lqcd::StaggeredField<float> b_f = lqcd::convert_field<float>(b);
    std::vector<lqcd::StaggeredField<float>> xs_f(
        params_.shifts.size(), lqcd::StaggeredField<float>(geom));
    lqcd::MultishiftParams msp;
    msp.tol = params_.tol_single;
    msp.max_iter = params_.max_iter;
    const TimedOperator<lqcd::StaggeredField<float>> base(base_f_);
    auto t0 = clock::now();
    result.multishift = lqcd::multishift_cg_solve(base, xs_f, params_.shifts,
                                                  b_f, msp, &result.shift_stats);
    t.cg_stage_s += std::chrono::duration<double>(clock::now() - t0).count();
    t.stencil_s += base.seconds();

    t0 = clock::now();
    for (std::size_t i = 0; i < params_.shifts.size(); ++i) {
      lqcd::StaggeredField<double> x = lqcd::convert_field<double>(xs_f[i]);
      lqcd::MixedCgParams mp;
      mp.tol = params_.tol_final;
      mp.inner_tol = params_.refine_inner_tol;
      mp.max_outer = params_.refine_max_outer;
      mp.inner_max_iter = params_.max_iter;
      const TimedOperator<lqcd::StaggeredField<double>> hi(*ops_d_[i]);
      const TimedOperator<lqcd::StaggeredField<float>> lo(*ops_f_[i]);
      result.refines.push_back(lqcd::mixed_cg_solve(
          hi, lo, x, b, mp,
          [](const lqcd::StaggeredField<double>& f) {
            return lqcd::convert_field<float>(f);
          },
          [](const lqcd::StaggeredField<float>& f) {
            return lqcd::convert_field<double>(f);
          }));
      t.stencil_s += hi.seconds() + lo.seconds();
      result.solutions.push_back(std::move(x));
    }
    t.refine_stage_s += std::chrono::duration<double>(clock::now() - t0).count();
    return result;
  }

 private:
  lqcd::StaggeredMultishiftParams params_;
  lqcd::GaugeField<double> fat_d_;
  lqcd::GaugeField<double> lng_d_;
  lqcd::GaugeField<float> fat_f_;
  lqcd::GaugeField<float> lng_f_;
  lqcd::StaggeredSchurOperator<float> base_f_;
  std::vector<std::unique_ptr<lqcd::StaggeredSchurOperator<double>>> ops_d_;
  std::vector<std::unique_ptr<lqcd::StaggeredSchurOperator<float>>> ops_f_;
};

/// True when every shift's solution is bytewise identical.
inline bool same_solutions(const lqcd::StaggeredMultishiftResult& a,
                           const lqcd::StaggeredMultishiftResult& b) {
  if (a.solutions.size() != b.solutions.size()) return false;
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    const auto sa = a.solutions[i].sites();
    const auto sb = b.solutions[i].sites();
    if (sa.size_bytes() != sb.size_bytes() ||
        std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
