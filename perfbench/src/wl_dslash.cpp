// dslash-halfwire: PartitionedWilsonCloverSchur<float> on 16^3 x 16 with
// rank grid {1,1,2,2} and the compressed ghost wire (LQCD_GHOST_PREC=half,
// LQCD_GHOST_RECON=min: 27-byte unit-form face sites).  One op = one Schur
// apply, cycling through a fixed set of seeded sources.

#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "comm/wire.h"
#include "dirac/partitioned_schur.h"
#include "fields/precision.h"
#include "gauge/clover_leaf.h"
#include "layers.h"
#include "perfmodel/stencil.h"
#include "wl_common.h"

namespace perfbench {
namespace {

using namespace lqcd;

constexpr std::array<int, kNDim> kDims{16, 16, 16, 16};
constexpr std::array<int, kNDim> kGrid{1, 1, 2, 2};
/// A fixed hot (beta = 0) configuration: the stencil's cost does not depend
/// on the link values, and a heatbath on 16^4 would triple the set-up.
constexpr std::uint64_t kEnsembleSeed = 5902;
constexpr double kCsw = 1.0;
constexpr double kMass = -0.2;
constexpr std::uint64_t kSalt = 22;
constexpr int kSources = 4;
/// The unit-form half wire's operator-level bound against the lossless
/// wire (tests/test_ghost_wire.cpp, PartitionedWilsonUnderUnitRecon).
constexpr double kHalfWireBound = 1e-3;

/// Sets (or, for nullptr, clears) LQCD_GHOST_PREC and LQCD_GHOST_RECON for
/// the current scope, re-reading the wire policies on entry and exit.
class ScopedWireEnv {
 public:
  ScopedWireEnv(const char* prec, const char* recon)
      : prec_(save("LQCD_GHOST_PREC")), recon_(save("LQCD_GHOST_RECON")) {
    apply("LQCD_GHOST_PREC", prec);
    apply("LQCD_GHOST_RECON", recon);
  }
  ~ScopedWireEnv() {
    apply("LQCD_GHOST_PREC", prec_ ? prec_->c_str() : nullptr);
    apply("LQCD_GHOST_RECON", recon_ ? recon_->c_str() : nullptr);
  }
  ScopedWireEnv(const ScopedWireEnv&) = delete;
  ScopedWireEnv& operator=(const ScopedWireEnv&) = delete;

 private:
  static std::optional<std::string> save(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::optional<std::string>(v) : std::nullopt;
  }
  static void apply(const char* name, const char* value) {
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
    init_ghost_prec_from_env();
    init_ghost_recon_from_env();
  }

  std::optional<std::string> prec_;
  std::optional<std::string> recon_;
};

class DslashHalfWire final : public Workload {
 public:
  explicit DslashHalfWire(std::uint64_t seed) : seed_(seed), geom_(kDims) {}

  void setup(SetupTimes& t) override {
    op_.reset();
    native_.reset();
    u_.reset();
    clover_.reset();
    auto t0 = std::chrono::steady_clock::now();
    const GaugeField<double> u = hot_gauge(geom_, kEnsembleSeed);
    t.config_s = since(t0);
    t0 = std::chrono::steady_clock::now();
    const CloverField<double> clover = build_clover_field(u, kCsw);
    t.clover_s = since(t0);
    t0 = std::chrono::steady_clock::now();
    u_ = std::make_unique<GaugeField<float>>(convert_gauge<float>(u));
    clover_ = std::make_unique<CloverField<float>>(convert_clover<float>(clover));
    const Partitioning part(geom_, kGrid);
    wire_ = default_wire_format<HalfSpinor<float>>();
    if (wire_ != WireFormat(Precision::Half, WireRecon::Unit)) {
      throw std::runtime_error("dslash-halfwire needs LQCD_GHOST_PREC=half "
                               "and LQCD_GHOST_RECON=min, got wire " +
                               to_string(wire_));
    }
    op_ = std::make_unique<PartitionedWilsonCloverSchur<float>>(
        part, *u_, clover_.get(), kMass);
    {
      const ScopedWireEnv lossless(nullptr, nullptr);
      native_ = std::make_unique<PartitionedWilsonCloverSchur<float>>(
          part, *u_, clover_.get(), kMass);
    }
    // The rotating sources, their first half-wire images (the bytewise
    // reference of every later apply) and the native-wire deviation.
    src_.clear();
    first_.clear();
    deviation_.clear();
    WilsonField<float> native_out(geom_);
    for (int k = 0; k < kSources; ++k) {
      WilsonField<float> s =
          convert_field<float>(gaussian_wilson_source(
              geom_, input_seed(seed_, kSalt, std::uint64_t(k))));
      for (std::int64_t i = geom_.half_volume(); i < geom_.volume(); ++i) {
        s.at(i) = WilsonSpinor<float>{};
      }
      WilsonField<float> out(geom_);
      op_->apply(out, s);
      native_->apply(native_out, s);
      deviation_.push_back(
          residual_ratio(native_out, out, 0, geom_.half_volume()));
      if (deviation_.back() > kHalfWireBound) {
        throw std::runtime_error("half wire deviates beyond its bound");
      }
      src_.push_back(std::move(s));
      first_.push_back(std::move(out));
    }
    out_ = std::make_unique<WilsonField<float>>(geom_);
    OpRecord warm = run_op(0);
    check_op(0, warm);
    if (!warm.ok) throw std::runtime_error("warm-up apply failed: " + warm.error);
    t.build_s = since(t0);
  }

  OpRecord run_op(std::uint64_t index) override {
    op_->apply(*out_, src_[index % kSources]);
    OpRecord rec;
    rec.matvecs = 1;
    return rec;
  }

  void check_op(std::uint64_t index, OpRecord& rec) override {
    const std::size_t k = index % kSources;
    const auto& want = first_[k];
    const bool same =
        std::memcmp(out_->sites().data(), want.sites().data(),
                    want.sites().size_bytes()) == 0;
    rec.residual = deviation_[k];
    rec.ok = same && deviation_[k] <= kHalfWireBound;
    if (!same) rec.error = "apply not bitwise repeatable";
  }

  void layer_metrics(const TraceInputs& in, MetricMap& out) override {
    const CallerBudget b = caller_budget(in.events, ranks());
    const double n = b.ops > 0 ? b.ops : 1;
    const double op_ms = b.op_us / n / 1000.0;
    const double serial_us = b.caller.self("bench.op");
    out["dirac.hop_ms"] = {b.hop_max_us / n / 1000.0, "ms"};
    out["dirac.interior_ms"] = {b.phases.interior_us / n / 1000.0, "ms"};
    out["dirac.exterior_ms"] = {b.phases.exterior_us / n / 1000.0, "ms"};
    out["dirac.serial_ms"] = {serial_us / n / 1000.0, "ms"};
    out["comm.post_ms"] = {b.phases.post_us / n / 1000.0, "ms"};
    out["comm.wait_ms"] = {b.phases.wait_us / n / 1000.0, "ms"};
    out["comm.overlap_eff"] = {overlap_efficiency(in.delta), "ratio"};
    out["dirac.matvecs_per_op"] = {1.0, "count"};
    const double flops = static_cast<double>(geom_.volume()) *
                         dslash_flops_per_site(StencilKind::WilsonClover);
    out["dirac.flops_per_op"] = {flops, "flop"};
    out["dirac.gflops"] = {op_ms > 0 ? flops / (op_ms * 1e6) : 0.0, "Gflop/s"};
    out["other_ms"] = {(b.op_us - b.hop_max_us - serial_us) / n / 1000.0, "ms"};
  }

  std::map<std::string, std::string> context() const override {
    return {{"lattice", extents(kDims)},
            {"rank_grid", extents(kGrid)},
            {"wire_format", to_string(wire_)},
            {"gauge_ghost_recon", to_string(ghost_recon_setting().gauge)},
            {"precision", "single"},
            {"sources", std::to_string(kSources)}};
  }

  int ranks() const override { return kGrid[2] * kGrid[3]; }

 private:
  std::uint64_t seed_;
  LatticeGeometry geom_;
  WireFormat wire_{Precision::Single};
  std::unique_ptr<GaugeField<float>> u_;
  std::unique_ptr<CloverField<float>> clover_;
  std::unique_ptr<PartitionedWilsonCloverSchur<float>> op_;
  std::unique_ptr<PartitionedWilsonCloverSchur<float>> native_;
  std::vector<WilsonField<float>> src_;
  std::vector<WilsonField<float>> first_;
  std::vector<double> deviation_;
  std::unique_ptr<WilsonField<float>> out_;
};

}  // namespace

std::unique_ptr<Workload> make_dslash_halfwire(std::uint64_t seed) {
  return std::make_unique<DslashHalfWire>(seed);
}

}  // namespace perfbench
