#include "harness.h"

#include <chrono>

#include "dirac/recon_policy.h"
#include "obs/trace.h"
#include "wl_common.h"

namespace perfbench {

std::vector<OpRecord> Workload::run_timed(const PhasePlan& plan,
                                          double& phase_s) {
  using clock = std::chrono::steady_clock;
  const OpMeters meters;
  std::vector<OpRecord> ops;
  const auto start = clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  for (std::uint64_t i = 0; !plan.done(elapsed(), ops.size()); ++i) {
    const std::uint64_t input = plan.trace ? i / 2 : i;
    const bool traced = plan.trace && i % 2 == 0;
    prepare_op(input);
    lqcd::set_trace_enabled(traced);
    const std::uint64_t bytes0 = meters.wire_bytes();
    const std::uint64_t gauge0 = meters.gauge_bytes();
    const std::uint64_t sweeps0 = meters.blas_sweeps();
    const auto t0 = clock::now();
    OpRecord rec;
    {
      lqcd::ScopedSpan span("bench.op");
      rec = run_op(input);
    }
    rec.ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    lqcd::set_trace_enabled(false);
    rec.traced = traced;
    rec.wire_bytes = meters.wire_bytes() - bytes0;
    rec.gauge_bytes = meters.gauge_bytes() - gauge0;
    rec.blas_sweeps = meters.blas_sweeps() - sweeps0;
    check_op(input, rec);
    ops.push_back(std::move(rec));
  }
  phase_s = elapsed();
  return ops;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "gcrdd-cluster", "dslash-halfwire", "serve-campaign",
      "multishift-asqtad"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "gcrdd-cluster") return make_gcrdd_cluster(seed);
  if (name == "dslash-halfwire") return make_dslash_halfwire(seed);
  if (name == "serve-campaign") return make_serve_campaign(seed);
  if (name == "multishift-asqtad") return make_multishift_asqtad(seed);
  return nullptr;
}

std::uint64_t input_seed(std::uint64_t run_seed, std::uint64_t salt,
                         std::uint64_t index) {
  std::uint64_t z = run_seed * 0x9E3779B97F4A7C15ull + salt * 0xD1B54A32D192ED03ull +
                    index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

lqcd::MetricsSnapshot snapshot_delta(const lqcd::MetricsSnapshot& a,
                                     const lqcd::MetricsSnapshot& b) {
  lqcd::MetricsSnapshot d = b;
  for (auto& [key, v] : d.counters) v -= a.counter(key);
  for (auto& [key, v] : d.gauges) v -= a.gauge(key);
  for (auto& [key, h] : d.histograms) {
    const lqcd::HistogramSnapshot old = a.histogram(key);
    h.count -= old.count;
    h.sum -= old.sum;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] -= old.buckets[i];
    }
  }
  return d;
}

std::uint64_t wire_bytes(const lqcd::MetricsSnapshot& s) {
  std::uint64_t total = 0;
  for (int mu = 0; mu < 4; ++mu) {
    total += s.counter("comm.exchange.bytes{mu=" + std::to_string(mu) + "}");
  }
  return total;
}

OpMeters::OpMeters() : sweeps_(&lqcd::metric_counter("blas.sweeps")) {
  for (int mu = 0; mu < 4; ++mu) {
    bytes_[mu] = &lqcd::metric_counter(
        lqcd::metric_key("comm.exchange.bytes", {{"mu", std::to_string(mu)}}));
  }
  gauge_[0] = &lqcd::gauge_bytes_counter(lqcd::Reconstruct::None);
  gauge_[1] = &lqcd::gauge_bytes_counter(lqcd::Reconstruct::Twelve);
  gauge_[2] = &lqcd::gauge_bytes_counter(lqcd::Reconstruct::Eight);
}

std::uint64_t OpMeters::gauge_bytes() const {
  std::uint64_t total = 0;
  for (const lqcd::Counter* c : gauge_) total += c->value();
  return total;
}

std::uint64_t OpMeters::wire_bytes() const {
  std::uint64_t total = 0;
  for (const lqcd::Counter* c : bytes_) total += c->value();
  return total;
}

std::uint64_t OpMeters::blas_sweeps() const { return sweeps_->value(); }

}  // namespace perfbench
