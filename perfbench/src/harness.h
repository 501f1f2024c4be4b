#pragma once
/// \file harness.h
/// \brief Workload interface and the shared plumbing of the end-to-end
/// benchmark: what one timed op reports, how a timed phase is run, and the
/// per-layer inputs a traced run hands back to its workload.
///
/// A run is: set-up (repeated, the median is `setup_s`), a timed phase of
/// closed-loop ops, then the report.  Every op is checked from outside the
/// library after its timer stops; a failed check counts the op as failed,
/// never as slow.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "trace_fold.h"

namespace perfbench {

/// One timed op (a solve, an apply or a served request).
struct OpRecord {
  double ms = 0;          ///< wall latency (harness timer, check excluded)
  bool ok = false;        ///< passed the outside check
  bool traced = false;    ///< ran with the tracer on (traced runs only)
  std::string error;      ///< why the check failed
  double residual = 0;    ///< checked residual / deviation (workload-defined)
  /// The solver's own final residual over its tolerance (solves only):
  /// `converged` is this <= 1, so the log shows how close each op came.
  double solver_margin = 0;
  // Exact work counts: identical across runs with the same seed.
  std::int64_t iterations = 0;   ///< outer Krylov iterations
  std::int64_t matvecs = 0;      ///< outer operator applications
  std::int64_t inner = 0;        ///< MR steps / inner CG iterations
  std::int64_t restarts = 0;
  std::uint64_t wire_bytes = 0;   ///< ghost bytes on the wire
  std::uint64_t gauge_bytes = 0;  ///< nominal link loads (dslash meters)
  std::uint64_t blas_sweeps = 0;
};

/// Named metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Set-up stage timers (seconds), filled by Workload::setup.
struct SetupTimes {
  double config_s = 0;  ///< gauge configuration generation
  double clover_s = 0;  ///< clover term construction
  double links_s = 0;   ///< asqtad fat/long link construction
  double build_s = 0;   ///< solver/operator construction + warm-up op
};

/// How long the timed phase runs.
struct PhasePlan {
  double seconds = 10;
  /// p75 needs at least 10 samples beyond it (stats.h), hence 40 ops; the
  /// phase runs past `seconds` only until it has them, up to `cap_seconds`.
  std::size_t min_ops = 40;
  double cap_seconds = 30;
  bool trace = false;  ///< traced run: even ops traced, odd ops untraced

  bool done(double elapsed, std::size_t ops) const {
    if (elapsed >= cap_seconds) return true;
    return elapsed >= seconds && ops >= min_ops;
  }
};

/// What a traced run hands to Workload::layer_metrics.
struct TraceInputs {
  std::vector<lqcd::SpanEvent> events;    ///< spans of the timed phase
  lqcd::MetricsSnapshot delta;            ///< registry delta of the phase
  std::vector<OpRecord> ops;              ///< every timed op
  double phase_s = 0;                     ///< wall time of the timed phase
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything from scratch (config, clover/links, solver) and runs
  /// the warm-up op(s) that must hit every tune key of the timed phase.
  virtual void setup(SetupTimes& t) = 0;

  /// Builds op \p index's inputs (untimed; called right before run_op).
  virtual void prepare_op(std::uint64_t /*index*/) {}

  /// Runs op \p index (inputs derived from the seed and the index) and
  /// returns its work counts.  Timed by the harness.
  virtual OpRecord run_op(std::uint64_t index) = 0;

  /// Checks op \p index's outputs from outside; sets rec.ok / rec.error.
  virtual void check_op(std::uint64_t index, OpRecord& rec) = 0;

  /// The timed phase.  The default is the closed single-caller loop: op,
  /// check, next op.  In a traced run the pair (2k, 2k+1) shares input k
  /// and only the first of the pair is traced, so the tracing overhead is
  /// measured on identical work.
  virtual std::vector<OpRecord> run_timed(const PhasePlan& plan,
                                          double& phase_s);

  /// Per-layer metrics of a traced run (the harness adds the common ones).
  virtual void layer_metrics(const TraceInputs& in, MetricMap& out) = 0;

  /// Context entries (lattice, rank grid, wire format, ...).
  virtual std::map<std::string, std::string> context() const = 0;

  /// Virtual ranks of the workload's partitioned operator (1: single rank).
  virtual int ranks() const { return 1; }
};

/// Factory: nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Deterministic per-op input seed: mixes the run seed, the workload salt
/// and the input index (splitmix64), so no two ops share a source.
std::uint64_t input_seed(std::uint64_t run_seed, std::uint64_t salt,
                         std::uint64_t index);

/// b - a for every counter and gauge (histograms: b's, minus a's count/sum).
lqcd::MetricsSnapshot snapshot_delta(const lqcd::MetricsSnapshot& a,
                                     const lqcd::MetricsSnapshot& b);

/// Total ghost bytes on the wire (`comm.exchange.bytes{mu=*}`).
std::uint64_t wire_bytes(const lqcd::MetricsSnapshot& s);

/// Live readers of the counters every op logs (cheap: no snapshot copy).
struct OpMeters {
  OpMeters();
  std::uint64_t wire_bytes() const;
  std::uint64_t gauge_bytes() const;
  std::uint64_t blas_sweeps() const;

 private:
  lqcd::Counter* bytes_[4];
  lqcd::Counter* gauge_[3];
  lqcd::Counter* sweeps_;
};

}  // namespace perfbench
