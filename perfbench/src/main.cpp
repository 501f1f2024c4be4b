// End-to-end benchmark of the lattice QCD stack: one process runs one
// workload (set-up, a timed closed-loop phase, the report).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// stdout: a `{"context": ...}` line, then the result as the last line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  stderr: one line per op with its latency, check residual
// and exact work counts.  See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "comm/virtual_cluster.h"
#include "harness.h"
#include "json_out.h"
#include "layers.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "trace_fold.h"
#include "tune/tune_cache.h"
#include "util/parallel_for.h"

extern char** environ;

namespace {

using namespace perfbench;

constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall time covered by the union of all `tune.session` spans.
double tune_session_ms(const std::vector<lqcd::SpanEvent>& events) {
  std::vector<std::pair<double, double>> iv;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "tune.session") == 0) {
      iv.emplace_back(e.begin_us, e.begin_us + e.dur_us);
    }
  }
  return union_length(std::move(iv)) / 1000.0;
}

/// Replaces every tuned site-loop grain (`chunks=N`) in the tune cache by
/// the loop's default grid.  The sweeps ran in set-up, as users pay them,
/// but their winners are chosen by noisy timings and differ from process
/// to process — the dominant run-to-run noise of the solver workloads.
/// With the defaults pinned, the timed phase still looks every key up in
/// the cache (a key the warm-up missed is a miss and fails the run), and
/// the grain is the same in every process.  Results are bitwise identical
/// at any grain.
void pin_default_grains() {
  std::map<lqcd::TuneKey, lqcd::TuneResult> entries =
      lqcd::global_tune_cache().entries();
  for (auto& [key, result] : entries) {
    if (result.param.rfind("chunks=", 0) == 0) {
      result.param =
          "chunks=" + std::to_string(lqcd::default_chunk_count(key.volume));
    }
  }
  lqcd::global_tune_cache().import_entries(entries);
}

/// FNV-1a over the exact work counts of the first \p n ops: equal across
/// runs with the same seed iff every op did the same work.
std::string work_digest(const std::vector<OpRecord>& ops, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < std::min(n, ops.size()); ++i) {
    const OpRecord& r = ops[i];
    mix(static_cast<std::uint64_t>(r.iterations));
    mix(static_cast<std::uint64_t>(r.matvecs));
    mix(static_cast<std::uint64_t>(r.inner));
    mix(static_cast<std::uint64_t>(r.restarts));
    mix(r.wire_bytes);
    mix(r.blas_sweeps);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The per-layer metric names and units (BENCHMARK.json `per_layer`).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"dirac.hop_ms", "ms"},
      {"dirac.interior_ms", "ms"},
      {"dirac.exterior_ms", "ms"},
      {"dirac.serial_ms", "ms"},
      {"dirac.mr_op_ms", "ms"},
      {"dirac.multi_op_ms", "ms"},
      {"dirac.stencil_ms", "ms"},
      {"dirac.matvecs_per_op", "count"},
      {"dirac.flops_per_op", "flop"},
      {"dirac.gflops", "Gflop/s"},
      {"dirac.gauge_bytes_per_op", "B"},
      {"comm.post_ms", "ms"},
      {"comm.wait_ms", "ms"},
      {"comm.overlap_eff", "ratio"},
      {"comm.wire_bytes_per_op", "B"},
      {"comm.messages_per_op", "count"},
      {"comm.retries_per_op", "count"},
      {"comm.ranks_per_core", "ratio"},
      {"solvers.gcr_iters_per_op", "count"},
      {"solvers.mr_steps_per_op", "count"},
      {"solvers.restarts_per_op", "count"},
      {"solvers.schwarz_self_ms", "ms"},
      {"solvers.gcr_self_ms", "ms"},
      {"solvers.block_gcr_self_ms", "ms"},
      {"solvers.cg_stage_ms", "ms"},
      {"solvers.refine_stage_ms", "ms"},
      {"solvers.cg_iters_per_op", "count"},
      {"fields.blas_sweeps_per_op", "count"},
      {"fields.blas_ms", "ms"},
      {"core.prep_ms", "ms"},
      {"serve.wait_ms_p50", "ms"},
      {"serve.solve_ms_p50", "ms"},
      {"serve.occupancy_mean", "count"},
      {"serve.dispatch_busy_frac", "ratio"},
      {"serve.queue_depth_mean", "count"},
      {"tune.sessions_timed", "count"},
      {"tune.setup_ms", "ms"},
      {"gauge.config_s", "s"},
      {"gauge.clover_s", "s"},
      {"gauge.links_s", "s"},
      {"core.solver_build_s", "s"},
      {"trace.op_ms_p50", "ms"},
      {"trace.overhead_pct", "%"},
      {"other_ms", "ms"},
  };
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (lqcd::rank_mode() != lqcd::RankMode::Threads) {
    std::fprintf(stderr, "perfbench: LQCD_RANK_MODE must be threads\n");
    return 2;
  }
  const int nproc = usable_cpus();
  lqcd::set_worker_count(nproc);
  lqcd::set_trace_enabled(false);

  // ---- set-up, repeated from scratch (fresh tune cache every time).
  std::vector<double> setup_s, config_s, clover_s, links_s, build_s;
  double tune_setup_ms = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    lqcd::global_tune_cache().clear();
    const bool last = rep + 1 == kSetupReps;
    if (args.trace && last) {
      lqcd::reset_trace();
      lqcd::set_trace_enabled(true);
    }
    SetupTimes t;
    const auto t0 = std::chrono::steady_clock::now();
    wl->setup(t);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    if (args.trace && last) {
      lqcd::set_trace_enabled(false);
      tune_setup_ms = tune_session_ms(lqcd::trace_events());
      lqcd::reset_trace();
    }
    config_s.push_back(t.config_s);
    clover_s.push_back(t.clover_s);
    links_s.push_back(t.links_s);
    build_s.push_back(t.build_s);
  }

  pin_default_grains();

  // ---- timed phase.
  PhasePlan plan;
  plan.seconds = args.seconds;
  plan.min_ops = min_samples_for(0.75);
  plan.cap_seconds = std::max(3.0 * args.seconds, 120.0);
  plan.trace = args.trace;
  const lqcd::MetricsSnapshot before = lqcd::metrics_snapshot();
  double phase_s = 0;
  std::vector<OpRecord> ops = wl->run_timed(plan, phase_s);
  lqcd::set_trace_enabled(false);
  const lqcd::MetricsSnapshot delta =
      snapshot_delta(before, lqcd::metrics_snapshot());
  const std::uint64_t tune_timed = delta.counter("tune.misses");

  // ---- per-op log (stderr) and the op tallies.
  std::vector<double> ok_ms, traced_ms, untraced_ms;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    std::fprintf(stderr,
                 "op %zu ms %.4f ok %d traced %d residual %.3e margin %.4f "
                 "iters %lld matvecs %lld inner %lld restarts %lld "
                 "wire_bytes %llu blas_sweeps %llu%s%s\n",
                 i, r.ms, r.ok ? 1 : 0, r.traced ? 1 : 0, r.residual,
                 r.solver_margin,
                 static_cast<long long>(r.iterations),
                 static_cast<long long>(r.matvecs),
                 static_cast<long long>(r.inner),
                 static_cast<long long>(r.restarts),
                 static_cast<unsigned long long>(r.wire_bytes),
                 static_cast<unsigned long long>(r.blas_sweeps),
                 r.ok ? "" : " error ", r.error.c_str());
    if (!r.ok) {
      ++failed;
      continue;
    }
    ok_ms.push_back(r.ms);
    (r.traced ? traced_ms : untraced_ms).push_back(r.ms);
  }
  const bool enough = quantile_supported(ok_ms.size(), 0.75);
  const bool correct = failed == 0 && tune_timed == 0 && enough;
  if (tune_timed != 0) {
    std::fprintf(stderr, "perfbench: %llu tuning sessions in the timed phase\n",
                 static_cast<unsigned long long>(tune_timed));
  }
  if (!enough) {
    std::fprintf(stderr, "perfbench: %zu ok ops, p75 needs %zu\n",
                 ok_ms.size(), min_samples_for(0.75));
  }

  // ---- context block.
  JsonObject ctx;
  ctx.str("workload", args.workload);
  ctx.num("seed", static_cast<double>(args.seed));
  ctx.num("nproc", nproc);
  ctx.num("pool_workers", lqcd::worker_count());
  ctx.str("rank_mode", lqcd::rank_mode_name(lqcd::rank_mode()));
  ctx.num("ranks", wl->ranks());
  ctx.num("ranks_per_core", ranks_per_core(wl->ranks()));
  ctx.str("build_type", PERFBENCH_BUILD_TYPE);
  ctx.str("compiler", PERFBENCH_COMPILER);
  ctx.num("simd_bytes", LQCD_SIMD_BYTES);
  ctx.str("tracing", args.trace ? "on" : "off");
  ctx.num("setup_reps", kSetupReps);
  ctx.num("ops", static_cast<double>(ops.size()));
  ctx.num("phase_s", phase_s);
  ctx.str("work_digest", work_digest(ops, plan.min_ops));
  for (const auto& [k, v] : wl->context()) ctx.str(k, v);
  JsonObject env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("LQCD_", 0) != 0) continue;
    const auto eq = kv.find('=');
    env.str(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  ctx.raw("env", env.dump());
  std::printf("{\"context\": %s}\n", ctx.dump().c_str());

  // ---- metrics.
  JsonObject metrics;
  auto put = [&metrics](const std::string& name, double v,
                        const std::string& unit) {
    JsonObject m;
    m.num("value", v);
    m.str("unit", unit);
    metrics.raw(name, m.dump());
  };
  if (!args.trace) {
    put("op_ms_p50", quantile(ok_ms, 0.50), "ms");
    put("op_ms_p75", quantile(ok_ms, 0.75), "ms");
    put("ops_per_s",
        phase_s > 0 ? static_cast<double>(ok_ms.size()) / phase_s : 0.0,
        "1/s");
    put("rss_mb", peak_rss_mb(), "MB");
    put("setup_s", median(setup_s), "s");
  } else {
    TraceInputs in;
    in.events = lqcd::trace_events();
    in.delta = delta;
    in.ops = ops;
    in.phase_s = phase_s;
    MetricMap layer;
    const double n = static_cast<double>(std::max<std::size_t>(1, ops.size()));
    double sweeps = 0, gauge_bytes = 0;
    for (const OpRecord& r : ops) {
      sweeps += static_cast<double>(r.blas_sweeps);
      gauge_bytes += static_cast<double>(r.gauge_bytes);
    }
    layer["dirac.gauge_bytes_per_op"] = {gauge_bytes / n, "B"};
    layer["comm.wire_bytes_per_op"] = {static_cast<double>(wire_bytes(delta)) / n, "B"};
    layer["comm.messages_per_op"] = {
        static_cast<double>(delta.counter("comm.exchange.messages")) / n, "count"};
    layer["comm.retries_per_op"] = {
        static_cast<double>(delta.counter("comm.retries")) / n, "count"};
    layer["fields.blas_sweeps_per_op"] = {sweeps / n, "count"};
    layer["comm.ranks_per_core"] = {ranks_per_core(wl->ranks()), "ratio"};
    layer["tune.sessions_timed"] = {static_cast<double>(tune_timed), "count"};
    layer["tune.setup_ms"] = {tune_setup_ms, "ms"};
    layer["gauge.config_s"] = {median(config_s), "s"};
    layer["gauge.clover_s"] = {median(clover_s), "s"};
    layer["gauge.links_s"] = {median(links_s), "s"};
    layer["core.solver_build_s"] = {median(build_s), "s"};
    const double t50 = median(traced_ms);
    const double u50 = median(untraced_ms);
    layer["trace.op_ms_p50"] = {t50, "ms"};
    layer["trace.overhead_pct"] = {u50 > 0 ? 100.0 * (t50 / u50 - 1.0) : 0.0, "%"};
    wl->layer_metrics(in, layer);
    for (const auto& [name, unit] : layer_metric_units()) {
      auto it = layer.find(name);
      put(name, it == layer.end() ? 0.0 : it->second.value, unit);
    }
  }

  JsonObject result;
  result.raw("correct", correct ? "true" : "false");
  result.num("attempted", static_cast<double>(ops.size()));
  result.num("failed", static_cast<double>(failed));
  result.raw("metrics", metrics.dump());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}
