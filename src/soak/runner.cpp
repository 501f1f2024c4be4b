#include "soak/runner.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <utility>

#include "dirac/wilson_kernel.h"
#include "fault/fault.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "obs/metrics.h"
#include "perfmodel/stencil.h"
#include "serve/service.h"
#include "soak/checkpoint.h"
#include "tune/tune_cache.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace lqcd::soak {

namespace {

void narrate(const SoakConfig& cfg, const char* fmt, ...) {
  if (!cfg.verbose) return;
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "[soak] ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
}

GaugeField<double> make_gauge(const SoakConfig& cfg) {
  LatticeGeometry g(cfg.dims);
  GaugeField<double> u = hot_gauge(g, cfg.seed);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 3);
  return u;
}

/// Seed-deterministic request wave: wave w, request q, RHS i always draws
/// the same source, so a wave can be regenerated identically for the
/// kill/restore comparison runs.
std::vector<serve::Request> make_wave(const SoakConfig& cfg,
                                      const LatticeGeometry& g,
                                      std::uint64_t wave, int requests,
                                      int rhs_each) {
  std::vector<serve::Request> reqs;
  for (int q = 0; q < requests; ++q) {
    serve::Request r;
    r.mass = cfg.solver.mass;
    r.tol = cfg.solver.tol;
    for (int i = 0; i < rhs_each; ++i) {
      const std::uint64_t source_seed =
          cfg.seed ^ (wave * 1000003u) ^
          (static_cast<std::uint64_t>(q) * 8191u + static_cast<std::uint64_t>(i) + 1u);
      r.rhs.push_back(gaussian_wilson_source(g, source_seed));
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

serve::Config service_config(const SoakConfig& cfg) {
  serve::Config sc;
  sc.max_batch = cfg.max_batch;
  sc.solver = cfg.solver;
  return sc;
}

/// Runs one wave through a fresh service and returns the results in
/// request order.
std::vector<serve::Result> run_wave(const GaugeField<double>& u,
                                    const serve::Config& sc,
                                    std::vector<serve::Request> reqs,
                                    AnomalyDetector* det) {
  serve::SolveService svc(u, nullptr, sc);
  std::vector<std::future<serve::Result>> futs;
  futs.reserve(reqs.size());
  for (auto& r : reqs) futs.push_back(svc.submit(std::move(r)));
  std::vector<serve::Result> results;
  results.reserve(futs.size());
  for (auto& f : futs) {
    if (det != nullptr) {
      det->record_queue_depth(static_cast<double>(svc.queue_depth()));
    }
    results.push_back(f.get());
  }
  return results;
}

bool stats_bitwise_equal(const SolverStats& a, const SolverStats& b) {
  if (a.iterations != b.iterations || a.matvecs != b.matvecs ||
      a.restarts != b.restarts || a.converged != b.converged ||
      a.inner_iterations != b.inner_iterations || a.rollbacks != b.rollbacks ||
      a.rollback_iterations != b.rollback_iterations) {
    return false;
  }
  if (std::memcmp(&a.final_residual, &b.final_residual, sizeof(double)) != 0) {
    return false;
  }
  if (a.residual_history.size() != b.residual_history.size()) return false;
  return a.residual_history.empty() ||
         std::memcmp(a.residual_history.data(), b.residual_history.data(),
                     a.residual_history.size() * sizeof(double)) == 0;
}

template <typename Field>
bool fields_bitwise_equal(const Field& a, const Field& b) {
  return a.sites().size_bytes() == b.sites().size_bytes() &&
         std::memcmp(a.sites().data(), b.sites().data(),
                     a.sites().size_bytes()) == 0;
}

/// One kill/restore cycle: reference run, killed run with capture at
/// `at_round`, persist + reload through the checkpoint container, resumed
/// run, bitwise comparison.  Returns false when the solve converged before
/// the capture round (nothing to verify).
bool kill_restore_cycle(const SoakConfig& cfg, const GaugeField<double>& u,
                        std::uint64_t cycle, std::int64_t at_round,
                        Rng* harness_rng, AnomalyDetector& det,
                        SoakOutcome& out) {
  const LatticeGeometry& g = u.geometry();
  const std::uint64_t wave = 0x5eed0000u + cycle;
  const int nrhs = cfg.rhs_per_request;

  // A single multi-RHS request: the scheduler keeps a request whole, so
  // the killed batch's composition is deterministic by construction.
  auto reference =
      run_wave(u, service_config(cfg), make_wave(cfg, g, wave, 1, nrhs),
               nullptr);

  BlockGcrCheckpoint<WilsonField<float>> captured;
  serve::Config killed_cfg = service_config(cfg);
  killed_cfg.checkpoint.emplace();
  killed_cfg.checkpoint->batch_ordinal = 0;
  killed_cfg.checkpoint->at_round = at_round;
  killed_cfg.checkpoint->kill = true;
  killed_cfg.checkpoint->captured = &captured;
  auto killed =
      run_wave(u, killed_cfg, make_wave(cfg, g, wave, 1, nrhs), nullptr);

  if (!captured.valid()) {
    // The solve finished before round `at_round`; the reference result
    // still counts as completed work, but there is nothing to restore.
    narrate(cfg, "cycle %llu: converged before round %lld, nothing captured",
            static_cast<unsigned long long>(cycle),
            static_cast<long long>(at_round));
    out.solves += static_cast<std::uint64_t>(nrhs);
    return false;
  }
  if (killed.size() != 1 || killed[0].status != serve::Status::Interrupted) {
    det.record({AnomalyKind::CheckpointDivergence, "soak.kill_restore",
                "killed run did not complete typed Interrupted", 0.0, 0.0,
                static_cast<std::int64_t>(cycle)});
    return true;
  }

  // Persist everything the contract names — solver state, the harness's
  // own RNG stream, the tune cache, the metrics registry — then read the
  // file back (checksums and all) and restore from the decoded image.
  CheckpointWriter w;
  {
    ByteWriter solver_payload;
    put_block_gcr_checkpoint(solver_payload, captured);
    w.section("solver/block_gcr", solver_payload.take());
    ByteWriter rng_payload;
    put_rng(rng_payload, harness_rng->state());
    w.section("rng/harness", rng_payload.take());
    ByteWriter tune_payload;
    put_tune_entries(tune_payload, global_tune_cache().entries());
    w.section("tune/cache", tune_payload.take());
    ByteWriter metrics_payload;
    put_metrics(metrics_payload, metrics_snapshot());
    w.section("obs/metrics", metrics_payload.take());
  }
  w.write(cfg.checkpoint_path);
  out.checkpoint_bytes = w.bytes().size();

  CheckpointReader reader = CheckpointReader::open(cfg.checkpoint_path);
  ByteReader solver_r = reader.section("solver/block_gcr");
  BlockGcrCheckpoint<WilsonField<float>> restored =
      get_block_gcr_checkpoint<WilsonField<float>>(solver_r);
  ByteReader rng_r = reader.section("rng/harness");
  harness_rng->set_state(get_rng(rng_r));
  ByteReader tune_r = reader.section("tune/cache");
  global_tune_cache().import_entries(get_tune_entries(tune_r));
  ByteReader metrics_r = reader.section("obs/metrics");
  restore_metrics(get_metrics(metrics_r));

  serve::Config resume_cfg = service_config(cfg);
  resume_cfg.resume = &restored;
  auto resumed =
      run_wave(u, resume_cfg, make_wave(cfg, g, wave, 1, nrhs), nullptr);

  if (resumed.size() != 1 || !resumed[0].ok() || reference.size() != 1 ||
      !reference[0].ok()) {
    det.record({AnomalyKind::CheckpointDivergence, "soak.kill_restore",
                "resumed or reference run did not complete Ok", 0.0, 0.0,
                static_cast<std::int64_t>(cycle)});
    return true;
  }
  for (int i = 0; i < nrhs; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!stats_bitwise_equal(reference[0].stats[idx], resumed[0].stats[idx])) {
      det.record({AnomalyKind::CheckpointDivergence, "soak.kill_restore",
                  "resumed SolverStats deviate from the uninterrupted run",
                  0.0, 0.0, static_cast<std::int64_t>(i)});
    } else if (!fields_bitwise_equal(reference[0].solutions[idx],
                                     resumed[0].solutions[idx])) {
      det.record({AnomalyKind::CheckpointDivergence, "soak.kill_restore",
                  "resumed solution deviates from the uninterrupted run", 0.0,
                  0.0, static_cast<std::int64_t>(i)});
    }
    det.record_residual_history(resumed[0].stats[idx].residual_history);
  }
  out.solves += 2 * static_cast<std::uint64_t>(nrhs);  // reference + resumed
  return true;
}

/// Sustained-Mflops probe for the dslash baseline comparison: times a
/// burst of Wilson hop applications on the soak lattice.  The rate depends
/// on the volume: on a 4-vCPU VM the 4x4x4x8 soak lattice ran at 2.2-3.3
/// GFlops against 9.9 GFlops at 8^4, so it compares against the committed
/// bench baseline (an 8^4 run) only loosely, within the configured
/// tolerance.
double dslash_mflops_probe(const GaugeField<double>& u) {
  const LatticeGeometry& g = u.geometry();
  WilsonField<double> in = gaussian_wilson_source(g, 12345);
  WilsonField<double> out(g);
  const std::shared_ptr<const NeighborTable> nt = shared_local_neighbors(g, 1);
  constexpr int kReps = 10;
  wilson_hop(out, u, in, *nt);  // warm-up (tuning, caches)
  Stopwatch sw;
  for (int i = 0; i < kReps; ++i) wilson_hop(out, u, in, *nt);
  const double s = sw.seconds();
  if (s <= 0.0) return 0.0;
  return kReps * kWilsonDslashFlopsPerSite *
         static_cast<double>(g.volume()) / 1e6 / s;
}

/// Baseline-gating file policy: a baseline file that does not exist is
/// "no baseline yet" — warn (always, not just --verbose: a CI log must
/// show why the gate was skipped) and run no checks, so the soak still
/// passes.  A file that *does* exist gates strictly: a queried metric it
/// cannot answer becomes a BaselineMissing finding inside
/// check_baselines, and malformed JSON still throws out of
/// flatten_json_file (exit 2 in soak_runner).  Previously both the
/// missing-file and missing-metric cases silently passed.
bool baseline_file_present(const std::string& path) {
  if (std::filesystem::exists(path)) return true;
  std::fprintf(stderr,
               "[soak] WARNING: baseline file '%s' not found; skipping its "
               "baseline checks (no baseline is not a regression)\n",
               path.c_str());
  return false;
}

}  // namespace

std::string SoakOutcome::describe() const {
  std::ostringstream os;
  os << "soak " << (passed ? "PASSED" : "FAILED") << ": " << solves
     << " solves across " << waves << " waves, " << cycles_run
     << " kill/restore cycles (" << cycles_verified << " verified, last "
     << "checkpoint " << checkpoint_bytes << " bytes) in " << elapsed_s
     << " s; stream stopped on " << stop_reason << "\n"
     << report.to_string();
  return os.str();
}

SoakOutcome run_soak(const SoakConfig& cfg) {
  Stopwatch total;
  SoakOutcome out;
  AnomalyDetector det(cfg.thresholds);
  Rng harness_rng(cfg.seed ^ 0xa5a5a5a5ull);

  narrate(cfg, "thermalizing %dx%dx%dx%d gauge field (seed %llu)",
          cfg.dims[0], cfg.dims[1], cfg.dims[2], cfg.dims[3],
          static_cast<unsigned long long>(cfg.seed));
  const GaugeField<double> u = make_gauge(cfg);
  const LatticeGeometry& g = u.geometry();

  // Phase 1: chaos-seeded solve stream with declarative stop conditions.
  if (!cfg.faults.empty()) set_fault_plan(parse_fault_spec(cfg.faults));
  const bool unbounded_stream =
      cfg.stop.wall_clock_s <= 0.0 && cfg.stop.max_solves == 0;
  {
    serve::SolveService svc(u, nullptr, service_config(cfg));
    std::uint64_t wave = 0;
    while (out.stop_reason.empty()) {
      auto reqs =
          make_wave(cfg, g, wave, cfg.requests_per_wave, cfg.rhs_per_request);
      std::vector<std::future<serve::Result>> futs;
      futs.reserve(reqs.size());
      for (auto& r : reqs) futs.push_back(svc.submit(std::move(r)));
      for (auto& f : futs) {
        det.record_queue_depth(static_cast<double>(svc.queue_depth()));
        serve::Result res = f.get();
        if (!res.ok()) continue;
        det.record_latency(res.wait_s + res.solve_s);
        for (const SolverStats& s : res.stats) {
          det.record_residual_history(s.residual_history);
          ++out.solves;
        }
      }
      ++out.waves;
      ++wave;
      narrate(cfg, "wave %llu done: %llu solves, %.1f s elapsed",
              static_cast<unsigned long long>(wave),
              static_cast<unsigned long long>(out.solves), total.seconds());
      if (cfg.stop.stop_on_divergence) {
        for (const Anomaly& a : det.report().anomalies) {
          if (a.kind == AnomalyKind::Divergence) {
            out.stop_reason = "divergence";
            break;
          }
        }
      }
      if (out.stop_reason.empty() && cfg.stop.wall_clock_s > 0.0 &&
          total.seconds() >= cfg.stop.wall_clock_s) {
        out.stop_reason = "wall-clock";
      }
      if (out.stop_reason.empty() && cfg.stop.max_solves > 0 &&
          out.solves >= cfg.stop.max_solves) {
        out.stop_reason = "solve-count";
      }
      if (out.stop_reason.empty() && unbounded_stream) {
        out.stop_reason = "single wave (no stop conditions)";
      }
    }
  }
  // Phase 2: kill/restore cycles at seeded-random driver rounds.  The clear
  // is unconditional so an ambient LQCD_FAULTS plan (installed by the env,
  // not --faults) cannot leak into the bitwise comparison — see runner.h on
  // why it is only defined fault-free.
  clear_fault_plan();
  for (int c = 0; c < cfg.kill_restore_cycles; ++c) {
    const auto at_round =
        1 + static_cast<std::int64_t>(harness_rng.uniform(0.0, 4.0));
    narrate(cfg, "kill/restore cycle %d: capture at driver round %lld", c,
            static_cast<long long>(at_round));
    ++out.cycles_run;
    if (kill_restore_cycle(cfg, u, static_cast<std::uint64_t>(c), at_round,
                           &harness_rng, det, out)) {
      ++out.cycles_verified;
    }
  }

  // Phase 3: baseline gating from the run's own metrics.
  if (!cfg.baseline_serve.empty() && baseline_file_present(cfg.baseline_serve)) {
    const MetricsSnapshot m = metrics_snapshot();
    std::vector<BaselineCheck> checks;
    const HistogramSnapshot lat = m.histogram("serve.request.latency_s");
    if (lat.count > 0) {
      checks.push_back(
          {"request_latency_s.p95", lat.percentile(0.95), true});
      checks.push_back(
          {"request_latency_s.p50", lat.percentile(0.50), true});
    }
    const HistogramSnapshot occ = m.histogram("serve.batch.occupancy");
    if (occ.count > 0) {
      checks.push_back({"batch_occupancy_mean", occ.mean(), false});
    }
    det.check_baselines(flatten_json_file(cfg.baseline_serve), checks);
  }
  if (!cfg.baseline_dslash.empty() &&
      baseline_file_present(cfg.baseline_dslash)) {
    det.check_baselines(
        flatten_json_file(cfg.baseline_dslash),
        {{"benchmarks.BM_WilsonHop.Mflops", dslash_mflops_probe(u), false}});
  }

  out.elapsed_s = total.seconds();
  out.report = det.report();
  out.passed = out.report.ok();
  return out;
}

}  // namespace lqcd::soak
