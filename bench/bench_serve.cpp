// Throughput harness for the batched solve service (src/serve): drives a
// stream of queued RHS through SolveService and compares against the same
// RHS solved one at a time on a cached single-RHS solver.  Both sides run
// the block-task Schwarz preconditioner; the uplift is the gauge-link and
// clover amortization of the multi-RHS dslash and of the batched Schwarz
// block operator.  Latency percentiles (p50/p95/p99) come from the
// src/obs histograms the service feeds (`serve.request.latency_s`,
// `serve.request.wait_s`, `serve.batch.occupancy`).
//
// Flags:
//   --rhs N       number of queued right-hand sides        (default 64)
//   --batch W     service batch width (Config::max_batch)  (default 8)
//   --lattice "X Y Z T"  lattice extents                   (default 8 8 8 16)
//   --json FILE   also write the results as JSON, with the lattice, block
//                 grid, CPU count, pool workers and build type (CI checks
//                 in the output as BENCH_serve.json)
//   --trace FILE  obs trace (see bench/common.h)

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/gcr_dd.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "util/parallel_for.h"

namespace {

using namespace lqcd;
using namespace lqcd::bench;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Extents as "X x Y x Z x T" without spaces, e.g. "8x8x8x16".
std::string extents(const std::array<int, kNDim>& d) {
  return std::to_string(d[0]) + "x" + std::to_string(d[1]) + "x" +
         std::to_string(d[2]) + "x" + std::to_string(d[3]);
}

struct ServeBenchResult {
  std::array<int, kNDim> lattice{};
  std::array<int, kNDim> block_grid{};
  int rhs = 0;
  int batch_width = 0;
  double seq_s = 0;
  double serve_s = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double wait_p50 = 0, wait_p95 = 0;
  double occupancy_mean = 0;

  double seq_rate() const { return rhs / seq_s; }
  double serve_rate() const { return rhs / serve_s; }
  double uplift() const { return seq_s / serve_s; }
};

void write_json(const ServeBenchResult& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_serve\",\n");
  std::fprintf(f, "  \"lattice\": \"%s\",\n", extents(r.lattice).c_str());
  std::fprintf(f, "  \"block_grid\": \"%s\",\n",
               extents(r.block_grid).c_str());
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"pool_workers\": %d,\n", worker_count());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", LQCD_BUILD_TYPE);
  std::fprintf(f, "  \"rhs\": %d,\n", r.rhs);
  std::fprintf(f, "  \"batch_width\": %d,\n", r.batch_width);
  std::fprintf(f, "  \"sequential_s\": %.6f,\n", r.seq_s);
  std::fprintf(f, "  \"sequential_solves_per_s\": %.4f,\n", r.seq_rate());
  std::fprintf(f, "  \"batched_s\": %.6f,\n", r.serve_s);
  std::fprintf(f, "  \"batched_solves_per_s\": %.4f,\n", r.serve_rate());
  std::fprintf(f, "  \"throughput_uplift\": %.4f,\n", r.uplift());
  std::fprintf(f, "  \"request_latency_s\": "
                  "{\"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f},\n",
               r.p50, r.p95, r.p99);
  std::fprintf(f, "  \"request_wait_s\": {\"p50\": %.6f, \"p95\": %.6f},\n",
               r.wait_p50, r.wait_p95);
  std::fprintf(f, "  \"batch_occupancy_mean\": %.4f\n", r.occupancy_mean);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("results written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  BenchObs obs(argc, argv);
  int nrhs = 64;
  int batch = 8;
  std::array<int, 4> dims{8, 8, 8, 16};
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rhs") == 0 && i + 1 < argc) {
      nrhs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--lattice") == 0 && i + 4 < argc) {
      for (int d = 0; d < 4; ++d) dims[std::size_t(d)] = std::atoi(argv[++i]);
    }
  }

  const LatticeGeometry g(dims);
  std::printf("lattice %d x %d x %d x %d | rhs %d | batch width %d\n",
              dims[0], dims[1], dims[2], dims[3], nrhs, batch);
  const GaugeField<double> u = make_config(g, 5.9, 2, 4711);
  const CloverField<double> clover = build_clover_field(u, 1.0);

  GcrDdParams sp;
  sp.mass = 0.05;
  sp.tol = 1e-5;
  sp.block_grid = {1, 1, 1, 4};

  std::vector<WilsonField<double>> b;
  b.reserve(static_cast<std::size_t>(nrhs));
  for (int i = 0; i < nrhs; ++i) {
    b.push_back(gaussian_wilson_source(g, 4800u + std::uint64_t(i)));
  }

  ServeBenchResult result;
  result.lattice = dims;
  result.block_grid = sp.block_grid;
  result.rhs = nrhs;
  result.batch_width = batch;

  // --- N sequential single-RHS solves on a cached solver (the baseline a
  // service replaces: same params, same warm tune cache, no batching).
  {
    GcrDdWilsonSolver solver(u, &clover, sp);
    WilsonField<double> warm(g);
    solver.solve(warm, b[0]);  // tune + first-touch outside the timing
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < nrhs; ++i) {
      WilsonField<double> x(g);
      const SolverStats stats = solver.solve(x, b[static_cast<std::size_t>(i)]);
      if (!stats.converged) {
        std::fprintf(stderr, "WARNING: sequential rhs %d not converged\n", i);
      }
    }
    result.seq_s = seconds_since(t0);
  }
  std::printf("sequential: %d solves in %.3f s  (%.2f solves/s)\n", nrhs,
              result.seq_s, result.seq_rate());

  // --- The same stream through the batched service.
  {
    serve::Config cfg;
    cfg.queue_capacity = static_cast<std::size_t>(nrhs) + 1;
    cfg.max_batch = batch;
    cfg.solver = sp;
    serve::SolveService svc(u, &clover, cfg);
    {
      // Warm at full width: constructs the cached solver and runs the
      // autotuner over the width-`batch` multi-RHS kernels (and the
      // narrower widths the converging tail passes through) outside the
      // timed region, mirroring the sequential path's warm-up.
      serve::Request warm;
      warm.mass = sp.mass;
      warm.tol = sp.tol;
      for (int i = 0; i < batch; ++i) {
        warm.rhs.push_back(b[static_cast<std::size_t>(i) %
                             b.size()]);
      }
      svc.submit(std::move(warm)).get();
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::Result>> futs;
    futs.reserve(static_cast<std::size_t>(nrhs));
    for (int i = 0; i < nrhs; ++i) {
      serve::Request req;
      req.mass = sp.mass;
      req.tol = sp.tol;
      req.rhs.push_back(b[static_cast<std::size_t>(i)]);
      futs.push_back(svc.submit(std::move(req)));
    }
    for (auto& f : futs) {
      const serve::Result r = f.get();
      if (!r.ok() || !r.stats[0].converged) {
        std::fprintf(stderr, "WARNING: batched request not converged\n");
      }
    }
    result.serve_s = seconds_since(t0);
  }

  const MetricsSnapshot snap = metrics_snapshot();
  const HistogramSnapshot lat = snap.histogram("serve.request.latency_s");
  const HistogramSnapshot wait = snap.histogram("serve.request.wait_s");
  const HistogramSnapshot occ = snap.histogram("serve.batch.occupancy");
  result.p50 = lat.percentile(0.50);
  result.p95 = lat.percentile(0.95);
  result.p99 = lat.percentile(0.99);
  result.wait_p50 = wait.percentile(0.50);
  result.wait_p95 = wait.percentile(0.95);
  result.occupancy_mean = occ.mean();

  std::printf("batched:    %d solves in %.3f s  (%.2f solves/s)\n", nrhs,
              result.serve_s, result.serve_rate());
  std::printf("throughput uplift: %.2fx\n", result.uplift());
  std::printf("request latency  p50 %.3f s | p95 %.3f s | p99 %.3f s\n",
              result.p50, result.p95, result.p99);
  std::printf("request wait     p50 %.3f s | p95 %.3f s\n", result.wait_p50,
              result.wait_p95);
  std::printf("mean batch occupancy: %.2f rhs/dispatch\n",
              result.occupancy_mean);

  if (!json_path.empty()) write_json(result, json_path);
  return 0;
}
