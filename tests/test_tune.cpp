// Tests for the autotuning subsystem (src/tune): cache persistence and
// version gating, driver candidate selection with an injected clock, the
// LQCD_TUNE kill switch, the policy-class opt-in, and — most importantly —
// that tuning never changes numerics: tuned site loops are bitwise
// identical to the untuned path, and reductions are bitwise identical
// across worker counts and tune settings.

#include "tune/tune_launch.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "comm/counters.h"
#include "comm/wire_format.h"
#include "fields/blas.h"
#include "tune/schwarz_policy.h"
#include "tune/site_loop.h"
#include "tune/tune_cache.h"
#include "util/parallel_for.h"
#include "util/rng.h"

namespace lqcd {
namespace {

TuneKey key_of(const std::string& kernel, const std::string& aux,
               std::int64_t volume, int workers) {
  TuneKey k;
  k.kernel = kernel;
  k.aux = aux;
  k.volume = volume;
  k.workers = workers;
  return k;
}

CallbackTunable::Candidate noop_candidate(std::string param) {
  return {std::move(param), [] {}};
}

class TuneTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_worker_count(1);
    set_tuning_enabled(true);
  }

  std::string temp_path(const std::string& name) const {
    return ::testing::TempDir() + name;
  }
};

// --- cache persistence ----------------------------------------------------

TEST_F(TuneTest, CacheRoundTripsThroughDisk) {
  TuneCache cache;
  cache.store(key_of("wilson_hop", "f64,par=e", 1024, 4),
              {"chunks=32", 12.5, 40.0});
  cache.store(key_of("blas_axpy", "site192", 4096, 2), {"chunks=8", 3.0, 3.5});
  const std::string path = temp_path("roundtrip.tsv");
  ASSERT_TRUE(cache.save(path));

  TuneCache loaded;
  ASSERT_TRUE(loaded.load(path));
  ASSERT_EQ(loaded.size(), 2u);
  const auto hit = loaded.lookup(key_of("wilson_hop", "f64,par=e", 1024, 4));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->param, "chunks=32");
  EXPECT_DOUBLE_EQ(hit->best_us, 12.5);
  EXPECT_DOUBLE_EQ(hit->default_us, 40.0);
  EXPECT_FALSE(loaded.lookup(key_of("wilson_hop", "f64,par=o", 1024, 4)));
}

TEST_F(TuneTest, VersionMismatchInvalidatesWholeFile) {
  const std::string path = temp_path("stale_version.tsv");
  {
    std::ofstream out(path);
    out << "lqcd-tunecache " << TuneCache::kVersion + 1 << "\n";
    out << "wilson_hop\tf64\t1024\t4\tchunks=32\t12.5\t40.0\n";
  }
  TuneCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuneTest, VersionOneFileLoadsEmpty) {
  // Version 1 headers carried a lane-width token, and their files may hold
  // rows of the removed data-layout axis (`wilson_clover_layout`, `,soa4`
  // keys).  Such a file must be discarded wholesale, never applied.  The
  // second header has this version's tokens, so only the version number
  // rejects it.
  for (const char* header :
       {"lqcd-tunecache 1 lanes=f4d2 wire=u1", "lqcd-tunecache 1 wire=u1"}) {
    const std::string path = temp_path("version_one.tsv");
    {
      std::ofstream out(path);
      out << header << "\n";
      out << "wilson_clover_layout\tf32\t4096\t4\tlayout=aos\t12.5\t"
             "40.0\n";
      out << "wilson_hop\tf32,soa4\t4096\t4\tchunks=32\t12.5\t40.0\n";
    }
    TuneCache cache;
    EXPECT_FALSE(cache.load(path)) << header;
    EXPECT_EQ(cache.size(), 0u) << header;
  }
}

TEST_F(TuneTest, SavedHeaderIsVersionAndWireToken) {
  TuneCache cache;
  cache.store(key_of("wilson_hop", "f32", 512, 1), {"chunks=4", 1.0, 2.0});
  const std::string path = temp_path("version_header.tsv");
  ASSERT_TRUE(cache.save(path));
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "lqcd-tunecache 2 wire=u1");
  // And it round-trips through load on the same build.
  TuneCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 1u);
  const auto hit = loaded.lookup(key_of("wilson_hop", "f32", 512, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->param, "chunks=4");
}

TEST_F(TuneTest, GhostWireCodecMismatchInvalidatesWholeFile) {
  // The header also carries the ghost-wire codec token (wire=uN,
  // comm/wire_format.h).  A cache written before the reconstruction axis
  // existed (no token), or against a different wire byte layout, holds
  // `*_ghost_prec` / `*_ghost_wire` policy rows whose meaning changed —
  // it must be discarded wholesale.
  for (const char* stale_wire : {"wire=u0", ""}) {
    const std::string path = temp_path("stale_wire.tsv");
    {
      std::ofstream out(path);
      out << "lqcd-tunecache " << TuneCache::kVersion;
      if (*stale_wire != '\0') out << ' ' << stale_wire;
      out << "\n";
      out << "wilson_part_ghost_prec\tf64\t1024\t4\tghost_prec=half\t12.5\t"
             "40.0\n";
    }
    TuneCache cache;
    EXPECT_FALSE(cache.load(path)) << "wire token '" << stale_wire << "'";
    EXPECT_EQ(cache.size(), 0u);
  }
}

TEST_F(TuneTest, SavedHeaderCarriesGhostWireCodecToken) {
  TuneCache cache;
  cache.store(key_of("wilson_part_ghost_wire", "f64", 512, 1),
              {"wire=unit,half", 1.0, 2.0});
  const std::string path = temp_path("wire_header.tsv");
  ASSERT_TRUE(cache.save(path));
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find(ghost_wire_codec_token()), std::string::npos)
      << header;
  TuneCache loaded;
  EXPECT_TRUE(loaded.load(path));
  const auto hit =
      loaded.lookup(key_of("wilson_part_ghost_wire", "f64", 512, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->param, "wire=unit,half");
}

TEST_F(TuneTest, MalformedHeaderIsRejected) {
  const std::string path = temp_path("garbage.tsv");
  {
    std::ofstream out(path);
    out << "not a tunecache at all\n";
  }
  TuneCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
}

// --- driver selection with a fake timer -----------------------------------

// Scripted clock: candidate c takes times[c] fake seconds per run.  With
// warmups=0 and reps=1 the driver calls the clock exactly twice per
// candidate, so feeding back-to-back (t0, t0 + times[c]) pairs steers the
// selection deterministically.
std::function<double()> scripted_clock(const std::vector<double>& durations,
                                       int* calls = nullptr) {
  auto state = std::make_shared<std::pair<std::size_t, double>>(0, 0.0);
  auto durs = std::make_shared<std::vector<double>>(durations);
  return [state, durs, calls]() {
    if (calls != nullptr) ++*calls;
    const std::size_t i = state->first++;
    if (i % 2 == 1) state->second += (*durs)[(i / 2) % durs->size()];
    return state->second;
  };
}

TEST_F(TuneTest, SelectsFastestCandidateAndRecordsDefault) {
  std::string applied;
  std::vector<CallbackTunable::Candidate> cands;
  for (const char* p : {"chunks=default", "chunks=fast", "chunks=slow"}) {
    cands.push_back({p, [&applied, p] { applied = p; }});
  }
  CallbackTunable t("fake_kernel", "aux", 100, TuneClass::numerics_neutral,
                    cands, [] {});

  TuneCache cache;
  TuneOptions opts;
  opts.warmups = 0;
  opts.reps = 1;
  opts.cache = &cache;
  opts.clock = scripted_clock({5.0, 1.0, 3.0});

  const TuneResult res = tune_launch(t, opts);
  EXPECT_EQ(res.param, "chunks=fast");
  EXPECT_EQ(applied, "chunks=fast");
  EXPECT_DOUBLE_EQ(res.best_us, 1.0e6);
  EXPECT_DOUBLE_EQ(res.default_us, 5.0e6);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Second launch: answered from the cache, clock never consulted.
  int clock_calls = 0;
  TuneOptions warm = opts;
  warm.clock = scripted_clock({5.0, 1.0, 3.0}, &clock_calls);
  const TuneResult cached = tune_launch(t, warm);
  EXPECT_EQ(cached.param, "chunks=fast");
  EXPECT_EQ(clock_calls, 0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(TuneTest, StaleCacheRowTriggersRetune) {
  CallbackTunable t("stale_kernel", "", 100, TuneClass::numerics_neutral,
                    {noop_candidate("chunks=1"), noop_candidate("chunks=2")},
                    [] {});
  TuneCache cache;
  // A row whose param no longer matches any candidate (set changed since
  // it was written).
  cache.store(key_of("stale_kernel", "", 100, worker_count()),
              {"chunks=999_gone", 1.0, 1.0});

  TuneOptions opts;
  opts.warmups = 0;
  opts.reps = 1;
  opts.cache = &cache;
  opts.clock = scripted_clock({2.0, 1.0});
  const TuneResult res = tune_launch(t, opts);
  EXPECT_EQ(res.param, "chunks=2");
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);  // initial store + re-tune
}

TEST_F(TuneTest, PreAndPostTuneBracketTheSweep) {
  int pre = 0, post = 0, runs = 0;
  CallbackTunable t("bracket", "", 10, TuneClass::numerics_neutral,
                    {noop_candidate("a"), noop_candidate("b")},
                    [&runs] { ++runs; });
  t.set_pre_tune([&pre] { ++pre; });
  t.set_post_tune([&post] { ++post; });

  TuneCache cache;
  TuneOptions opts;
  opts.warmups = 1;
  opts.reps = 2;
  opts.cache = &cache;
  opts.clock = scripted_clock({1.0, 2.0});
  tune_launch(t, opts);
  EXPECT_EQ(pre, 1);
  EXPECT_EQ(post, 1);
  EXPECT_EQ(runs, 2 * (1 + 2));  // (warmup + reps) per candidate
}

// --- kill switch and policy gate ------------------------------------------

TEST_F(TuneTest, DisabledTuningAppliesDefaultAndCountsBypass) {
  std::string applied;
  CallbackTunable t(
      "bypass_kernel", "", 100, TuneClass::numerics_neutral,
      {{"chunks=default", [&applied] { applied = "chunks=default"; }},
       {"chunks=other", [&applied] { applied = "chunks=other"; }}},
      [] {});
  TuneCache cache;
  TuneOptions opts;
  opts.cache = &cache;

  set_tuning_enabled(false);
  const TuneResult res = tune_launch(t, opts);
  EXPECT_EQ(res.param, "chunks=default");
  EXPECT_EQ(applied, "chunks=default");
  EXPECT_EQ(cache.stats().bypassed, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuneTest, EnvKillSwitchIsHonoured) {
  ASSERT_EQ(setenv("LQCD_TUNE", "0", 1), 0);
  init_tuning_from_env();
  EXPECT_FALSE(tuning_enabled());

  ASSERT_EQ(setenv("LQCD_TUNE", "1", 1), 0);
  init_tuning_from_env();
  EXPECT_TRUE(tuning_enabled());

  ASSERT_EQ(unsetenv("LQCD_TUNE"), 0);
  init_tuning_from_env();
  EXPECT_TRUE(tuning_enabled());  // default is on
}

TEST_F(TuneTest, PolicyTunableRequiresExplicitOptIn) {
  CallbackTunable t("policy_kernel", "", 100, TuneClass::policy,
                    {noop_candidate("a"), noop_candidate("b")}, [] {});
  TuneCache cache;
  TuneOptions opts;
  opts.warmups = 0;
  opts.reps = 1;
  opts.cache = &cache;
  opts.clock = scripted_clock({1.0, 2.0});
  EXPECT_THROW(tune_launch(t, opts), std::logic_error);

  opts.allow_policy = true;
  EXPECT_NO_THROW(tune_launch(t, opts));
}

TEST_F(TuneTest, ZeroCandidatesIsALogicError) {
  CallbackTunable t("empty", "", 1, TuneClass::numerics_neutral, {}, [] {});
  EXPECT_THROW(tune_launch(t), std::logic_error);
}

// --- numerics: tuning must never change results ---------------------------

WilsonField<double> random_field(const LatticeGeometry& g,
                                 std::uint64_t seed) {
  WilsonField<double> f(g);
  Rng rng(seed);
  for (auto& s : f.sites()) {
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        s[sp][c] = Cplx<double>(rng.gaussian(), rng.gaussian());
      }
    }
  }
  return f;
}

bool bitwise_equal(const WilsonField<double>& a, const WilsonField<double>& b) {
  return std::memcmp(a.sites().data(), b.sites().data(),
                     a.sites().size_bytes()) == 0;
}

TEST_F(TuneTest, TunedAxpyIsBitwiseIdenticalToUntuned) {
  const LatticeGeometry g({4, 4, 4, 8});
  const WilsonField<double> x = random_field(g, 11);
  const WilsonField<double> y0 = random_field(g, 12);

  set_tuning_enabled(false);
  WilsonField<double> untuned = y0;
  axpy(1.75, x, untuned);

  set_tuning_enabled(true);
  for (int workers : {1, 3, 4}) {
    set_worker_count(workers);
    WilsonField<double> tuned = y0;
    axpy(1.75, x, tuned);  // runs the full tuning sweep on first call
    EXPECT_TRUE(bitwise_equal(tuned, untuned)) << "workers=" << workers;
  }
}

TEST_F(TuneTest, ReductionsAreBitwiseStableAcrossWorkersAndTuneSettings) {
  const LatticeGeometry g({4, 4, 4, 8});
  const WilsonField<double> x = random_field(g, 21);
  const WilsonField<double> y = random_field(g, 22);

  set_worker_count(1);
  set_tuning_enabled(false);
  const double n_ref = norm2(x);
  const std::complex<double> d_ref = dot(x, y);

  for (bool tune : {false, true}) {
    set_tuning_enabled(tune);
    for (int workers : {1, 2, 4}) {
      set_worker_count(workers);
      EXPECT_EQ(norm2(x), n_ref) << "tune=" << tune << " workers=" << workers;
      EXPECT_EQ(dot(x, y), d_ref) << "tune=" << tune << " workers=" << workers;
    }
  }
}

TEST_F(TuneTest, RawParallelReduceIsWorkerCountIndependent) {
  const std::int64_t n = 10'000;
  std::vector<double> v(static_cast<std::size_t>(n));
  Rng rng(7);
  for (auto& e : v) e = rng.gaussian();

  set_worker_count(1);
  const double ref = parallel_reduce<double>(
      n, [&](std::int64_t i) { return v[static_cast<std::size_t>(i)]; });
  for (int workers : {2, 3, 8}) {
    set_worker_count(workers);
    const double got = parallel_reduce<double>(
        n, [&](std::int64_t i) { return v[static_cast<std::size_t>(i)]; });
    EXPECT_EQ(got, ref) << "workers=" << workers;
  }
}

// --- Schwarz policy helpers ------------------------------------------------

TEST_F(TuneTest, SchwarzPolicyParamRoundTrips) {
  SchwarzPolicy p;
  p.block_grid = {1, 2, 2, 4};
  p.mr_steps = 6;
  SchwarzPolicy q;
  ASSERT_TRUE(SchwarzPolicy::parse(p.param(), q));
  EXPECT_EQ(q.block_grid, p.block_grid);
  EXPECT_EQ(q.mr_steps, p.mr_steps);
  EXPECT_FALSE(SchwarzPolicy::parse("nonsense", q));
}

TEST_F(TuneTest, EnumeratedPoliciesAreFeasible) {
  const LatticeGeometry g({8, 8, 8, 16});
  const auto policies = enumerate_schwarz_policies(g, 8, {5, 10});
  ASSERT_FALSE(policies.empty());
  for (const auto& p : policies) {
    int blocks = 1;
    for (int mu = 0; mu < kNDim; ++mu) {
      const auto m = static_cast<std::size_t>(mu);
      ASSERT_GT(p.block_grid[m], 0);
      ASSERT_EQ(g.dims()[m] % p.block_grid[m], 0);
      const int extent = g.dims()[m] / p.block_grid[m];
      EXPECT_EQ(extent % 2, 0);
      EXPECT_GE(extent, 4);
      blocks *= p.block_grid[m];
    }
    EXPECT_GE(blocks, 2);
    EXPECT_LE(blocks, 8);
    EXPECT_GE(p.cut_fraction(g), 0.0);
    EXPECT_LT(p.cut_fraction(g), 1.0);
  }
}

// --- global exchange counters (satellite API) ------------------------------

TEST_F(TuneTest, GlobalExchangeCountersSnapshotAndReset) {
  reset_exchange_counters();
  EXPECT_EQ(exchange_counters_snapshot().exchanges, 0u);
  EXPECT_EQ(exchange_counters_snapshot().total_bytes(), 0u);

  ExchangeCounters delta;
  delta.bytes_by_dim[3] = 128;
  delta.messages = 2;
  delta.exchanges = 1;
  global_exchange_counters() += delta;

  const ExchangeCounters snap = exchange_counters_snapshot();
  EXPECT_EQ(snap.exchanges, 1u);
  EXPECT_EQ(snap.messages, 2u);
  EXPECT_EQ(snap.total_bytes(), 128u);

  reset_exchange_counters();
  EXPECT_EQ(exchange_counters_snapshot().total_bytes(), 0u);
}

}  // namespace
}  // namespace lqcd
