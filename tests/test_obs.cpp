// The observability layer (src/obs): scoped-span tracing (nesting, thread
// and rank-track attribution, valid Chrome trace-event JSON, zero overhead
// when disabled, no numerical perturbation) and the process-global metrics
// registry (counter/gauge semantics, snapshot/reset, agreement with the
// legacy per-subsystem counters it subsumes).
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/counters.h"
#include "comm/virtual_cluster.h"
#include "core/gcr_dd.h"
#include "dirac/partitioned.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lqcd {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough to validate the emitted trace-event
// files structurally (objects, arrays, strings with escapes, numbers).
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  bool has(const std::string& key) const { return obj.count(key) != 0; }
  const Json& at(const std::string& key) const { return obj.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at byte " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': literal("true"); return make_bool(true);
      case 'f': literal("false"); return make_bool(false);
      case 'n': literal("null"); return Json{};
      default: return number();
    }
  }

  static Json make_bool(bool b) {
    Json v;
    v.kind = Json::Kind::Bool;
    v.b = b;
    return v;
  }

  void literal(const char* lit) {
    skip_ws();
    for (const char* p = lit; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_++] != *p) {
        throw std::runtime_error("bad JSON literal");
      }
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      Json key = string_value();
      expect(':');
      v.obj.emplace(key.str, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    expect('"');
    Json v;
    v.kind = Json::Kind::String;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // structural validation only; keep a placeholder
            c = '?';
            break;
          default: throw std::runtime_error("bad escape");
        }
      }
      v.str.push_back(c);
    }
    expect('"');
    return v;
  }

  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad JSON number");
    Json v;
    v.kind = Json::Kind::Number;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Every obs test starts from a clean, enabled (or deliberately disabled)
/// tracer and leaves it disabled so other suites in the binary see the
/// zero-overhead path.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(false);
    reset_trace();
  }
  void TearDown() override {
    set_trace_enabled(false);
    reset_trace();
  }
};

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpanNestingAndThreadAttribution) {
  set_trace_enabled(true);
  {
    ScopedSpan outer("obs.test.outer");
    { ScopedSpan inner("obs.test.inner"); }
  }
  std::thread([] { ScopedSpan other("obs.test.thread"); }).join();

  const std::vector<SpanEvent> spans = trace_events();
  const SpanEvent* outer = nullptr;
  const SpanEvent* inner = nullptr;
  const SpanEvent* other = nullptr;
  for (const SpanEvent& s : spans) {
    if (std::string(s.name) == "obs.test.outer") outer = &s;
    if (std::string(s.name) == "obs.test.inner") inner = &s;
    if (std::string(s.name) == "obs.test.thread") other = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(other, nullptr);

  // Nesting: depth counts enclosing spans on the same thread, and the
  // inner interval is contained in the outer one.
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_GE(inner->begin_us, outer->begin_us);
  EXPECT_LE(inner->begin_us + inner->dur_us, outer->begin_us + outer->dur_us);

  // Thread attribution: no rank task active, so both threads land on
  // distinct per-thread fallback tracks.
  EXPECT_GE(outer->track, kFallbackTrackBase);
  EXPECT_EQ(inner->track, outer->track);
  EXPECT_GE(other->track, kFallbackTrackBase);
  EXPECT_NE(other->track, outer->track);
}

TEST_F(ObsTest, RankTasksLandOnRankTracks) {
  for (RankMode m : {RankMode::Seq, RankMode::Threads}) {
    SCOPED_TRACE(rank_mode_name(m));
    const RankMode prev = rank_mode();
    set_rank_mode(m);
    reset_trace();
    set_trace_enabled(true);
    run_ranks(4, [](int) { ScopedSpan span("obs.test.rankwork"); });
    set_trace_enabled(false);
    set_rank_mode(prev);

    std::set<int> tracks;
    for (const SpanEvent& s : trace_events()) {
      if (std::string(s.name) == "obs.test.rankwork") tracks.insert(s.track);
    }
    // One track per virtual rank, named by rank id, in both rank modes.
    EXPECT_EQ(tracks, (std::set<int>{0, 1, 2, 3}));
  }
}

TEST_F(ObsTest, TraceJsonIsValidAndCompletelyLabelled) {
  set_trace_enabled(true);
  run_ranks(2, [](int) { ScopedSpan span("obs.test.json"); });
  set_trace_enabled(false);

  const Json root = JsonParser(trace_json()).parse();
  ASSERT_EQ(root.kind, Json::Kind::Object);
  ASSERT_TRUE(root.has("traceEvents"));
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::Array);
  ASSERT_FALSE(events.arr.empty());

  std::set<double> span_tids;
  std::set<double> named_tids;
  std::set<std::string> names;
  for (const Json& e : events.arr) {
    ASSERT_EQ(e.kind, Json::Kind::Object);
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").str;
    if (ph == "X") {
      // Complete event: the fields chrome://tracing requires.
      for (const char* key : {"pid", "tid", "name", "ts", "dur"}) {
        ASSERT_TRUE(e.has(key)) << "X event missing " << key;
      }
      EXPECT_GE(e.at("dur").num, 0.0);
      span_tids.insert(e.at("tid").num);
      names.insert(e.at("name").str);
    } else {
      ASSERT_EQ(ph, "M");
      ASSERT_EQ(e.at("name").str, "thread_name");
      ASSERT_TRUE(e.at("args").has("name"));
      named_tids.insert(e.at("tid").num);
    }
  }
  EXPECT_TRUE(names.count("obs.test.json"));
  EXPECT_TRUE(names.count("rank.task"));
  // Both rank tracks present, and every track that carries spans has a
  // thread_name metadata record labelling it.
  EXPECT_TRUE(span_tids.count(0.0));
  EXPECT_TRUE(span_tids.count(1.0));
  for (double tid : span_tids) {
    EXPECT_TRUE(named_tids.count(tid)) << "unlabelled track " << tid;
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(trace_enabled());
  const std::size_t before = trace_event_count();
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("obs.test.disabled");
  }
  std::thread([] { ScopedSpan span("obs.test.disabled.thread"); }).join();
  EXPECT_EQ(trace_event_count(), before);
  EXPECT_EQ(before, 0u);
}

TEST_F(ObsTest, SolverResultsBitwiseIdenticalWithTracing) {
  const LatticeGeometry g({4, 4, 4, 8});
  GaugeField<double> u = hot_gauge(g, 141);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 2);
  const WilsonField<double> b = gaussian_wilson_source(g, 142);

  auto run = [&](bool tracing) {
    set_trace_enabled(tracing);
    GcrDdParams p;
    p.mass = 0.1;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, 2};
    GcrDdWilsonSolver solver(u, nullptr, p);
    auto x = std::make_unique<WilsonField<double>>(g);
    const SolverStats stats = solver.solve(*x, b);
    set_trace_enabled(false);
    return std::make_pair(std::move(x), stats);
  };
  auto [x_off, s_off] = run(false);
  auto [x_on, s_on] = run(true);

  // Spans only read the clock: the whole trajectory is bitwise unchanged.
  EXPECT_EQ(s_off.iterations, s_on.iterations);
  EXPECT_EQ(s_off.restarts, s_on.restarts);
  EXPECT_EQ(s_off.matvecs, s_on.matvecs);
  EXPECT_EQ(s_off.final_residual, s_on.final_residual);
  ASSERT_EQ(s_off.residual_history.size(), s_on.residual_history.size());
  for (std::size_t i = 0; i < s_off.residual_history.size(); ++i) {
    EXPECT_EQ(s_off.residual_history[i], s_on.residual_history[i]);
  }
  axpy(-1.0, *x_off, *x_on);
  EXPECT_EQ(norm2(*x_on), 0.0);
  EXPECT_GT(trace_event_count(), 0u);
}

TEST_F(ObsTest, GcrDdSpansNameTheEntryPoint) {
  // perfbench attributes core.prep_ms, solvers.schwarz_self_ms,
  // dirac.mr_op_ms and dirac.multi_op_ms by these span names: the
  // single-RHS solve records the single-RHS set, a batch the `_multi` set.
  // `gcr.solve` is the shared driver's, recorded by both.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = weak_gauge(g, 143, 0.3);
  const WilsonField<double> b0 = gaussian_wilson_source(g, 144);
  const WilsonField<double> b1 = gaussian_wilson_source(g, 145);
  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-3;
  p.block_grid = {1, 1, 1, 2};
  GcrDdWilsonSolver solver(u, nullptr, p);

  const std::vector<std::string> single = {"gcrdd.solve", "schwarz.apply",
                                           "mr.op"};
  const std::vector<std::string> batched = {
      "block_gcrdd.solve", "schwarz.apply_multi", "mr.op_multi"};
  auto traced = [](const std::function<void()>& solve) {
    reset_trace();
    set_trace_enabled(true);
    solve();
    set_trace_enabled(false);
    std::set<std::string> names;
    for (const SpanEvent& s : trace_events()) names.insert(s.name);
    return names;
  };

  WilsonField<double> x0(g), x1(g);
  const std::set<std::string> one =
      traced([&] { solver.solve(x0, b0); });
  EXPECT_TRUE(one.count("gcr.solve"));
  for (const std::string& name : single) EXPECT_TRUE(one.count(name)) << name;
  for (const std::string& name : batched) {
    EXPECT_FALSE(one.count(name)) << name;
  }

  const std::set<std::string> two =
      traced([&] { solver.solve({&x0, &x1}, {&b0, &b1}); });
  EXPECT_TRUE(two.count("gcr.solve"));
  for (const std::string& name : batched) EXPECT_TRUE(two.count(name)) << name;
  for (const std::string& name : single) EXPECT_FALSE(two.count(name)) << name;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeAndKeyBasics) {
  EXPECT_EQ(metric_key("plain", {}), "plain");
  EXPECT_EQ(metric_key("comm.exchange.bytes", {{"mu", "2"}}),
            "comm.exchange.bytes{mu=2}");
  EXPECT_EQ(metric_key("a.b", {{"mu", "0"}, {"dir", "+"}}), "a.b{mu=0,dir=+}");

  Counter& c = metric_counter("obs.test.counter");
  Gauge& g = metric_gauge("obs.test.gauge");
  c.reset();
  g.reset();
  c.add();
  c.add(41);
  g.add(1.5);
  g.add(2.0);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);

  // Stable registration: the same key yields the same object.
  EXPECT_EQ(&metric_counter("obs.test.counter"), &c);
  EXPECT_EQ(&metric_gauge("obs.test.gauge"), &g);
  // A key keeps its kind.
  EXPECT_THROW(metric_gauge("obs.test.counter"), std::logic_error);
  EXPECT_THROW(metric_counter("obs.test.gauge"), std::logic_error);

  const MetricsSnapshot snap = metrics_snapshot();
  EXPECT_EQ(snap.counter("obs.test.counter"), 42u);
  EXPECT_DOUBLE_EQ(snap.gauge("obs.test.gauge"), 3.5);
  EXPECT_EQ(snap.counter("obs.test.never-registered"), 0u);

  reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(metrics_snapshot().counter("obs.test.counter"), 0u);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  Counter& c = metric_counter("obs.test.concurrent");
  c.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ExchangeMetricsMatchLegacyCounters) {
  // The metrics registry mirrors every exchange through the same
  // account_exchange() funnel as the legacy global counters: after a
  // partitioned apply the two accountings must agree exactly.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 143);
  Partitioning part(g, {1, 1, 2, 2});
  PartitionedWilsonClover<double> op(part, u, nullptr, -0.1);
  const WilsonField<double> in = gaussian_wilson_source(g, 144);
  WilsonField<double> out(g);

  reset_metrics();
  reset_exchange_counters();
  // Threads mode takes the overlapped schedule: the metrics are fed from
  // concurrent rank tasks, same as production.
  const RankMode prev = rank_mode();
  set_rank_mode(RankMode::Threads);
  op.apply(out, in);
  set_rank_mode(prev);

  const ExchangeCounters legacy = exchange_counters_snapshot();
  const MetricsSnapshot snap = metrics_snapshot();
  ASSERT_GT(legacy.messages, 0u);
  for (int mu = 0; mu < kNDim; ++mu) {
    EXPECT_EQ(snap.counter(metric_key("comm.exchange.bytes",
                                      {{"mu", std::to_string(mu)}})),
              legacy.bytes_by_dim[static_cast<std::size_t>(mu)])
        << "mu " << mu;
  }
  EXPECT_EQ(snap.counter("comm.exchange.messages"), legacy.messages);
  EXPECT_EQ(snap.counter("comm.exchange.count"), legacy.exchanges);
  // The overlap phase gauges meter the same apply.
  EXPECT_EQ(snap.counter("dslash.overlap.rank_samples"),
            static_cast<std::uint64_t>(part.num_ranks()));
}

TEST(Metrics, HistogramBucketsAndPercentiles) {
  // Bucket math: power-of-two buckets from 1 ns, clamped at both ends.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMin), 0);
  EXPECT_EQ(Histogram::bucket_index(3e-9), 1);
  EXPECT_EQ(Histogram::bucket_index(1e12), Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(0), Histogram::kMin);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(3), 8.0 * Histogram::kMin);

  Histogram& h = metric_histogram("obs.test.hist");
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(metrics_snapshot().histogram("obs.test.hist").percentile(
                       0.5),
                   0.0);  // empty -> 0

  // All samples in one bucket: q=0 hits the bucket's lower edge exactly,
  // q=1 its upper edge (linear interpolation inside the bucket).
  for (int i = 0; i < 4; ++i) h.record(1.0);
  const int idx = Histogram::bucket_index(1.0);
  HistogramSnapshot snap = metrics_snapshot().histogram("obs.test.hist");
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 4.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1.0);
  EXPECT_EQ(snap.buckets[static_cast<std::size_t>(idx)], 4u);
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), Histogram::bucket_lower(idx));
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), Histogram::bucket_lower(idx + 1));
  EXPECT_GT(snap.percentile(0.5), Histogram::bucket_lower(idx));
  EXPECT_LT(snap.percentile(0.5), Histogram::bucket_lower(idx + 1));

  // Bimodal body/tail: the median lands in the body bucket, the p99 in
  // the tail bucket — the property the serve latency report relies on.
  h.reset();
  for (int i = 0; i < 90; ++i) h.record(1e-6);
  for (int i = 0; i < 10; ++i) h.record(1.0);
  snap = metrics_snapshot().histogram("obs.test.hist");
  EXPECT_EQ(snap.count, 100u);
  const int body = Histogram::bucket_index(1e-6);
  const int tail = Histogram::bucket_index(1.0);
  EXPECT_GE(snap.percentile(0.50), Histogram::bucket_lower(body));
  EXPECT_LE(snap.percentile(0.50), Histogram::bucket_lower(body + 1));
  EXPECT_GE(snap.percentile(0.99), Histogram::bucket_lower(tail));
  EXPECT_LE(snap.percentile(0.99), Histogram::bucket_lower(tail + 1));
  EXPECT_LT(snap.percentile(0.50), snap.percentile(0.95));

  reset_metrics();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Metrics, HistogramKeyKeepsItsKind) {
  Counter& c = metric_counter("obs.test.hkind.counter");
  c.add();
  EXPECT_THROW(metric_histogram("obs.test.hkind.counter"), std::logic_error);
  Histogram& h = metric_histogram("obs.test.hkind.hist");
  h.record(1.0);
  EXPECT_THROW(metric_counter("obs.test.hkind.hist"), std::logic_error);
  EXPECT_THROW(metric_gauge("obs.test.hkind.hist"), std::logic_error);
  // Stable registration: the same key yields the same object.
  EXPECT_EQ(&metric_histogram("obs.test.hkind.hist"), &h);
}

TEST(Metrics, ConcurrentHistogramRecordsAreLossless) {
  Histogram& h = metric_histogram("obs.test.hist.concurrent");
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(0.5);
    });
  }
  for (auto& t : ts) t.join();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), kTotal);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 * static_cast<double>(kTotal));
  EXPECT_EQ(h.bucket(Histogram::bucket_index(0.5)), kTotal);
}

}  // namespace
}  // namespace lqcd
