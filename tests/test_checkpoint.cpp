// Checkpoint container and component-serializer tests (soak/checkpoint.h):
// bitwise round trips for every checkpointable component, typed rejection
// of corrupt/truncated/incompatible files, and a real mid-solve batched
// GCR capture surviving serialization bitwise.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gcr_dd.h"
#include "fault/fault.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "obs/metrics.h"
#include "soak/checkpoint.h"
#include "tune/tune_cache.h"
#include "util/rng.h"

namespace lqcd {
namespace {

using soak::ByteReader;
using soak::ByteWriter;
using soak::CheckpointError;
using soak::CheckpointReader;
using soak::CheckpointWriter;

template <typename Field>
void expect_bitwise_equal(const Field& a, const Field& b, const char* what) {
  ASSERT_EQ(a.sites().size_bytes(), b.sites().size_bytes()) << what;
  EXPECT_EQ(std::memcmp(a.sites().data(), b.sites().data(),
                        a.sites().size_bytes()),
            0)
      << what;
}

/// Rewrites the whole-file trailer after a deliberate in-place edit, so a
/// test can target the *section* checksums / version check specifically.
std::vector<std::uint8_t> with_fixed_trailer(std::vector<std::uint8_t> img) {
  const std::size_t body = img.size() - 8;
  const std::uint64_t sum = fnv1a(img.data(), body);
  for (int i = 0; i < 8; ++i) {
    img[body + std::size_t(i)] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
  return img;
}

CheckpointError::Kind kind_of(const std::vector<std::uint8_t>& img) {
  try {
    CheckpointReader::from_bytes(img);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected the image to be rejected";
  return CheckpointError::Kind::Io;
}

// ---------------------------------------------------------------------------
// Byte-level primitives.
// ---------------------------------------------------------------------------

TEST(ByteCodec, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-17);
  w.i64(-1234567890123ll);
  w.f64(-0.1);           // not exactly representable: bit pattern must survive
  w.f64(1e308);
  w.boolean(true);
  w.str("hello checkpoint");
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -17);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  const double d = r.f64();
  double expect = -0.1;
  EXPECT_EQ(std::memcmp(&d, &expect, sizeof d), 0);
  EXPECT_EQ(r.f64(), 1e308);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteCodec, OverrunThrowsBadPayload) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  (void)r.u32();
  try {
    (void)r.u64();
    FAIL() << "expected BadPayload";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::BadPayload);
  }
}

// ---------------------------------------------------------------------------
// Component round trips.
// ---------------------------------------------------------------------------

TEST(CheckpointComponents, RngStateRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 13; ++i) (void)rng.uniform();
  (void)rng.gaussian();  // prime the Box-Muller cache: part of the state
  const RngState before = rng.state();
  ByteWriter w;
  soak::put_rng(w, before);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  const RngState after = soak::get_rng(r);
  EXPECT_EQ(before, after);
  // The restored stream continues bitwise.
  Rng restored = Rng::from_state(after);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.gaussian(), restored.gaussian());
}

TEST(CheckpointComponents, SolverStatsRoundTrip) {
  SolverStats s;
  s.iterations = 42;
  s.matvecs = 97;
  s.restarts = 3;
  s.final_residual = 7.25e-6;
  s.converged = true;
  s.inner_iterations = 420;
  s.residual_history = {1.0, 0.31, 0.044, 9.1e-3, 7.25e-6};
  s.rollbacks = 2;
  s.rollback_iterations = {11, 29};
  ByteWriter w;
  soak::put_solver_stats(w, s);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  const SolverStats t = soak::get_solver_stats(r);
  EXPECT_EQ(t.iterations, s.iterations);
  EXPECT_EQ(t.matvecs, s.matvecs);
  EXPECT_EQ(t.restarts, s.restarts);
  EXPECT_EQ(t.final_residual, s.final_residual);
  EXPECT_EQ(t.converged, s.converged);
  EXPECT_EQ(t.inner_iterations, s.inner_iterations);
  EXPECT_EQ(t.residual_history, s.residual_history);
  EXPECT_EQ(t.rollbacks, s.rollbacks);
  EXPECT_EQ(t.rollback_iterations, s.rollback_iterations);
}

TEST(CheckpointComponents, TuneEntriesRoundTrip) {
  std::map<TuneKey, TuneResult> entries;
  entries[{"dslash", "prec=f32,parity=even", 2048, 4}] = {"chunks=32", 41.5,
                                                          63.0};
  entries[{"blas.axpy", "", 4096, 1}] = {"chunks=8", 3.25, 3.5};
  ByteWriter w;
  soak::put_tune_entries(w, entries);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  const auto back = soak::get_tune_entries(r);
  ASSERT_EQ(back.size(), entries.size());
  for (const auto& [key, result] : entries) {
    auto it = back.find(key);
    ASSERT_NE(it, back.end()) << key.kernel;
    EXPECT_EQ(it->second.param, result.param);
    EXPECT_EQ(it->second.best_us, result.best_us);
    EXPECT_EQ(it->second.default_us, result.default_us);
  }
  // import_entries installs the decoded rows without touching stats.
  TuneCache cache;
  const TuneCacheStats stats_before = cache.stats();
  cache.import_entries(back);
  EXPECT_EQ(cache.size(), entries.size());
  EXPECT_EQ(cache.stats().hits, stats_before.hits);
  EXPECT_EQ(cache.stats().misses, stats_before.misses);
}

TEST(CheckpointComponents, MetricsSnapshotRoundTripAndRestore) {
  reset_metrics();
  metric_counter("ckpt.test.counter").add(17);
  metric_gauge("ckpt.test.gauge").set(2.5);
  metric_histogram("ckpt.test.hist").record(0.125);
  metric_histogram("ckpt.test.hist").record(4.0);
  const MetricsSnapshot before = metrics_snapshot();

  ByteWriter w;
  soak::put_metrics(w, before);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  const MetricsSnapshot decoded = soak::get_metrics(r);
  EXPECT_EQ(decoded.counter("ckpt.test.counter"), 17u);
  EXPECT_EQ(decoded.gauge("ckpt.test.gauge"), 2.5);
  EXPECT_EQ(decoded.histogram("ckpt.test.hist").count, 2u);
  EXPECT_EQ(decoded.histogram("ckpt.test.hist").sum, 4.125);

  // Perturb the registry, then restore: the snapshot must match `before`
  // exactly (perturbations zeroed or overwritten).
  metric_counter("ckpt.test.counter").add(100);
  metric_counter("ckpt.test.other").add(5);
  restore_metrics(decoded);
  const MetricsSnapshot after = metrics_snapshot();
  EXPECT_EQ(after.counter("ckpt.test.counter"), 17u);
  EXPECT_EQ(after.counter("ckpt.test.other"), 0u);
  EXPECT_EQ(after.gauge("ckpt.test.gauge"), 2.5);
  EXPECT_EQ(after.histogram("ckpt.test.hist").count, 2u);
}

TEST(CheckpointComponents, FieldRoundTripIsBitwise) {
  const LatticeGeometry g({4, 4, 4, 4});
  const WilsonField<double> f = gaussian_wilson_source(g, 7);
  ByteWriter w;
  soak::put_field(w, f);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  const WilsonField<double> back = soak::get_field<WilsonSpinor<double>>(r);
  ASSERT_EQ(back.geometry().dims(), g.dims());
  expect_bitwise_equal(f, back, "field payload");
}

TEST(CheckpointComponents, MidSolveBlockGcrCaptureSurvivesSerialization) {
  // Capture a real width-2 GCR-DD solve mid-flight and require the decoded
  // checkpoint to be bitwise identical member by member.
  const LatticeGeometry g({4, 4, 4, 8});
  GaugeField<double> u = hot_gauge(g, 41);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 3);
  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  // At the default delta every iteration of this system restarts early,
  // leaving no open Krylov cycle at a round boundary; a small delta keeps
  // the cycle open so the capture carries basis vectors.
  p.delta = 1e-3;
  GcrDdWilsonSolver solver(u, nullptr, p);
  const WilsonField<double> b0 = gaussian_wilson_source(g, 43);
  const WilsonField<double> b1 = gaussian_wilson_source(g, 44);

  BlockGcrCheckpoint<WilsonField<float>> captured;
  BlockGcrCheckpointIo<WilsonField<float>> io;
  io.capture_at_round = 4;
  io.captured = &captured;
  io.stop_after_capture = true;
  WilsonField<double> x0(g), x1(g);
  (void)solver.solve({&x0, &x1}, {&b0, &b1}, &io);
  ASSERT_TRUE(captured.valid());
  ASSERT_EQ(captured.rhs.size(), 2u);

  ByteWriter w;
  soak::put_block_gcr_checkpoint(w, captured);
  ByteReader r{std::span<const std::uint8_t>(w.bytes())};
  const auto back = soak::get_block_gcr_checkpoint<WilsonField<float>>(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.round, captured.round);
  ASSERT_EQ(back.rhs.size(), captured.rhs.size());
  for (std::size_t i = 0; i < back.rhs.size(); ++i) {
    SCOPED_TRACE("rhs " + std::to_string(i));
    const auto& bk = back.rhs[i];
    const auto& cp = captured.rhs[i];
    EXPECT_EQ(bk.phase, cp.phase);
    EXPECT_EQ(bk.k, cp.k);
    EXPECT_EQ(bk.b2, cp.b2);
    EXPECT_EQ(bk.target, cp.target);
    EXPECT_EQ(bk.rnorm, cp.rnorm);
    EXPECT_EQ(bk.cycle_start_norm, cp.cycle_start_norm);
    EXPECT_EQ(bk.stats.iterations, cp.stats.iterations);
    EXPECT_EQ(bk.stats.matvecs, cp.stats.matvecs);
    EXPECT_EQ(bk.stats.restarts, cp.stats.restarts);
    EXPECT_EQ(bk.stats.inner_iterations, cp.stats.inner_iterations);
    EXPECT_EQ(bk.stats.final_residual, cp.stats.final_residual);
    EXPECT_EQ(bk.stats.converged, cp.stats.converged);
    EXPECT_EQ(bk.stats.residual_history, cp.stats.residual_history);
    EXPECT_EQ(bk.stats.rollbacks, cp.stats.rollbacks);
    EXPECT_EQ(bk.stats.rollback_iterations, cp.stats.rollback_iterations);
    expect_bitwise_equal(*bk.x, *cp.x, "checkpoint iterate");
    expect_bitwise_equal(*bk.rhat, *cp.rhat, "checkpoint residual");
    ASSERT_EQ(bk.p.size(), cp.p.size());
    ASSERT_EQ(bk.z.size(), cp.z.size());
    for (std::size_t j = 0; j < bk.p.size(); ++j) {
      expect_bitwise_equal(bk.p[j], cp.p[j], "krylov p");
      expect_bitwise_equal(bk.z[j], cp.z[j], "krylov z");
    }
    EXPECT_EQ(bk.beta, cp.beta);
    EXPECT_EQ(bk.gamma, cp.gamma);
    EXPECT_EQ(bk.alpha, cp.alpha);
  }
  // The capture lands mid-cycle, so the Krylov members are not vacuous.
  EXPECT_EQ(captured.rhs[0].k, 3);
  EXPECT_EQ(captured.rhs[0].p.size(), 3u);
}

// ---------------------------------------------------------------------------
// Container validation: typed rejection of defective files.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> sample_image() {
  CheckpointWriter w;
  ByteWriter payload;
  soak::put_rng(payload, Rng(5).state());
  w.section("rng/test", payload.take());
  ByteWriter second;
  second.str("another section");
  w.section("aux", second.take());
  return w.bytes();
}

TEST(CheckpointContainer, RoundTripThroughFile) {
  const std::string path = "test_checkpoint_roundtrip.ckpt";
  CheckpointWriter w;
  ByteWriter payload;
  soak::put_rng(payload, Rng(5).state());
  w.section("rng/test", payload.take());
  w.write(path);
  // Atomic write leaves no temp file behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  const CheckpointReader r = CheckpointReader::open(path);
  EXPECT_TRUE(r.has("rng/test"));
  ByteReader s = r.section("rng/test");
  EXPECT_EQ(soak::get_rng(s), Rng(5).state());
  std::remove(path.c_str());
}

TEST(CheckpointContainer, MissingSectionIsTyped) {
  const CheckpointReader r = CheckpointReader::from_bytes(sample_image());
  EXPECT_FALSE(r.has("absent"));
  try {
    (void)r.section("absent");
    FAIL() << "expected MissingSection";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::MissingSection);
  }
}

TEST(CheckpointContainer, BadMagicIsTyped) {
  std::vector<std::uint8_t> img = sample_image();
  img[0] ^= 0xff;
  EXPECT_EQ(kind_of(with_fixed_trailer(std::move(img))),
            CheckpointError::Kind::BadMagic);
}

TEST(CheckpointContainer, VersionMismatchIsTyped) {
  std::vector<std::uint8_t> img = sample_image();
  img[8] += 1;  // bump the little-endian version field
  EXPECT_EQ(kind_of(with_fixed_trailer(std::move(img))),
            CheckpointError::Kind::VersionMismatch);
}

TEST(CheckpointContainer, FlippedPayloadByteIsCorrupt) {
  std::vector<std::uint8_t> img = sample_image();
  img[img.size() - 12] ^= 0x01;  // inside the last section's payload
  // Without a trailer fixup the whole-file checksum trips first...
  EXPECT_EQ(kind_of(img), CheckpointError::Kind::Corrupt);
  // ...and with the trailer recomputed, the per-section checksum trips.
  EXPECT_EQ(kind_of(with_fixed_trailer(std::move(img))),
            CheckpointError::Kind::Corrupt);
}

TEST(CheckpointContainer, TruncationIsTyped) {
  std::vector<std::uint8_t> img = sample_image();
  // Shorter than the fixed header: typed Truncated.
  std::vector<std::uint8_t> tiny(img.begin(), img.begin() + 6);
  EXPECT_EQ(kind_of(tiny), CheckpointError::Kind::Truncated);
  // Cut mid-payload: the trailer can no longer match — typed Corrupt.
  std::vector<std::uint8_t> cut(img.begin(),
                                img.begin() + std::ptrdiff_t(img.size() - 10));
  EXPECT_EQ(kind_of(cut), CheckpointError::Kind::Corrupt);
  // A section whose declared length runs past the file (lengths edited,
  // trailer fixed up): typed Truncated.
  std::vector<std::uint8_t> lying = img;
  // Section table starts after magic+version+count; name_len of the first
  // section is at offset 16, name "rng/test" (8 bytes) at 20, payload_len
  // at 28.
  lying[28] = 0xff;
  EXPECT_EQ(kind_of(with_fixed_trailer(std::move(lying))),
            CheckpointError::Kind::Truncated);
}

TEST(CheckpointContainer, MalformedPayloadIsTyped) {
  CheckpointWriter w;
  ByteWriter payload;
  payload.u8(1);  // far too short to be an RngState
  w.section("rng/short", payload.take());
  const CheckpointReader r = CheckpointReader::from_bytes(w.bytes());
  ByteReader s = r.section("rng/short");
  try {
    (void)soak::get_rng(s);
    FAIL() << "expected BadPayload";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::BadPayload);
  }
}

TEST(CheckpointContainer, IoErrorIsTyped) {
  try {
    (void)CheckpointReader::open("definitely/not/a/real/path.ckpt");
    FAIL() << "expected Io";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::Io);
  }
}

TEST(CheckpointContainer, SectionReplacesByName) {
  CheckpointWriter w;
  ByteWriter first;
  first.u32(1);
  w.section("dup", first.take());
  ByteWriter second;
  second.u32(2);
  w.section("dup", second.take());
  const CheckpointReader r = CheckpointReader::from_bytes(w.bytes());
  ByteReader s = r.section("dup");
  EXPECT_EQ(s.u32(), 2u);
  EXPECT_EQ(r.section_names().size(), 1u);
}

}  // namespace
}  // namespace lqcd
