#pragma once
/// \file checkpoint.h
/// \brief Versioned, checksummed checkpoint container for the soak harness.
///
/// A checkpoint is a single binary file holding named *sections* — one per
/// checkpointable component (solver state, RNG streams, tune cache, metrics
/// snapshot, runner progress).  The container is deliberately dumb: it knows
/// nothing about what lives inside a section beyond its name, length, and
/// FNV-1a checksum.  Component serializers (below) define the payloads.
///
/// Layout (all integers little-endian):
///
///     magic   "LQCDCKPT"                       8 bytes
///     u32     format version (kCheckpointVersion)
///     u32     section count
///     per section:
///       u32   name length, name bytes
///       u64   payload length
///       u64   FNV-1a of the payload
///       payload bytes
///     u64     FNV-1a of everything above (whole-file trailer)
///
/// Every failure mode maps to a typed CheckpointError kind so callers (and
/// tests) can assert *why* a file was refused: wrong magic, future version,
/// truncation, checksum mismatch, missing section, malformed payload.
///
/// Determinism contract: payloads are bit-exact images of in-memory state
/// (doubles are stored as IEEE-754 bit patterns, fields as raw site bytes),
/// so restore reproduces the checkpointed state bitwise.  Checkpoints are
/// same-machine restart artifacts — they assume the writer's endianness and
/// float layout (enforced by the magic staying this library's own).
///
/// Writes are atomic: the container is assembled in memory, written to
/// `<path>.tmp`, flushed, and renamed over `<path>`, so a kill mid-write
/// leaves either the old checkpoint or none — never a torn file.

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fields/lattice_field.h"
#include "obs/metrics.h"
#include "solvers/gcr.h"
#include "solvers/solver_stats.h"
#include "tune/tune_key.h"
#include "util/rng.h"

namespace lqcd::soak {

/// Bumped whenever the container layout or any section payload changes
/// incompatibly.  A file with any other version is refused wholesale
/// (better to redo the work than to resume from misread state).
inline constexpr std::uint32_t kCheckpointVersion = 1;

inline constexpr char kCheckpointMagic[8] = {'L', 'Q', 'C', 'D',
                                             'C', 'K', 'P', 'T'};

/// Typed checkpoint failure.  kind() tells the caller whether the file is
/// absent/unreadable (Io), not a checkpoint (BadMagic), from an
/// incompatible build (VersionMismatch), cut short (Truncated), bit-rotted
/// (Corrupt), missing an expected component (MissingSection), or has a
/// section whose payload does not decode (BadPayload).
class CheckpointError : public std::runtime_error {
 public:
  enum class Kind {
    Io,
    BadMagic,
    VersionMismatch,
    Truncated,
    Corrupt,
    MissingSection,
    BadPayload,
  };

  CheckpointError(Kind kind, const std::string& what)
      : std::runtime_error(std::string(kind_name(kind)) + ": " + what),
        kind_(kind) {}

  Kind kind() const { return kind_; }

  static const char* kind_name(Kind k);

 private:
  Kind kind_;
};

/// Append-only binary packer.  Integers are written little-endian byte by
/// byte; doubles as their IEEE-754 bit pattern, so a round trip is bitwise.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Cursor over a section payload.  Any read past the end throws
/// CheckpointError{BadPayload} — the section checksum already verified the
/// bytes, so an overrun means the payload does not match the expected
/// schema (e.g. a section written by different code).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return *need(1); }
  std::uint32_t u32() {
    const std::uint8_t* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const std::uint8_t* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    std::uint32_t n = u32();
    const std::uint8_t* p = need(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  void raw(void* out, std::size_t n) { std::memcpy(out, need(n), n); }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  const std::uint8_t* need(std::size_t n) {
    if (bytes_.size() - pos_ < n) {
      throw CheckpointError(CheckpointError::Kind::BadPayload,
                            "payload ends mid-record");
    }
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Assembles and writes one checkpoint file.
class CheckpointWriter {
 public:
  /// Adds (or replaces) a named section.
  void section(const std::string& name, std::vector<std::uint8_t> payload);

  /// The assembled container (magic/version/sections/trailer).
  std::vector<std::uint8_t> bytes() const;

  /// Atomic write: <path>.tmp then rename.  \throws CheckpointError{Io}.
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// Parses and validates one checkpoint image; hands out section readers.
class CheckpointReader {
 public:
  /// Validates magic, version, section bounds, per-section checksums, and
  /// the whole-file trailer.  \throws CheckpointError on any defect.
  static CheckpointReader from_bytes(std::vector<std::uint8_t> bytes);

  /// Reads \p path then validates as from_bytes().
  static CheckpointReader open(const std::string& path);

  bool has(const std::string& name) const {
    return sections_.count(name) != 0;
  }
  std::vector<std::string> section_names() const;

  /// Reader over the named payload.  \throws CheckpointError{MissingSection}.
  ByteReader section(const std::string& name) const;

 private:
  CheckpointReader() = default;

  std::vector<std::uint8_t> bytes_;
  std::map<std::string, std::pair<std::size_t, std::size_t>> sections_;
};

// ---------------------------------------------------------------------------
// Component serializers.  Each put_X appends X's payload encoding to a
// ByteWriter; the matching get_X decodes it from a ByteReader.  All of them
// are bitwise round trips (asserted in tests/test_checkpoint.cpp).

void put_rng(ByteWriter& w, const RngState& s);
RngState get_rng(ByteReader& r);

void put_solver_stats(ByteWriter& w, const SolverStats& s);
SolverStats get_solver_stats(ByteReader& r);

void put_tune_entries(ByteWriter& w,
                      const std::map<TuneKey, TuneResult>& entries);
std::map<TuneKey, TuneResult> get_tune_entries(ByteReader& r);

void put_metrics(ByteWriter& w, const MetricsSnapshot& s);
MetricsSnapshot get_metrics(ByteReader& r);

/// Field payload: the 4 lattice extents followed by the raw site bytes.
/// Self-describing so restore can rebuild the field without out-of-band
/// geometry — but callers resuming a solve should still check the decoded
/// geometry against the run's.
template <typename Site>
void put_field(ByteWriter& w, const LatticeField<Site>& f) {
  static_assert(std::is_trivially_copyable_v<Site>);
  for (int mu = 0; mu < kNDim; ++mu) w.i32(f.geometry().dim(mu));
  const std::span<const Site> sites = f.sites();
  w.u64(static_cast<std::uint64_t>(sites.size_bytes()));
  w.raw(sites.data(), sites.size_bytes());
}

template <typename Site>
LatticeField<Site> get_field(ByteReader& r) {
  static_assert(std::is_trivially_copyable_v<Site>);
  std::array<int, kNDim> dims{};
  for (int mu = 0; mu < kNDim; ++mu) dims[static_cast<std::size_t>(mu)] = r.i32();
  LatticeGeometry geom = [&] {
    try {
      return LatticeGeometry(dims);
    } catch (const std::invalid_argument& e) {
      throw CheckpointError(CheckpointError::Kind::BadPayload,
                            std::string("bad field geometry: ") + e.what());
    }
  }();
  LatticeField<Site> f(geom);
  const std::span<Site> sites = f.sites();
  const std::uint64_t nbytes = r.u64();
  if (nbytes != sites.size_bytes()) {
    throw CheckpointError(CheckpointError::Kind::BadPayload,
                          "field payload size does not match its geometry");
  }
  r.raw(sites.data(), sites.size_bytes());
  return f;
}

namespace detail {

inline void put_cplx(ByteWriter& w, const std::complex<double>& z) {
  w.f64(z.real());
  w.f64(z.imag());
}
inline std::complex<double> get_cplx(ByteReader& r) {
  double re = r.f64();
  double im = r.f64();
  return {re, im};
}

template <typename Field>
void put_field_vec(ByteWriter& w, const std::vector<Field>& v) {
  w.u64(v.size());
  for (const Field& f : v) put_field(w, f);
}

template <typename Field>
std::vector<Field> get_field_vec(ByteReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<Field> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v.push_back(get_field<typename Field::site_type>(r));
  }
  return v;
}

inline void put_coeffs(
    ByteWriter& w, const std::vector<std::vector<std::complex<double>>>& beta,
    const std::vector<double>& gamma,
    const std::vector<std::complex<double>>& alpha) {
  w.u64(beta.size());
  for (const auto& row : beta) {
    w.u64(row.size());
    for (const auto& z : row) put_cplx(w, z);
  }
  w.u64(gamma.size());
  for (double g : gamma) w.f64(g);
  w.u64(alpha.size());
  for (const auto& z : alpha) put_cplx(w, z);
}

inline void get_coeffs(ByteReader& r,
                       std::vector<std::vector<std::complex<double>>>& beta,
                       std::vector<double>& gamma,
                       std::vector<std::complex<double>>& alpha) {
  beta.resize(r.u64());
  for (auto& row : beta) {
    row.resize(r.u64());
    for (auto& z : row) z = get_cplx(r);
  }
  gamma.resize(r.u64());
  for (double& g : gamma) g = r.f64();
  alpha.resize(r.u64());
  for (auto& z : alpha) z = get_cplx(r);
}

}  // namespace detail

template <typename Field>
void put_block_gcr_checkpoint(ByteWriter& w,
                              const BlockGcrCheckpoint<Field>& c) {
  if (!c.valid()) {
    throw CheckpointError(CheckpointError::Kind::BadPayload,
                          "refusing to serialize an empty block checkpoint");
  }
  w.u64(c.round);
  w.u64(c.rhs.size());
  for (const auto& rr : c.rhs) {
    w.i32(rr.phase);
    w.i32(rr.k);
    w.f64(rr.b2);
    w.f64(rr.target);
    w.f64(rr.rnorm);
    w.f64(rr.cycle_start_norm);
    put_solver_stats(w, rr.stats);
    put_field(w, *rr.x);
    put_field(w, *rr.rhat);
    detail::put_field_vec(w, rr.p);
    detail::put_field_vec(w, rr.z);
    detail::put_coeffs(w, rr.beta, rr.gamma, rr.alpha);
  }
}

template <typename Field>
BlockGcrCheckpoint<Field> get_block_gcr_checkpoint(ByteReader& r) {
  BlockGcrCheckpoint<Field> c;
  c.round = r.u64();
  c.rhs.resize(r.u64());
  for (auto& rr : c.rhs) {
    rr.phase = r.i32();
    rr.k = r.i32();
    rr.b2 = r.f64();
    rr.target = r.f64();
    rr.rnorm = r.f64();
    rr.cycle_start_norm = r.f64();
    rr.stats = get_solver_stats(r);
    rr.x.emplace(get_field<typename Field::site_type>(r));
    rr.rhat.emplace(get_field<typename Field::site_type>(r));
    rr.p = detail::get_field_vec<Field>(r);
    rr.z = detail::get_field_vec<Field>(r);
    detail::get_coeffs(r, rr.beta, rr.gamma, rr.alpha);
  }
  return c;
}

}  // namespace lqcd::soak
