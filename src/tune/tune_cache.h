#pragma once
/// \file tune_cache.h
/// \brief Process-global persistent cache of tuned launch parameters,
/// mirroring QUDA's tunecache.tsv: keyed by (kernel, aux, volume, workers),
/// saved as a versioned TSV so subsequent runs skip re-tuning entirely.
///
/// Environment contract:
///  * `LQCD_TUNE=0`       — kill switch: tuning disabled, every kernel runs
///                          its default parameters (cache untouched).
///  * `LQCD_TUNE_CACHE=p` — persist the cache to file `p`.  When unset the
///                          cache is in-memory only (tuned once per
///                          process), like QUDA without QUDA_RESOURCE_PATH.

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "tune/tune_key.h"

namespace lqcd {

/// Running totals for hit/miss reporting (`bench_* --tune` prints these; a
/// warm second run must show misses == 0).
struct TuneCacheStats {
  std::uint64_t hits = 0;      ///< lookups answered from the cache
  std::uint64_t misses = 0;    ///< lookups that triggered a tuning session
  std::uint64_t bypassed = 0;  ///< lookups skipped because tuning is off
  std::uint64_t stale = 0;     ///< cached params no longer valid (re-tuned)
};

class TuneCache {
 public:
  /// Format version; bumped whenever the TSV layout or the meaning of any
  /// stored parameter changes.  A file with a different version is ignored
  /// wholesale (better to re-tune than to apply misread parameters).
  /// Version 2 dropped the header's lane-width token (`lanes=fNdM`); a
  /// version-1 file may hold rows of the removed data-layout axis
  /// (`wilson_clover_layout`).
  static constexpr int kVersion = 2;

  /// Cache lookup; counts a hit or (when absent) nothing — the miss is
  /// recorded by store() so that a stale-row re-tune counts once.
  std::optional<TuneResult> lookup(const TuneKey& key);

  /// Records a tuning outcome (counted as a miss).
  void store(const TuneKey& key, const TuneResult& result);

  /// Marks the most recent lookup result for \p key as stale: the entry is
  /// dropped and the stale counter incremented.
  void invalidate(const TuneKey& key);

  void note_bypass();

  /// Loads entries from \p path (TSV).  Returns false (leaving the cache
  /// empty) on a missing file, malformed header, version mismatch, or a
  /// header whose ghost-wire codec token (`wire=uN`, comm/wire_format.h)
  /// differs from this build's — tuned parameters do not migrate between
  /// builds with different wire byte layouts.
  bool load(const std::string& path);

  /// Writes all entries to \p path.  Returns false on I/O failure.
  bool save(const std::string& path) const;

  TuneCacheStats stats() const;
  std::size_t size() const;
  void clear();

  /// All entries, for reporting (kernel name -> result).
  std::map<TuneKey, TuneResult> entries() const;

  /// Bulk-installs entries (checkpoint restore): existing rows are
  /// overwritten, stats counters are untouched — restored rows are neither
  /// hits nor misses, they simply pre-warm the cache like load() does.
  void import_entries(const std::map<TuneKey, TuneResult>& entries);

 private:
  mutable std::mutex m_;
  std::map<TuneKey, TuneResult> entries_;
  TuneCacheStats stats_;
};

/// The process-global cache used by tune_launch()'s default path.  Loaded
/// lazily from `LQCD_TUNE_CACHE` on first access and saved back at exit
/// (and by save_tune_cache()).
TuneCache& global_tune_cache();

/// True unless tuning is disabled (LQCD_TUNE=0 or set_tuning_enabled(false)).
bool tuning_enabled();

/// Programmatic override of the kill switch (benches' --tune/--no-tune).
void set_tuning_enabled(bool enabled);

/// Re-reads LQCD_TUNE and LQCD_TUNE_CACHE (test hook; also discards any
/// programmatic override).
void init_tuning_from_env();

/// Path the global cache persists to ("" = in-memory only).
std::string tune_cache_path();
void set_tune_cache_path(const std::string& path);

/// Saves the global cache to tune_cache_path() now (no-op when pathless).
/// Returns false on I/O failure.
bool save_tune_cache();

}  // namespace lqcd
