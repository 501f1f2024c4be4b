#include "tune/tune_cache.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "comm/wire_format.h"
#include "util/log.h"

namespace lqcd {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::string(v);
}

bool env_tuning_enabled() {
  const std::string v = env_or("LQCD_TUNE", "1");
  return !(v == "0" || v == "off" || v == "false");
}

std::atomic<bool> g_enabled_init{false};
std::atomic<bool> g_enabled{true};
std::mutex g_path_mutex;
std::string g_path;        // guarded by g_path_mutex
bool g_path_init = false;  // guarded by g_path_mutex

/// Replaces characters that would break the TSV framing.  Keys are
/// library-chosen identifiers, so this is belt-and-braces, not escaping.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::optional<TuneResult> TuneCache::lookup(const TuneKey& key) {
  std::unique_lock<std::mutex> lock(m_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  ++stats_.hits;
  return it->second;
}

void TuneCache::store(const TuneKey& key, const TuneResult& result) {
  std::unique_lock<std::mutex> lock(m_);
  ++stats_.misses;
  entries_[key] = result;
}

void TuneCache::invalidate(const TuneKey& key) {
  std::unique_lock<std::mutex> lock(m_);
  ++stats_.stale;
  // The hit that surfaced the stale row should not stand.
  if (stats_.hits > 0) --stats_.hits;
  entries_.erase(key);
}

void TuneCache::note_bypass() {
  std::unique_lock<std::mutex> lock(m_);
  ++stats_.bypassed;
}

bool TuneCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header)) return false;
  std::istringstream hs(header);
  std::string magic, wire;
  int version = -1;
  hs >> magic >> version >> wire;
  if (magic != "lqcd-tunecache" || version != kVersion) {
    log_warn("tunecache '" + path + "' has unrecognized header ('" + header +
             "'); ignoring it and re-tuning");
    return false;
  }
  // Ghost-wire codec token: `*_ghost_wire` winners (and PR 9's
  // `*_ghost_prec` rows, whose files carry no token at all) were timed
  // against a specific wire byte layout; a layout change — or a pre-recon
  // cache — invalidates the file wholesale.
  if (wire != ghost_wire_codec_token()) {
    log_warn("tunecache '" + path + "' was written against ghost-wire codec '" +
             (wire.empty() ? "<none>" : wire) + "' (this build: '" +
             ghost_wire_codec_token() + "'); ignoring it and re-tuning");
    return false;
  }
  std::unique_lock<std::mutex> lock(m_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TuneKey key;
    TuneResult res;
    std::string volume, workers, best, deflt;
    if (!std::getline(ls, key.kernel, '\t') ||
        !std::getline(ls, key.aux, '\t') ||
        !std::getline(ls, volume, '\t') ||
        !std::getline(ls, workers, '\t') ||
        !std::getline(ls, res.param, '\t') ||
        !std::getline(ls, best, '\t') || !std::getline(ls, deflt, '\t')) {
      continue;  // malformed row: skip, do not poison the rest
    }
    try {
      key.volume = std::stoll(volume);
      key.workers = std::stoi(workers);
      res.best_us = std::stod(best);
      res.default_us = std::stod(deflt);
    } catch (const std::exception&) {
      continue;
    }
    entries_[key] = res;
  }
  return true;
}

bool TuneCache::save(const std::string& path) const {
  std::map<TuneKey, TuneResult> snapshot;
  {
    std::unique_lock<std::mutex> lock(m_);
    snapshot = entries_;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "lqcd-tunecache " << kVersion << ' ' << ghost_wire_codec_token()
      << "\n";
  out << "# kernel\taux\tvolume\tworkers\tparam\tbest_us\tdefault_us\n";
  for (const auto& [key, res] : snapshot) {
    out << sanitize(key.kernel) << '\t' << sanitize(key.aux) << '\t'
        << key.volume << '\t' << key.workers << '\t' << sanitize(res.param)
        << '\t' << res.best_us << '\t' << res.default_us << "\n";
  }
  return static_cast<bool>(out);
}

TuneCacheStats TuneCache::stats() const {
  std::unique_lock<std::mutex> lock(m_);
  return stats_;
}

std::size_t TuneCache::size() const {
  std::unique_lock<std::mutex> lock(m_);
  return entries_.size();
}

void TuneCache::clear() {
  std::unique_lock<std::mutex> lock(m_);
  entries_.clear();
  stats_ = TuneCacheStats{};
}

std::map<TuneKey, TuneResult> TuneCache::entries() const {
  std::unique_lock<std::mutex> lock(m_);
  return entries_;
}

void TuneCache::import_entries(const std::map<TuneKey, TuneResult>& entries) {
  std::unique_lock<std::mutex> lock(m_);
  for (const auto& [key, res] : entries) entries_[key] = res;
}

namespace {

/// Owns the global cache; saves it back to the configured path at process
/// exit so warm runs start from disk (QUDA saves on endQuda()).
struct GlobalCacheHolder {
  TuneCache cache;
  ~GlobalCacheHolder() {
    const std::string path = tune_cache_path();
    if (!path.empty() && cache.size() > 0) cache.save(path);
  }
};

}  // namespace

TuneCache& global_tune_cache() {
  static GlobalCacheHolder holder;
  static const bool loaded = [] {
    const std::string path = tune_cache_path();
    if (!path.empty()) holder.cache.load(path);
    return true;
  }();
  (void)loaded;
  return holder.cache;
}

bool tuning_enabled() {
  if (!g_enabled_init.load(std::memory_order_acquire)) {
    g_enabled.store(env_tuning_enabled(), std::memory_order_relaxed);
    g_enabled_init.store(true, std::memory_order_release);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

void set_tuning_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
  g_enabled_init.store(true, std::memory_order_release);
}

void init_tuning_from_env() {
  set_tuning_enabled(env_tuning_enabled());
  std::unique_lock<std::mutex> lock(g_path_mutex);
  g_path = env_or("LQCD_TUNE_CACHE", "");
  g_path_init = true;
}

std::string tune_cache_path() {
  std::unique_lock<std::mutex> lock(g_path_mutex);
  if (!g_path_init) {
    g_path = env_or("LQCD_TUNE_CACHE", "");
    g_path_init = true;
  }
  return g_path;
}

void set_tune_cache_path(const std::string& path) {
  std::unique_lock<std::mutex> lock(g_path_mutex);
  g_path = path;
  g_path_init = true;
}

bool save_tune_cache() {
  const std::string path = tune_cache_path();
  if (path.empty()) return true;
  return global_tune_cache().save(path);
}

}  // namespace lqcd
