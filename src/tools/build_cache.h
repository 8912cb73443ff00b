// On-disk, content-addressed build cache for per-TU compilation results.
//
// The paper's pipeline (Figure 2) recomputes front end + IL analysis for
// every translation unit on every invocation. PDB files are durable,
// portable artifacts, so an unchanged TU's database can be republished
// from disk instead: the driver consults this cache before compiling.
//
// Key derivation (docs/CACHING.md): a 128-bit FNV-1a over
//   - a cache-format version tag,
//   - the canonical serialization of FrontendOptions + AnalyzerOptions,
//   - the TU's full preprocessed input: the name and content of the main
//     file and of every file its #include closure pulls in, in first-seen
//     order (discovered by a preprocessor-only scan, so a header edit —
//     or a -D that flips a conditional include — changes the key).
//
// Entry layout: <dir>/<key>.pdb (the serialized per-TU database),
// <dir>/<key>.stats (the TU's trace::CounterBlock, replayed on hit so
// --stats is identical across warm and cold runs), and
// <dir>/<key>.manifest (one "key|stamp|size|source|dep;dep;..." line).
// All are published atomically (write temp + rename), so concurrent
// writers at any -j are safe: both produce identical bytes and either
// rename wins. Fetches revalidate with pdb::validate; truncated, corrupt,
// or referentially broken entries are silently evicted and recompiled —
// a cache entry is never trusted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/pdb.h"
#include "support/source_manager.h"
#include "support/trace.h"

namespace pdt::tools {

/// Bumped whenever the PDB serialization, the counter set of the stats
/// sidecar, or the key derivation changes; entries written by other
/// versions simply never match.
inline constexpr std::string_view kCacheFormatVersion = "pdt-cache-6";

struct CacheOptions {
  std::string dir;            // empty = caching disabled
  std::size_t limit_mb = 0;   // sweep() target; 0 = unlimited
};

/// Counters for --cache-stats; aggregated across TUs by the driver.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t stores = 0;
  std::size_t evictions = 0;       // corrupt/stale entries dropped on fetch
  std::size_t unkeyed = 0;         // TUs whose dependency scan failed
  std::size_t revalidations = 0;   // entries re-parsed + validated on fetch

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    stores += o.stores;
    evictions += o.evictions;
    unkeyed += o.unkeyed;
    revalidations += o.revalidations;
    return *this;
  }
};

/// The historical one-line --cache-stats text: "cache: N hits, N misses,
/// N stored, N evicted, N unkeyed". Kept byte-stable for scripts.
[[nodiscard]] std::string cacheStatsText(const CacheStats& stats);

/// The same counters as a named section for trace::StatsReport (--stats /
/// --cache-stats=json).
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
cacheStatsSection(const CacheStats& stats);

/// A computed cache key plus the dependency list that went into it (kept
/// for the manifest, so `--cache-dir` contents are inspectable).
struct CacheKey {
  std::string hex;                 // 32-char content address
  std::string source;              // main file path as given
  std::vector<std::string> deps;   // include closure, first-seen order
};

/// Derives the cache key for `input` by running a preprocessor-only scan
/// over it (macros expanded, conditionals executed, includes entered) and
/// hashing every file the TU touches. Uses `sm` for file loading so a
/// following real compile reuses the already-loaded contents. Returns
/// nullopt when the scan fails (unreadable input, unterminated
/// conditional, missing include): such TUs compile uncached.
[[nodiscard]] std::optional<CacheKey> computeCacheKey(
    SourceManager& sm, const std::string& input,
    const frontend::FrontendOptions& frontend_options,
    const ilanalyzer::AnalyzerOptions& analyzer_options);

/// Canonical, unambiguous text form of every option that can change the
/// produced database; hashed into the key (exposed for tests).
[[nodiscard]] std::string canonicalOptionsText(
    const frontend::FrontendOptions& frontend_options,
    const ilanalyzer::AnalyzerOptions& analyzer_options);

class BuildCache {
 public:
  explicit BuildCache(CacheOptions options);

  [[nodiscard]] bool enabled() const { return !options_.dir.empty(); }

  /// Returns the cached database for `key` if present and sound. A entry
  /// that fails to parse or fails pdb::validate is deleted (counted in
  /// `stats.evictions`) and nullopt returned. `stats` is the caller's
  /// per-TU counter block (the driver keeps one per task and sums them).
  ///
  /// When `replay` is non-null, the entry's counter sidecar (the
  /// trace::CounterBlock recorded when the TU was compiled and stored) is
  /// deserialized into it; an entry with a missing or corrupt sidecar is
  /// evicted, so a hit always replays the original compile's counters —
  /// that is what keeps --stats byte-identical across warm and cold runs.
  /// All I/O done here is counted under a suppressing CounterScope so
  /// cache plumbing never leaks into compile counters.
  [[nodiscard]] std::optional<pdb::PdbFile> fetch(
      const CacheKey& key, CacheStats& stats,
      trace::CounterBlock* replay = nullptr) const;

  /// Publishes `pdb` under `key` (atomic: temp file + rename), together
  /// with the TU's counter sidecar `counters` (written before the
  /// manifest, which still publishes last). Failures are silent — the
  /// cache is an optimization, never a correctness dependency.
  void store(const CacheKey& key, const pdb::PdbFile& pdb,
             const trace::CounterBlock& counters, CacheStats& stats) const;

  /// Size-capped LRU sweep: while the entries' total size exceeds
  /// `limit_mb`, evict oldest-stamp-first (manifest stamps are bumped on
  /// hit, so the order is least-recently-used). Returns entries removed.
  /// No-op when limit_mb is 0.
  std::size_t sweep() const;

  /// Total size in bytes of all cache entries (pdb + manifest files).
  [[nodiscard]] std::uint64_t totalSizeBytes() const;

 private:
  [[nodiscard]] std::string pdbPath(const CacheKey& key) const;
  [[nodiscard]] std::string manifestPath(const CacheKey& key) const;
  [[nodiscard]] std::string statsPath(const CacheKey& key) const;

  CacheOptions options_;
};

}  // namespace pdt::tools
