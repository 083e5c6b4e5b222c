#ifndef TABULAR_SERVER_PROGRAM_CACHE_H_
#define TABULAR_SERVER_PROGRAM_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/shape.h"
#include "core/database.h"
#include "core/status.h"
#include "lang/ast.h"
#include "lang/optimizer.h"

namespace tabular::server {

/// The front-end result for one (program text, schema shape) pair: parsed,
/// analyzed, and optimizer-certified once, then reused by every session
/// whose database matches the shape — the analogue of a prepared statement
/// plus MariaDB's table-definition cache.
struct CompiledProgram {
  /// Non-OK when the parse failed or the analyzer proved the program
  /// misbehaves on *every* database of this shape. Executing such an entry
  /// returns this status without running anything (negative caching).
  Status front_end;
  lang::Program parsed;
  /// The validator-certified rewritten form (== `parsed` when optimization
  /// was off or found nothing).
  lang::Program optimized;
  lang::OptimizeStats optimize_stats;
  /// Analyzer warnings (errors land in `front_end`).
  std::vector<analysis::Diagnostic> warnings;

  const lang::Program& executable() const { return optimized; }
};

/// The abstract image a cached compile is certified against: the exact
/// shapes of `db` with every cardinality interval coarsened to one of
/// three classes — =0, ≥1, or unknown. Two databases with equal
/// `SchemaFingerprint` coarsen to the *same* abstraction, and each is
/// admitted by it (its exact intervals lie within the coarsened ones), so
/// analysis errors and certified rewrites proved against the coarsened
/// image are sound for every database that hits the cache entry.
analysis::AbstractDatabase CoarsenedSchema(const core::TabularDatabase& db);

/// Deterministic rendering of `CoarsenedSchema(db)` — the schema half of
/// the cache key, so an entry is shared by exactly the databases its
/// compile is certified against. Stable across runs (symbol order, not
/// interning order).
std::string SchemaFingerprint(const core::TabularDatabase& db);

/// Thread-safe LRU cache of compiled programs keyed by
/// (program text, `SchemaFingerprint`). Hits and misses feed the
/// `server.program_cache.{hits,misses,evictions}` counters and the
/// `server.program_cache.size` gauge.
class ProgramCache {
 public:
  struct Options {
    /// Entries; with 0 every lookup compiles, and each miss's entry is
    /// evicted at once.
    size_t capacity = 128;
    bool optimize = true;         ///< run the certified rewrite engine
  };

  explicit ProgramCache(Options options);
  ProgramCache() : ProgramCache(Options()) {}

  /// Looks up (or compiles and inserts) the entry for `text` against the
  /// shape of `db`. The returned pointer is immutable and safe to use
  /// concurrently with further cache operations. `hit`, if non-null, is
  /// set to whether the entry was served from cache.
  std::shared_ptr<const CompiledProgram> Get(const std::string& text,
                                             const core::TabularDatabase& db,
                                             bool* hit = nullptr);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  std::shared_ptr<const CompiledProgram> Compile(
      const std::string& text, const core::TabularDatabase& db) const;

  Options options_;
  mutable std::mutex mu_;
  /// MRU-first key list; the map holds iterators into it.
  std::list<std::string> lru_;
  struct Entry {
    std::shared_ptr<const CompiledProgram> program;
    std::list<std::string>::iterator lru_pos;
  };
  std::map<std::string, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tabular::server

#endif  // TABULAR_SERVER_PROGRAM_CACHE_H_
