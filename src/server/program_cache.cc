#include "server/program_cache.h"

#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::server {

using analysis::AbstractDatabase;
using analysis::CardInterval;

namespace {

/// =0 stays exact, ≥1 widens to [1,∞), anything else to ⊤ — the three
/// classes a fingerprint distinguishes. Always a superset of the input, so
/// the coarsened shape admits every database it fingerprints.
CardInterval Coarsen(const CardInterval& c) {
  if (c.hi == 0) return CardInterval::Exact(0);
  if (c.lo >= 1) return CardInterval::Range(1, CardInterval::kInf);
  return CardInterval::Top();
}

}  // namespace

AbstractDatabase CoarsenedSchema(const core::TabularDatabase& db) {
  AbstractDatabase exact = AbstractDatabase::FromDatabase(db);
  for (auto& [name, shape] : exact.tables) {
    shape.row_card = Coarsen(shape.row_card);
    shape.col_card = Coarsen(shape.col_card);
    shape.count = Coarsen(shape.count);
  }
  return exact;
}

std::string SchemaFingerprint(const core::TabularDatabase& db) {
  std::string out;
  for (const auto& [name, shape] : CoarsenedSchema(db).tables) {
    out += name.ToString();
    out += '=';
    out += shape.ToString();
    out += shape.certain ? "!\n" : "?\n";
  }
  return out;
}

ProgramCache::ProgramCache(Options options) : options_(options) {}

std::shared_ptr<const CompiledProgram> ProgramCache::Compile(
    const std::string& text, const core::TabularDatabase& db) const {
  TABULAR_TRACE_SPAN("program_cache.compile", "server");
  auto compiled = std::make_shared<CompiledProgram>();
  Result<lang::Program> parsed = lang::ParseProgram(text);
  if (!parsed.ok()) {
    compiled->front_end = parsed.status();
    return compiled;
  }
  compiled->parsed = std::move(*parsed);
  compiled->optimized = compiled->parsed;

  // Analyze against the coarsened image (see CoarsenedSchema): any error it
  // reports is definite for *every* database with this fingerprint, so the
  // rejection may be cached alongside positive compiles.
  const AbstractDatabase coarse = CoarsenedSchema(db);
  analysis::AnalysisResult analyzed =
      analysis::AnalyzeProgram(compiled->parsed, coarse);
  for (const analysis::Diagnostic& d : analyzed.diagnostics) {
    if (d.severity == analysis::Severity::kError) {
      compiled->front_end = Status::InvalidArgument(
          "statement " + d.path + ": " + d.message);
      return compiled;
    }
    compiled->warnings.push_back(d);
  }

  if (options_.optimize) {
    compiled->optimized = lang::OptimizeProgram(compiled->parsed, coarse, {},
                                                &compiled->optimize_stats);
  }
  return compiled;
}

std::shared_ptr<const CompiledProgram> ProgramCache::Get(
    const std::string& text, const core::TabularDatabase& db, bool* hit) {
  static obs::Counter& hits = obs::GetCounter("server.program_cache.hits");
  static obs::Counter& misses =
      obs::GetCounter("server.program_cache.misses");
  static obs::Counter& evictions =
      obs::GetCounter("server.program_cache.evictions");
  static obs::Gauge& size_gauge = obs::GetGauge("server.program_cache.size");

  const std::string key = SchemaFingerprint(db) + '\0' + text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      ++hits_;
      hits.Add(1);
      if (hit != nullptr) *hit = true;
      return it->second.program;
    }
  }

  // Compile outside the lock: a slow front-end must not stall sessions
  // hitting other entries. Two sessions racing on the same new key both
  // compile; the loser's insert finds the key present and reuses it.
  std::shared_ptr<const CompiledProgram> compiled = Compile(text, db);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++hits_;
    hits.Add(1);
    if (hit != nullptr) *hit = true;
    return it->second.program;
  }
  ++misses_;
  misses.Add(1);
  if (hit != nullptr) *hit = false;
  lru_.push_front(key);
  entries_[key] = Entry{compiled, lru_.begin()};
  while (entries_.size() > options_.capacity) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    evictions.Add(1);
  }
  size_gauge.Set(static_cast<int64_t>(entries_.size()));
  return compiled;
}

size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t ProgramCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ProgramCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t ProgramCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace tabular::server
