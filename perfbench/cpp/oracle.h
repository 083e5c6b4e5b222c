#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "core/status.h"

namespace perfbench {

/// How a server dump relates to the single-shot reference.
enum class Verdict {
  kIdentical,  ///< byte-identical
  kOrderOnly,  ///< same multiset of serialized tables, different order
  kMismatch,   ///< different tables: a wrong answer
};

/// The tables of a grid-format database dump, one serialized table each.
std::vector<std::string_view> SplitTables(std::string_view dump);

/// Compares two dumps as multisets of serialized tables. A database is a
/// set of tables, and the table-order invariant is still open, so an
/// order-only difference is reported apart from a wrong answer.
Verdict CompareDumps(std::string_view server_dump,
                     std::string_view reference_dump);

/// The reference answer: `program` run once, unoptimized, by
/// `lang::RunProgram` on a copy of `input`, serialized.
tabular::Result<std::string> SingleShotDump(
    const std::string& program, const tabular::core::TabularDatabase& input);

/// Running totals of the oracle's verdicts.
struct OracleTally {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t order_mismatches = 0;
  std::string first_failure;

  void Add(Verdict v, const std::string& what);
  void Fail(const std::string& what);
};

/// Oracle self-test: identical dumps pass, a reordered dump is order-only,
/// and corrupted dumps (one changed cell, a dropped table, a duplicated
/// table) are caught. Returns "" on success, else the first failure.
std::string OracleSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
