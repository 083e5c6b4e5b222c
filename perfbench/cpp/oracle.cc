#include "oracle.h"

#include <algorithm>
#include <utility>

#include "core/sales_data.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"

namespace perfbench {

std::vector<std::string_view> SplitTables(std::string_view dump) {
  // io::SerializeDatabase ends every table with '\n' and separates tables
  // by one more, and no table line is empty.
  std::vector<std::string_view> tables;
  size_t start = 0;
  while (start < dump.size()) {
    const size_t gap = dump.find("\n\n", start);
    if (gap == std::string_view::npos) {
      tables.push_back(dump.substr(start));
      break;
    }
    tables.push_back(dump.substr(start, gap + 1 - start));
    start = gap + 2;
  }
  return tables;
}

Verdict CompareDumps(std::string_view server_dump,
                     std::string_view reference_dump) {
  if (server_dump == reference_dump) return Verdict::kIdentical;
  std::vector<std::string_view> a = SplitTables(server_dump);
  std::vector<std::string_view> b = SplitTables(reference_dump);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b ? Verdict::kOrderOnly : Verdict::kMismatch;
}

tabular::Result<std::string> SingleShotDump(
    const std::string& program, const tabular::core::TabularDatabase& input) {
  tabular::Result<tabular::lang::Program> parsed =
      tabular::lang::ParseProgram(program);
  if (!parsed.ok()) return parsed.status();
  tabular::core::TabularDatabase db = input;
  TABULAR_RETURN_NOT_OK(tabular::lang::RunProgram(*parsed, &db));
  return tabular::io::SerializeDatabase(db);
}

void OracleTally::Add(Verdict v, const std::string& what) {
  ++checked;
  if (v == Verdict::kOrderOnly) ++order_mismatches;
  if (v == Verdict::kMismatch) Fail(what + ": output differs from single-shot");
}

void OracleTally::Fail(const std::string& what) {
  ++mismatches;
  if (first_failure.empty()) first_failure = what;
}

std::string OracleSelfTest() {
  tabular::core::TabularDatabase db = tabular::fixtures::SalesInfo1(true);
  const std::string dump = tabular::io::SerializeDatabase(db);
  std::vector<std::string_view> tables = SplitTables(dump);
  if (tables.size() != db.size()) return "split found the wrong table count";

  auto join = [](const std::vector<std::string_view>& parts) {
    std::string out;
    for (std::string_view p : parts) {
      if (!out.empty()) out += "\n";
      out += p;
    }
    return out;
  };
  if (join(tables) != dump) return "split does not round-trip";
  if (CompareDumps(dump, dump) != Verdict::kIdentical) {
    return "an identical dump was not identical";
  }

  std::vector<std::string_view> reordered = tables;
  std::swap(reordered.front(), reordered.back());
  if (CompareDumps(join(reordered), dump) != Verdict::kOrderOnly) {
    return "a reordered dump was not reported as order-only";
  }

  std::string corrupted = dump;
  const size_t digit = corrupted.find_first_of("0123456789");
  corrupted[digit] = corrupted[digit] == '9' ? '8' : corrupted[digit] + 1;
  if (CompareDumps(corrupted, dump) != Verdict::kMismatch) {
    return "a dump with one changed cell was not caught";
  }
  std::vector<std::string_view> dropped(tables.begin() + 1, tables.end());
  if (CompareDumps(join(dropped), dump) != Verdict::kMismatch) {
    return "a dump missing a table was not caught";
  }
  std::vector<std::string_view> duplicated = tables;
  duplicated.back() = duplicated.front();
  if (CompareDumps(join(duplicated), dump) != Verdict::kMismatch) {
    return "a dump with a duplicated table was not caught";
  }

  tabular::Result<std::string> ran =
      SingleShotDump("Sales <- group by {Region} on {Sold} (Sales);", db);
  if (!ran.ok()) return "single-shot run failed: " + ran.status().ToString();
  if (CompareDumps(*ran, dump) != Verdict::kMismatch) {
    return "a restructured database compared equal to its input";
  }
  return "";
}

}  // namespace perfbench
