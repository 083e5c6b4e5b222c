#include "workload.h"

#include <utility>

#include "core/sales_data.h"
#include "core/symbol.h"
#include "core/table.h"

namespace perfbench {

namespace {

using tabular::core::Symbol;
using tabular::core::Table;
using tabular::core::TabularDatabase;

// Sizes. hot_read_resident keeps ~1M untouched rows resident beside the
// 8-row Figure 1 table, so the per-request cost of what is resident (not
// what is read) dominates. restructure_commit sizes Sales and Pivot so
// kernel work dominates a commit while a run still completes well over
// 1000 operations; its four restructurings differ in cost by more than
// 10x (see README.md).
constexpr size_t kArchiveParts = 125000;  // x 8 regions, no gaps
constexpr size_t kArchiveRegions = 8;
constexpr size_t kRestructureParts = 300;  // x 16 regions, 12.5% gaps
constexpr size_t kPivotParts = 1000;       // x 16 regions
constexpr size_t kRegions = 16;

const char* const kFigureRegions[] = {"east", "west", "north", "south"};
const char* const kFigureParts[] = {"nuts", "screws", "bolts"};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Table Renamed(Table t, const char* name) {
  t.set_name(Symbol::Name(name));
  return t;
}

}  // namespace

std::optional<WorkloadKind> ParseWorkloadKind(std::string_view name) {
  for (WorkloadKind k :
       {WorkloadKind::kHotReadResident, WorkloadKind::kRestructureCommit}) {
    if (name == WorkloadKindName(k)) return k;
  }
  return std::nullopt;
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHotReadResident:
      return "hot_read_resident";
    case WorkloadKind::kRestructureCommit:
      return "restructure_commit";
  }
  return "?";
}

uint64_t Workload::Mix(uint64_t a, uint64_t b, uint64_t c) const {
  uint64_t h = SplitMix64(seed_ ^ 0x5EEDull);
  h = SplitMix64(h ^ a);
  h = SplitMix64(h ^ b);
  return SplitMix64(h ^ c);
}

TabularDatabase Workload::Database() const {
  TabularDatabase db;
  switch (kind_) {
    case WorkloadKind::kHotReadResident:
      db.Add(tabular::fixtures::SalesFlat());
      db.Add(Renamed(tabular::fixtures::SyntheticSales(
                         kArchiveParts, kArchiveRegions, /*sparsity=*/0),
                     "Archive"));
      break;
    case WorkloadKind::kRestructureCommit:
      db.Add(tabular::fixtures::SyntheticSales(kRestructureParts, kRegions));
      db.Add(Renamed(
          tabular::fixtures::SyntheticPivotedSales(kPivotParts, kRegions),
          "Pivot"));
      break;
  }
  return db;
}

std::vector<std::string> Workload::ReadPrograms() const {
  const auto pick = [&](uint64_t salt, size_t n) {
    return static_cast<size_t>(Mix(salt, 0xAB) % n);
  };
  switch (kind_) {
    case WorkloadKind::kHotReadResident: {
      const std::string region = kFigureRegions[pick(1, 4)];
      const std::string part = kFigureParts[pick(2, 3)];
      return {
          "Report <- project {Part} (Sales);\n",
          "Report <- selectconst Region = '" + region + "' (Sales);\n",
          "Report <- select Region = Region (Sales);\n",
          "Report <- group by {Region} on {Sold} (Sales);\n",
          "Report <- transpose (Sales);\n",
          "Report <- rename Qty / Sold (Sales);\n",
          "Report <- group by {Part} on {Sold} (Sales);\n",
          "Pick <- selectconst Part = '" + part + "' (Sales);\n"
          "Report <- project {Region, Sold} (Pick);\n",
      };
    }
    case WorkloadKind::kRestructureCommit: {
      // Cheap reports over the restructured pools and the inputs.
      const std::string p = "p" + std::to_string(pick(3, kRestructureParts));
      const std::string r = "r" + std::to_string(pick(4, kRegions));
      return {
          "Report <- project {Part} (Info2);\n",
          "Report <- select Part = Part (Info2);\n",
          "Report <- project {Part} (Grouped);\n",
          "Report <- project {Part} (Purged);\n",
          "Report <- selectconst Part = '" + p + "' (Flat);\n",
          "Report <- selectconst Region = '" + r + "' (Flat);\n",
          "Report <- selectconst Part = '" + p + "' (Sales);\n",
          "Report <- selectconst Region = '" + r + "' (Sales);\n",
      };
    }
  }
  return {};
}

std::vector<std::string> Workload::CommitPrograms() const {
  // Fig 4's GROUP gives every row a column of its own, so it runs on one
  // seeded region's slice: on all of Sales its output (and the PURGE of it)
  // would be quadratic in Sales' rows. Fig 1 restructures all of Sales.
  const std::string region =
      "r" + std::to_string(Mix(5, 0xAB) % kRegions);
  return {
      // Fig 4: GROUP.
      "Slice <- selectconst Region = '" + region + "' (Sales);\n"
      "Grouped <- group by {Region} on {Sold} (Slice);\n",
      // Fig 1: GROUP + CLEAN-UP + PURGE, SalesInfo1 -> SalesInfo2.
      "Info2 <- group by {Region} on {Sold} (Sales);\n"
      "Info2 <- cleanup by {Part} on {_} (Info2);\n"
      "Info2 <- purge on {Sold} by {Region} (Info2);\n",
      // Fig 5: MERGE.
      "Flat <- merge on {Sold} by {Region} (Pivot);\n",
      // PURGE of the Fig 4 result.
      "Purged <- purge on {Sold} by {Region} (Grouped);\n",
  };
}

std::vector<Request> Workload::Warmup() const {
  std::vector<Request> out;
  switch (kind_) {
    case WorkloadKind::kHotReadResident:
      for (std::string& p : ReadPrograms()) out.push_back({std::move(p), false});
      break;
    case WorkloadKind::kRestructureCommit:
      // Every target pool exists before the first timed request, so the
      // database size is steady from then on.
      for (std::string& p : CommitPrograms()) out.push_back({std::move(p), true});
      for (std::string& p : ReadPrograms()) out.push_back({std::move(p), false});
      break;
  }
  return out;
}

size_t Workload::Draw(int client, uint64_t draw, size_t n, uint64_t salt) const {
  // Each block of n draws is a seeded permutation of 0..n-1 (Fisher-Yates),
  // so every run sends each program equally often.
  const uint64_t block = draw / n;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n - 1; i > 0; --i) {
    const uint64_t h = Mix(static_cast<uint64_t>(client), block, salt ^ i);
    std::swap(order[i], order[h % (i + 1)]);
  }
  return order[draw % n];
}

Request Workload::At(int client, uint64_t index) const {
  switch (kind_) {
    case WorkloadKind::kHotReadResident: {
      std::vector<std::string> programs = ReadPrograms();
      return {std::move(programs[Draw(client, index, programs.size(), 1)]),
              false};
    }
    case WorkloadKind::kRestructureCommit: {
      // Each client alternates a commit of one restructuring and a report.
      if (index % 2 == 0) {
        std::vector<std::string> commits = CommitPrograms();
        return {std::move(commits[Draw(client, index / 2, commits.size(), 2)]),
                true};
      }
      std::vector<std::string> programs = ReadPrograms();
      return {std::move(programs[Draw(client, index / 2, programs.size(), 3)]),
              false};
    }
  }
  return {};
}

std::string WorkloadSelfTest() {
  constexpr uint64_t kProbe = 64;
  for (WorkloadKind kind :
       {WorkloadKind::kHotReadResident, WorkloadKind::kRestructureCommit}) {
    const Workload a(kind, 7);
    const Workload b(kind, 7);
    const Workload other(kind, 8);
    if (a.Warmup() != b.Warmup()) {
      return std::string(WorkloadKindName(kind)) +
             ": equal seeds gave different warm-up requests";
    }
    bool differs = false;
    for (int c = 0; c < Workload::kClients; ++c) {
      for (uint64_t i = 0; i < kProbe; ++i) {
        if (!(a.At(c, i) == b.At(c, i))) {
          return std::string(WorkloadKindName(kind)) +
                 ": equal seeds gave different request " + std::to_string(i);
        }
        differs = differs || !(a.At(c, i) == other.At(c, i));
      }
    }
    if (!differs) {
      return std::string(WorkloadKindName(kind)) +
             ": seeds 7 and 8 gave the same stream";
    }
  }
  return "";
}

}  // namespace perfbench
