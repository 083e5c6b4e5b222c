#include "core/table.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "core/sales_data.h"
#include "tests/test_util.h"

namespace tabular::core {
namespace {

using ::tabular::testing::N;
using ::tabular::testing::NUL;
using ::tabular::testing::V;

TEST(TableTest, MinimalTableIsSingleNullCell) {
  Table t;
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.width(), 0u);
  EXPECT_TRUE(t.name().is_null());
}

TEST(TableTest, PaperDimensionConventions) {
  // A table of height m and width n has (m+1) x (n+1) cells (Figure 2).
  Table t = fixtures::SalesFlat();
  EXPECT_EQ(t.height(), 8u);
  EXPECT_EQ(t.width(), 3u);
  EXPECT_EQ(t.num_rows(), 9u);
  EXPECT_EQ(t.num_cols(), 4u);
}

TEST(TableTest, RegionsOfFigure2) {
  Table t = fixtures::SalesFlat();
  EXPECT_EQ(t.name(), N("Sales"));
  EXPECT_EQ(t.ColumnAttribute(1), N("Part"));
  EXPECT_EQ(t.ColumnAttribute(3), N("Sold"));
  EXPECT_EQ(t.RowAttribute(1), NUL());
  EXPECT_EQ(t.Data(1, 1), V("nuts"));
  EXPECT_EQ(t.Data(8, 3), V("40"));
}

TEST(TableTest, FromRowsRejectsRagged) {
  auto r = Table::FromRows({{N("T"), N("A")}, {NUL()}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, FromRowsRejectsEmpty) {
  EXPECT_FALSE(Table::FromRows({}).ok());
}

TEST(TableTest, AppendRowAndColumn) {
  Table t = Table::Parse({{"!T", "!A"}});
  t.AppendRow({NUL(), V("1")});
  EXPECT_EQ(t.height(), 1u);
  t.AppendColumn({N("B"), V("2")});
  EXPECT_EQ(t.width(), 2u);
  EXPECT_EQ(t.Data(1, 2), V("2"));
  EXPECT_EQ(t.ColumnAttribute(2), N("B"));
}

TEST(TableTest, ColumnsNamedFindsAllOccurrences) {
  Table t = fixtures::SalesInfo2Table(/*with_summaries=*/false);
  EXPECT_EQ(t.ColumnsNamed(N("Sold")).size(), 4u);
  EXPECT_EQ(t.ColumnsNamed(N("Part")).size(), 1u);
  EXPECT_TRUE(t.ColumnsNamed(N("Absent")).empty());
}

TEST(TableTest, RowsNamed) {
  Table t = fixtures::SalesInfo2Table(/*with_summaries=*/true);
  EXPECT_EQ(t.RowsNamed(N("Region")).size(), 1u);
  EXPECT_EQ(t.RowsNamed(N("Total")).size(), 1u);
  EXPECT_EQ(t.RowsNamed(NUL()).size(), 3u);
}

TEST(TableTest, RowEntriesIsASet) {
  // ρ_i(a) collects entries from all columns named a, as a set.
  Table t = fixtures::SalesInfo2Table(/*with_summaries=*/false);
  SymbolSet nuts_sold = t.RowEntries(2, N("Sold"));
  EXPECT_EQ(nuts_sold.size(), 4u);  // {50, 60, ⊥, 40}
  EXPECT_TRUE(nuts_sold.contains(V("50")));
  EXPECT_TRUE(nuts_sold.contains(NUL()));
}

TEST(TableTest, RowEntriesForAbsentAttributeIsEmpty) {
  Table t = fixtures::SalesFlat();
  EXPECT_TRUE(t.RowEntries(1, N("Absent")).empty());
}

TEST(TableTest, RowSubsumptionBasics) {
  Table a = Table::Parse({{"!T", "!A", "!B"}, {"#", "x", "#"}});
  Table b = Table::Parse({{"!T", "!A", "!B"}, {"#", "x", "y"}});
  // a's row has A={x}, B={⊥}; b's has A={x}, B={y}: a ⊑ b but not b ⊑ a.
  EXPECT_TRUE(Table::RowSubsumed(a, 1, b, 1));
  EXPECT_FALSE(Table::RowSubsumed(b, 1, a, 1));
  EXPECT_FALSE(Table::RowsSubsumeEachOther(a, 1, b, 1));
}

TEST(TableTest, RowSubsumptionAcrossDifferentSchemes) {
  // Attribute present in only one table: the other side reads the empty
  // set, which weakly contains only ⊥.
  Table a = Table::Parse({{"!T", "!A"}, {"#", "x"}});
  Table b = Table::Parse({{"!T", "!A", "!B"}, {"#", "x", "y"}});
  EXPECT_TRUE(Table::RowSubsumed(a, 1, b, 1));
  EXPECT_FALSE(Table::RowSubsumed(b, 1, a, 1));
}

TEST(TableTest, SubsumptionWithRepeatedAttributes) {
  Table a = Table::Parse({{"!T", "!S", "!S"}, {"#", "1", "#"}});
  Table b = Table::Parse({{"!T", "!S", "!S"}, {"#", "#", "1"}});
  // Both rows have S-set {1, ⊥}: mutually subsumed despite positions.
  EXPECT_TRUE(Table::RowsSubsumeEachOther(a, 1, b, 1));
}

TEST(TableTest, TransposedSwapsRegions) {
  Table t = fixtures::SalesFlat();
  Table tt = t.Transposed();
  EXPECT_EQ(tt.height(), t.width());
  EXPECT_EQ(tt.width(), t.height());
  EXPECT_EQ(tt.name(), t.name());
  EXPECT_EQ(tt.RowAttribute(1), N("Part"));
  EXPECT_EQ(tt.at(1, 1), V("nuts"));
  EXPECT_TRUE(tt.Transposed() == t);
}

TEST(TableTest, ColumnEntriesIsRowEntriesDual) {
  Table t = fixtures::SalesInfo2Table(false);
  Table tt = t.Transposed();
  EXPECT_EQ(t.RowEntries(2, N("Sold")), tt.ColumnEntries(2, N("Sold")));
}

TEST(TableTest, AllSymbolsCollectsEverything) {
  Table t = Table::Parse({{"!T", "!A"}, {"#", "x"}});
  SymbolSet s = t.AllSymbols();
  EXPECT_TRUE(s.contains(N("T")));
  EXPECT_TRUE(s.contains(N("A")));
  EXPECT_TRUE(s.contains(V("x")));
  EXPECT_TRUE(s.contains(NUL()));
  EXPECT_EQ(s.size(), 4u);
}

TEST(TableTest, HasDataRows) {
  EXPECT_FALSE(Table::Parse({{"!T", "!A"}}).HasDataRows());
  EXPECT_TRUE(fixtures::SalesFlat().HasDataRows());
}

// -- Sparse columns ------------------------------------------------------------

// Entries at both edges of chunks 0 and 1 of a three-chunk column; chunk 2
// is all ⊥.
constexpr size_t kSparseRows = 10000;

std::vector<Column::Entry> EdgeEntries() {
  return {{0, V("a")}, {4095, V("b")}, {4096, V("c")}, {8191, V("d")}};
}

Column DenseTwin(const std::vector<Column::Entry>& entries, size_t n) {
  Column dense(n);
  for (const Column::Entry& e : entries) dense.Set(e.row, e.value);
  return dense;
}

std::vector<Column::Entry> NonNullCells(const Column& col) {
  std::vector<Column::Entry> out;
  col.ForEachNonNull([&](size_t row, Symbol v) { out.push_back({row, v}); });
  return out;
}

TEST(SparseColumnTest, FromEntriesPicksTheFormByDensity) {
  using Entries = std::vector<Column::Entry>;
  const Entries four = {{3, V("x")}, {9, V("y")}, {60, V("z")}, {62, V("w")}};
  EXPECT_TRUE(Column::FromEntries(64, four).is_sparse());
  EXPECT_FALSE(Column::FromEntries(63, four).is_sparse());
  // ⊥ entries are skipped before the count.
  const Column c = Column::FromEntries(16, Entries{{1, NUL()}, {2, V("x")}});
  EXPECT_TRUE(c.is_sparse());
  EXPECT_EQ(NonNullCells(c), (std::vector<Column::Entry>{{2, V("x")}}));
}

TEST(SparseColumnTest, ReadsMatchTheDenseTwin) {
  const Column sparse = Column::FromEntries(kSparseRows, EdgeEntries());
  const Column dense = DenseTwin(EdgeEntries(), kSparseRows);
  ASSERT_TRUE(sparse.is_sparse());
  ASSERT_FALSE(dense.is_sparse());
  for (size_t i = 0; i < kSparseRows; ++i) {
    ASSERT_EQ(sparse.Get(i), dense.Get(i)) << "row " << i;
  }
  ASSERT_EQ(sparse.num_chunks(), 3u);
  for (size_t c = 0; c < sparse.num_chunks(); ++c) {
    std::vector<Symbol> scratch;
    const Symbol* ps = sparse.ChunkView(c, &scratch);
    const Symbol* pd = dense.ChunkView(c, nullptr);
    ASSERT_EQ(ps == nullptr, pd == nullptr) << "chunk " << c;
    if (ps == nullptr) continue;
    EXPECT_TRUE(std::equal(ps, ps + sparse.ChunkLen(c), pd)) << "chunk " << c;
  }
  EXPECT_EQ(NonNullCells(sparse), EdgeEntries());
  EXPECT_EQ(NonNullCells(dense), EdgeEntries());
}

TEST(SparseColumnTest, EqualityHoldsAcrossForms) {
  const Column sparse = Column::FromEntries(kSparseRows, EdgeEntries());
  const Column dense = DenseTwin(EdgeEntries(), kSparseRows);
  EXPECT_TRUE(sparse == dense);
  EXPECT_TRUE(dense == sparse);
  EXPECT_TRUE(sparse == Column::FromEntries(kSparseRows, EdgeEntries()));
  std::vector<Column::Entry> moved = EdgeEntries();
  moved[2].row = 4097;
  const Column other = Column::FromEntries(kSparseRows, moved);
  EXPECT_FALSE(sparse == other);
  EXPECT_FALSE(other == dense);
  EXPECT_FALSE(dense == other);
  EXPECT_FALSE(sparse == Column(kSparseRows));
  EXPECT_FALSE(Column(kSparseRows) == sparse);
}

TEST(SparseColumnTest, AllSymbolsCountsBottomOnlyWhenPresent) {
  const Table with_bottom = Table::FromColumns(
      N("T"), {N("A")}, SymbolVec(kSparseRows),
      {Column::FromEntries(kSparseRows, EdgeEntries())});
  ASSERT_TRUE(with_bottom.DataColumn(1).is_sparse());
  EXPECT_EQ(with_bottom.AllSymbols(),
            (SymbolSet{N("T"), N("A"), NUL(), V("a"), V("b"), V("c"),
                       V("d")}));
  // A dense column with no ⊥ cell beside attributes that are not ⊥.
  Column full;
  full.AppendFill(V("a"), 3);
  const Table without_bottom = Table::FromColumns(
      N("T"), {N("A")}, {N("r"), N("r"), N("r")}, {std::move(full)});
  EXPECT_EQ(without_bottom.AllSymbols(),
            (SymbolSet{N("T"), N("A"), N("r"), V("a")}));
}

TEST(SparseColumnTest, AppendRangeFromASparseSource) {
  const Column sparse = Column::FromEntries(kSparseRows, EdgeEntries());
  const Column dense = DenseTwin(EdgeEntries(), kSparseRows);
  for (const auto& [begin, n] : std::vector<std::pair<size_t, size_t>>{
           {0, kSparseRows}, {4000, 200}, {4090, 4102}, {8192, 1808}}) {
    Column from_sparse;
    from_sparse.AppendNulls(7);
    from_sparse.AppendRange(sparse, begin, n);
    Column from_dense;
    from_dense.AppendNulls(7);
    from_dense.AppendRange(dense, begin, n);
    EXPECT_TRUE(from_sparse == from_dense) << begin << "+" << n;
    EXPECT_EQ(from_sparse.size(), 7 + n);
  }
}

TEST(SparseColumnTest, ResizeNullDropsEntriesAndSetConverts) {
  Column sparse = Column::FromEntries(kSparseRows, EdgeEntries());
  sparse.ResizeNull(4096);
  EXPECT_TRUE(sparse.is_sparse());
  EXPECT_EQ(sparse.size(), 4096u);
  EXPECT_EQ(NonNullCells(sparse),
            (std::vector<Column::Entry>{{0, V("a")}, {4095, V("b")}}));
  // Growing again yields ⊥ cells, not the dropped entries.
  sparse.ResizeNull(kSparseRows);
  EXPECT_TRUE(sparse.Get(4096).is_null());
  EXPECT_TRUE(sparse.Get(8191).is_null());
  EXPECT_TRUE(sparse ==
              DenseTwin({{0, V("a")}, {4095, V("b")}}, kSparseRows));

  Column written = Column::FromEntries(kSparseRows, EdgeEntries());
  written.Set(5, V("z"));
  EXPECT_FALSE(written.is_sparse());
  Column expected = DenseTwin(EdgeEntries(), kSparseRows);
  expected.Set(5, V("z"));
  EXPECT_TRUE(written == expected);
  EXPECT_EQ(written.Get(5), V("z"));
  EXPECT_EQ(written.Get(8191), V("d"));
}

/// A table of `cols` sparse columns; column j holds the edge entries with
/// row 4096 moved to 4096 + j, plus a dense column of row labels.
Table SparseTable(size_t cols) {
  std::vector<Column> data;
  SymbolVec col_attrs;
  for (size_t j = 0; j < cols; ++j) {
    std::vector<Column::Entry> entries = EdgeEntries();
    entries[2].row = 4096 + j;
    data.push_back(Column::FromEntries(kSparseRows, std::move(entries)));
    col_attrs.push_back(N("S"));
  }
  Column labels;
  for (size_t i = 0; i < kSparseRows; ++i) labels.Append(V(i % 2 ? "o" : "e"));
  data.push_back(std::move(labels));
  col_attrs.push_back(N("L"));
  return Table::FromColumns(N("T"), std::move(col_attrs),
                            SymbolVec(kSparseRows, N("r")), std::move(data));
}

TEST(SparseColumnTest, TransposeTwiceIsTheIdentityOnMixedForms) {
  const Table t = SparseTable(3);
  ASSERT_TRUE(t.DataColumn(1).is_sparse());
  ASSERT_FALSE(t.DataColumn(4).is_sparse());
  const Table tt = t.Transposed();
  EXPECT_EQ(tt.height(), t.width());
  EXPECT_EQ(tt.width(), t.height());
  for (size_t i : {size_t{1}, size_t{4096}, size_t{4097}, size_t{8192},
                   size_t{9000}}) {
    for (size_t j = 1; j <= t.width(); ++j) {
      EXPECT_EQ(tt.at(j, i), t.at(i, j)) << i << "," << j;
    }
  }
  EXPECT_TRUE(tt.Transposed() == t);
}

TEST(SparseColumnTest, ConcurrentReadsOfASharedTable) {
  const Table t = SparseTable(16);
  const Table copy = t;
  std::vector<std::thread> readers;
  std::vector<int> ok(8, 0);
  for (size_t k = 0; k < ok.size(); ++k) {
    readers.emplace_back([&, k] {
      bool good = t == copy;
      std::vector<Symbol> scratch;
      for (size_t j = 1; j <= t.width(); ++j) {
        const Column& col = t.DataColumn(j);
        size_t non_null = 0;
        col.ForEachNonNull([&](size_t row, Symbol v) {
          good = good && col.Get(row) == v;
          ++non_null;
        });
        good = good && non_null == (col.is_sparse() ? 4 : kSparseRows);
        for (size_t c = 0; c < col.num_chunks(); ++c) {
          const Symbol* p = col.ChunkView(c, &scratch);
          if (p == nullptr) continue;
          for (size_t i = 0; i < col.ChunkLen(c); ++i) {
            good = good && p[i] == col.Get(c * Column::kChunkSize + i);
          }
        }
      }
      ok[k] = good ? 1 : 0;
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(ok, std::vector<int>(ok.size(), 1));
}

}  // namespace
}  // namespace tabular::core
