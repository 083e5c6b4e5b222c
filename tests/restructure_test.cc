#include "algebra/restructure.h"

#include <gtest/gtest.h>

#include "algebra/cleanup.h"
#include "core/sales_data.h"
#include "tests/test_util.h"

namespace tabular::algebra {
namespace {

using core::Table;
using fixtures::Figure4GroupedGolden;
using fixtures::Figure4Input;
using fixtures::Figure5MergedGolden;
using fixtures::SalesFlat;
using ::tabular::testing::N;
using ::tabular::testing::NUL;
using ::tabular::testing::V;

// ---------------------------------------------------------------------------
// GROUP (paper §3.2, Figure 4)
// ---------------------------------------------------------------------------

TEST(GroupTest, Figure4GoldenExact) {
  // Sales <- GROUP by Region on Sold (Sales), applied to Figure 4 top,
  // must produce Figure 4 bottom cell for cell.
  auto r = Group(Figure4Input(), {N("Region")}, {N("Sold")}, N("Sales"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TABLE_EXACT(*r, Figure4GroupedGolden());
}

TEST(GroupTest, WidthDependsOnInstance) {
  // The paper stresses the width of a grouped table depends on the data:
  // |kept| + height * |on-block|.
  Table t = fixtures::SyntheticSales(10, 5, /*sparsity_permille=*/0);
  auto r = Group(t, {N("Region")}, {N("Sold")}, N("G"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->width(), 1 + t.height());
  EXPECT_EQ(r->height(), t.height() + 1);  // + leading Region row
}

TEST(GroupTest, LeadingRowCarriesGroupingValues) {
  auto r = Group(Figure4Input(), {N("Region")}, {N("Sold")}, N("Sales"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->RowAttribute(1), N("Region"));
  EXPECT_EQ(r->Data(1, 2), V("east"));   // input row 1's region
  EXPECT_EQ(r->Data(1, 9), V("north"));  // input row 8's region
}

TEST(GroupTest, MultipleByAttributesGetOneLeadingRowEach) {
  Table t = Table::Parse({
      {"!T", "!A", "!B", "!C"},
      {"#", "a1", "b1", "c1"},
      {"#", "a2", "b2", "c2"},
  });
  auto r = Group(t, {N("A"), N("B")}, {N("C")}, N("T"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->height(), 4u);  // 2 leading rows + 2 data rows
  EXPECT_EQ(r->RowAttribute(1), N("A"));
  EXPECT_EQ(r->RowAttribute(2), N("B"));
  EXPECT_EQ(r->width(), 2u);  // no kept columns; 2 C-blocks of size 1
}

TEST(GroupTest, RejectsOverlappingParameters) {
  auto r = Group(SalesFlat(), {N("Sold")}, {N("Sold")}, N("T"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GroupTest, RejectsEmptyParameters) {
  EXPECT_FALSE(Group(SalesFlat(), {}, {N("Sold")}, N("T")).ok());
  EXPECT_FALSE(Group(SalesFlat(), {N("Region")}, {}, N("T")).ok());
}

TEST(GroupTest, RejectsUnknownByAttribute) {
  auto r = Group(SalesFlat(), {N("Nope")}, {N("Sold")}, N("T"));
  EXPECT_FALSE(r.ok());
}

TEST(GroupTest, RejectsUnknownOnAttribute) {
  auto r = Group(SalesFlat(), {N("Region")}, {N("Nope")}, N("T"));
  EXPECT_FALSE(r.ok());
}

TEST(GroupTest, GroupOnEmptyTableYieldsLeadingRowsOnly) {
  Table t = Table::Parse({{"!T", "!A", "!B"}});
  auto r = Group(t, {N("A")}, {N("B")}, N("T"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->height(), 1u);  // just the A leading row
  EXPECT_EQ(r->width(), 0u);   // zero B-blocks
}

// ---------------------------------------------------------------------------
// MERGE (paper §3.2, Figure 5)
// ---------------------------------------------------------------------------

TEST(MergeTest, Figure5GoldenExact) {
  // Sales <- MERGE on Sold by Region, applied to SalesInfo2 (bold part),
  // must produce Figure 5 cell for cell (12 rows incl. ⊥ combinations).
  Table in = fixtures::SalesInfo2Table(/*with_summaries=*/false);
  auto r = Merge(in, {N("Sold")}, {N("Region")}, N("Sales"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TABLE_EXACT(*r, Figure5MergedGolden());
}

TEST(MergeTest, MergeOfGroupedIsEvenMoreUneconomical) {
  // Paper: merging Figure 4 bottom yields a representation of the top,
  // "but which is even more uneconomical" (64 rows here).
  auto r =
      Merge(Figure4GroupedGolden(), {N("Sold")}, {N("Region")}, N("Sales"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->height(), 64u);  // 8 data rows × 8 blocks
  // Selecting out the ⊥-Sold tuples recovers the original data rows.
  Table cleaned(1, r->num_cols());
  cleaned.set_name(r->name());
  for (size_t j = 1; j < r->num_cols(); ++j) cleaned.set(0, j, r->at(0, j));
  for (size_t i = 1; i <= r->height(); ++i) {
    if (!r->Data(i, 3).is_null()) cleaned.AppendRow(r->Row(i));
  }
  EXPECT_TABLE_EQUIV(cleaned, SalesFlat());
}

TEST(MergeTest, GroupThenMergeRecoversInputUpToRedundancy) {
  // MERGE on Sold by Region ∘ GROUP by Region on Sold ≈ identity modulo
  // the ⊥-padded tuples (select Sold ≠ ⊥ via a position filter). The
  // synthetic input is tall enough that GROUP's columns are sparse.
  for (const Table& in : {SalesFlat(), fixtures::SyntheticSales(40, 8)}) {
    auto grouped = Group(in, {N("Region")}, {N("Sold")}, N("Sales"));
    ASSERT_TRUE(grouped.ok());
    auto merged = Merge(*grouped, {N("Sold")}, {N("Region")}, N("Sales"));
    ASSERT_TRUE(merged.ok());
    Table filtered(1, merged->num_cols());
    filtered.set_name(merged->name());
    for (size_t j = 1; j < merged->num_cols(); ++j) {
      filtered.set(0, j, merged->at(0, j));
    }
    for (size_t i = 1; i <= merged->height(); ++i) {
      if (!merged->Data(i, 3).is_null()) filtered.AppendRow(merged->Row(i));
    }
    EXPECT_TABLE_EQUIV(filtered, in);
  }
}

TEST(MergeTest, RejectsWhenByNamesNoRow) {
  auto r = Merge(SalesFlat(), {N("Sold")}, {N("Region")}, N("T"));
  // SalesFlat has no row *named* Region (Region is a column there).
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeTest, RejectsWhenOnLabelsNoColumn) {
  Table in = fixtures::SalesInfo2Table(false);
  EXPECT_FALSE(Merge(in, {N("Nope")}, {N("Region")}, N("T")).ok());
}

TEST(MergeTest, ConsumesAllByRows) {
  Table in = fixtures::SalesInfo2Table(false);
  auto r = Merge(in, {N("Sold")}, {N("Region")}, N("Sales"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->RowsNamed(N("Region")).empty());
}

TEST(MergeTest, UnequalOccurrenceCountsPadWithNull) {
  // Two Sold columns, one Qty column: block 2 has no Qty and reads ⊥.
  Table t = Table::Parse({
      {"!T", "!Sold", "!Sold", "!Qty"},
      {"!K", "k1", "k2", "k1"},
      {"#", "5", "6", "9"},
  });
  auto r = Merge(t, {N("Sold"), N("Qty")}, {N("K")}, N("T"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->height(), 2u);
  EXPECT_EQ(r->Data(1, 1), V("k1"));
  EXPECT_EQ(r->Data(1, 2), V("5"));
  EXPECT_EQ(r->Data(1, 3), V("9"));
  EXPECT_EQ(r->Data(2, 1), V("k2"));
  EXPECT_EQ(r->Data(2, 2), V("6"));
  EXPECT_EQ(r->Data(2, 3), NUL());
}

// ---------------------------------------------------------------------------
// SPLIT / COLLAPSE (paper §3.2, Figure 1's SalesInfo4)
// ---------------------------------------------------------------------------

TEST(SplitTest, SplitOnRegionYieldsSalesInfo4Bold) {
  auto r = Split(SalesFlat(), {N("Region")}, N("Sales"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 4u);
  core::TabularDatabase got;
  for (const Table& t : *r) got.Add(t);
  EXPECT_TRUE(core::EquivalentDatabases(
      got, fixtures::SalesInfo4(/*with_summaries=*/false)))
      << "split result differs from Figure 1's SalesInfo4";
}

TEST(SplitTest, EachTableHasLiteralAttributeRow) {
  auto r = Split(SalesFlat(), {N("Region")}, N("Sales"));
  ASSERT_TRUE(r.ok());
  const Table& first = r->front();
  EXPECT_EQ(first.RowAttribute(1), N("Region"));
  // "the Region entry ... in all other positions of this row".
  EXPECT_EQ(first.Data(1, 1), V("east"));
  EXPECT_EQ(first.Data(1, 2), V("east"));
}

TEST(SplitTest, TableCountDependsOnInstance) {
  Table t = fixtures::SyntheticSales(4, 7, /*sparsity_permille=*/0);
  auto r = Split(t, {N("Region")}, N("S"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 7u);
}

TEST(SplitTest, RejectsUnknownAttribute) {
  EXPECT_FALSE(Split(SalesFlat(), {N("Nope")}, N("S")).ok());
  EXPECT_FALSE(Split(SalesFlat(), {}, N("S")).ok());
}

TEST(SplitTest, NullKeyFormsItsOwnGroup) {
  Table t = Table::Parse({
      {"!T", "!A", "!B"},
      {"#", "x", "1"},
      {"#", "#", "2"},
  });
  auto r = Split(t, {N("A")}, N("T"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(CollapseTest, CollapseInvertsSplitUpToRedundancy) {
  // Paper: COLLAPSE by Region applied to SalesInfo4's bold tables gives an
  // uneconomical representation of Figure 4 top, recoverable via §3.4.
  auto split = Split(SalesFlat(), {N("Region")}, N("Sales"));
  ASSERT_TRUE(split.ok());
  auto collapsed = Collapse(*split, {N("Region")}, N("Sales"));
  ASSERT_TRUE(collapsed.ok()) << collapsed.status().ToString();
  // Compact: purge duplicate column copies, then clean duplicate rows.
  core::SymbolVec all_attrs;
  for (core::Symbol a : {N("Part"), N("Region"), N("Sold")}) {
    all_attrs.push_back(a);
  }
  auto purged = Purge(*collapsed, all_attrs, all_attrs, N("Sales"));
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  auto cleaned = DeduplicateRows(*purged, N("Sales"));
  ASSERT_TRUE(cleaned.ok());
  EXPECT_TABLE_EQUIV(*cleaned, SalesFlat());
}

TEST(CollapseTest, EmptyInputYieldsMinimalNamedTable) {
  auto r = Collapse({}, {N("Region")}, N("T"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name(), N("T"));
  EXPECT_EQ(r->height(), 0u);
}

}  // namespace
}  // namespace tabular::algebra
