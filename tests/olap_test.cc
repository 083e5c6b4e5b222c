#include "olap/cube.h"

#include <gtest/gtest.h>

#include "algebra/cleanup.h"
#include "algebra/restructure.h"
#include "core/compare.h"
#include "core/sales_data.h"
#include "olap/hierarchy.h"
#include "olap/pivot.h"
#include "olap/summarize.h"
#include "relational/canonical.h"
#include "tests/test_util.h"

namespace tabular::olap {
namespace {

using core::Table;
using rel::Relation;
using ::tabular::testing::N;
using ::tabular::testing::NUL;
using ::tabular::testing::V;

Relation SalesRelation() {
  auto r = rel::TableToRelation(fixtures::SalesFlat());
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Aggregation / classification (§5 ongoing-work operations)
// ---------------------------------------------------------------------------

TEST(AccumulatorTest, AllFunctions) {
  for (auto [fn, expect] :
       std::vector<std::pair<AggFn, const char*>>{{AggFn::kSum, "60"},
                                                  {AggFn::kCount, "3"},
                                                  {AggFn::kMin, "10"},
                                                  {AggFn::kMax, "30"},
                                                  {AggFn::kAvg, "20"}}) {
    Accumulator acc(fn);
    for (const char* v : {"10", "20", "30"}) {
      ASSERT_TRUE(acc.Add(core::Symbol::Value(v)).ok());
    }
    EXPECT_EQ(acc.Finish(), V(expect)) << AggFnToString(fn);
  }
}

TEST(AccumulatorTest, NullsSkippedNonNumeralsRejected) {
  Accumulator acc(AggFn::kSum);
  EXPECT_TRUE(acc.Add(core::Symbol::Null()).ok());
  EXPECT_FALSE(acc.Add(V("nuts")).ok());
  Accumulator count(AggFn::kCount);
  EXPECT_TRUE(count.Add(V("nuts")).ok());
  EXPECT_EQ(count.Finish(), V("1"));
}

TEST(AccumulatorTest, EmptyAggregates) {
  EXPECT_EQ(Accumulator(AggFn::kSum).Finish(), V("0"));
  EXPECT_EQ(Accumulator(AggFn::kCount).Finish(), V("0"));
  EXPECT_TRUE(Accumulator(AggFn::kMin).Finish().is_null());
  EXPECT_TRUE(Accumulator(AggFn::kAvg).Finish().is_null());
}

TEST(GroupAggregateTest, PerPartTotalsMatchFigure1) {
  auto r = GroupAggregate(SalesRelation(), {N("Part")}, N("Sold"),
                          AggFn::kSum, N("Total"), N("TotalPartSales"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Relation want = Relation::Make(
      "TotalPartSales", {"Part", "Total"},
      {{"nuts", "150"}, {"screws", "160"}, {"bolts", "110"}});
  EXPECT_TRUE(*r == want);
}

TEST(GroupAggregateTest, PerRegionTotalsMatchFigure1) {
  auto r = GroupAggregate(SalesRelation(), {N("Region")}, N("Sold"),
                          AggFn::kSum, N("Total"), N("TotalRegionSales"));
  ASSERT_TRUE(r.ok());
  Relation want = Relation::Make("TotalRegionSales", {"Region", "Total"},
                                 {{"east", "120"},
                                  {"west", "110"},
                                  {"north", "100"},
                                  {"south", "90"}});
  EXPECT_TRUE(*r == want);
}

TEST(ClassifyTest, BinsNumericAttribute) {
  std::vector<Bin> bins{{V("low"), 0, 50}, {V("high"), 50, 1000}};
  auto r = Classify(SalesRelation(), N("Sold"), bins, N("Class"), N("C"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains({V("nuts"), V("south"), V("40"), V("low")}));
  EXPECT_TRUE(r->Contains({V("bolts"), V("east"), V("70"), V("high")}));
}

TEST(ClassifyTest, UnmatchedValuesGetNull) {
  Relation m = Relation::Make("m", {"v"}, {{"5"}, {"x"}});
  std::vector<Bin> bins{{V("ten"), 10, 20}};
  auto r = Classify(m, N("v"), bins, N("c"), N("C"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains({V("5"), NUL()}));
  EXPECT_TRUE(r->Contains({V("x"), NUL()}));
}

// ---------------------------------------------------------------------------
// Pivot / unpivot (§4.3): TA pipeline vs hash baseline
// ---------------------------------------------------------------------------

TEST(PivotTest, AlgebraPipelineReproducesSalesInfo2) {
  auto t = PivotViaAlgebra(SalesRelation(), N("Part"), N("Region"),
                           N("Sold"), N("Sales"));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TABLE_EQUIV(*t, fixtures::SalesInfo2Table(false));
}

TEST(PivotTest, HashBaselineAgreesWithAlgebra) {
  auto a = PivotViaAlgebra(SalesRelation(), N("Part"), N("Region"),
                           N("Sold"), N("Sales"));
  auto h = PivotHash(SalesRelation(), N("Part"), N("Region"), N("Sold"),
                     N("Sales"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(h.ok());
  EXPECT_TABLE_EQUIV(*a, *h);
}

TEST(PivotTest, HashBaselineOnSynthetic) {
  Table flat = fixtures::SyntheticSales(20, 10);
  auto facts = rel::TableToRelation(flat);
  ASSERT_TRUE(facts.ok());
  auto a = PivotViaAlgebra(*facts, N("Part"), N("Region"), N("Sold"),
                           N("S"));
  auto h = PivotHash(*facts, N("Part"), N("Region"), N("Sold"), N("S"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(h.ok());
  EXPECT_TABLE_EQUIV(*a, *h);
}

TEST(PivotTest, HashBaselineAgreesWithGroupCleanPurgeOfSparseColumns) {
  // Figure 1's SalesInfo1 → SalesInfo2 at the benchmark's scale: GROUP's
  // per-row columns, and CLEAN-UP's and PURGE's tables built from them,
  // take the sparse form here.
  Table flat = fixtures::SyntheticSales(300, 16);
  auto grouped =
      algebra::Group(flat, {N("Region")}, {N("Sold")}, N("Sales"));
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->DataColumn(grouped->width()).is_sparse());
  auto cleaned = algebra::CleanUp(*grouped, {N("Part")}, {NUL()}, N("Sales"));
  ASSERT_TRUE(cleaned.ok());
  auto pivoted =
      algebra::Purge(*cleaned, {N("Sold")}, {N("Region")}, N("Sales"));
  ASSERT_TRUE(pivoted.ok());
  auto facts = rel::TableToRelation(flat);
  ASSERT_TRUE(facts.ok());
  auto h = PivotHash(*facts, N("Part"), N("Region"), N("Sold"), N("Sales"));
  ASSERT_TRUE(h.ok());
  EXPECT_TABLE_EQUIV(*pivoted, *h);
}

TEST(PivotTest, ConflictingCellsRejected) {
  Relation dup = Relation::Make(
      "R", {"Part", "Region", "Sold"},
      {{"nuts", "east", "1"}, {"nuts", "east", "2"}});
  EXPECT_FALSE(
      PivotHash(dup, N("Part"), N("Region"), N("Sold"), N("S")).ok());
}

TEST(UnpivotTest, AlgebraRoundTrip) {
  auto r = UnpivotViaAlgebra(fixtures::SalesInfo2Table(false), N("Region"),
                             N("Sold"), N("Sales"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto aligned = rel::Project(*r, {N("Part"), N("Region"), N("Sold")},
                              N("Sales"));
  ASSERT_TRUE(aligned.ok());
  EXPECT_TRUE(*aligned == SalesRelation());
}

TEST(UnpivotTest, HashAgreesWithAlgebra) {
  auto a = UnpivotViaAlgebra(fixtures::SalesInfo2Table(false), N("Region"),
                             N("Sold"), N("Sales"));
  auto h = UnpivotHash(fixtures::SalesInfo2Table(false), N("Region"),
                       N("Sold"), N("Sales"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(h.ok());
  auto a2 = rel::Project(*a, h->attributes(), N("Sales"));
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(*a2 == *h);
}

TEST(CrossTabTest, ReproducesSalesInfo3) {
  auto t = CrossTab(SalesRelation(), N("Region"), N("Part"), N("Sold"),
                    N("Sales"));
  ASSERT_TRUE(t.ok());
  EXPECT_TABLE_EQUIV(*t, fixtures::SalesInfo3Table(false));
}

// ---------------------------------------------------------------------------
// Summary absorption (Figure 1's regular-outline cells)
// ---------------------------------------------------------------------------

TEST(SummarizeTest, AbsorbTotalsReproducesSalesInfo2WithSummaries) {
  auto t = AbsorbTotals(fixtures::SalesInfo2Table(false), N("Region"),
                        N("Sold"), AggFn::kSum, N("Total"));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TABLE_EXACT(*t, fixtures::SalesInfo2Table(true));
}

TEST(SummarizeTest, CrossTabTotalsReproduceSalesInfo3WithSummaries) {
  auto t = AbsorbCrossTabTotals(fixtures::SalesInfo3Table(false),
                                AggFn::kSum, N("Total"));
  ASSERT_TRUE(t.ok());
  EXPECT_TABLE_EXACT(*t, fixtures::SalesInfo3Table(true));
}

TEST(SummarizeTest, SummaryRowSkipsNonNumerals) {
  auto t = AddSummaryRow(fixtures::SalesFlat(), AggFn::kSum, N("Total"));
  ASSERT_TRUE(t.ok());
  size_t last = t->num_rows() - 1;
  EXPECT_EQ(t->at(last, 0), N("Total"));
  EXPECT_TRUE(t->at(last, 1).is_null());     // Part column: no numerals
  EXPECT_EQ(t->at(last, 3), V("420"));       // Sold column: grand total
}

TEST(SummarizeTest, SummaryRowExcludesPriorSummaries) {
  auto once = AddSummaryRow(fixtures::SalesFlat(), AggFn::kSum, N("Total"));
  ASSERT_TRUE(once.ok());
  auto twice = AddSummaryRow(*once, AggFn::kSum, N("Total"));
  ASSERT_TRUE(twice.ok());
  size_t last = twice->num_rows() - 1;
  EXPECT_EQ(twice->at(last, 3), V("420"));  // not 840
}

// ---------------------------------------------------------------------------
// Cube (n-dimensional generalization)
// ---------------------------------------------------------------------------

Cube SalesCube() {
  auto c = Cube::Make(SalesRelation(), {N("Part"), N("Region")}, N("Sold"));
  EXPECT_TRUE(c.ok());
  return std::move(c).value();
}

TEST(CubeTest, ValidatesConstruction) {
  EXPECT_FALSE(Cube::Make(SalesRelation(), {}, N("Sold")).ok());
  EXPECT_FALSE(
      Cube::Make(SalesRelation(), {N("Nope")}, N("Sold")).ok());
  EXPECT_FALSE(
      Cube::Make(SalesRelation(), {N("Sold")}, N("Sold")).ok());
  EXPECT_FALSE(Cube::Make(SalesRelation(), {N("Part"), N("Part")},
                          N("Sold"))
                   .ok());
}

TEST(CubeTest, RollupMatchesFigure1Summaries) {
  Cube c = SalesCube();
  auto part = c.Rollup({N("Part")}, AggFn::kSum, N("T"));
  ASSERT_TRUE(part.ok());
  EXPECT_TRUE(part->Contains({V("nuts"), V("150")}));
  auto grand = c.Rollup({}, AggFn::kSum, N("T"));
  ASSERT_TRUE(grand.ok());
  EXPECT_TRUE(grand->Contains({V("420")}));
}

TEST(CubeTest, SliceRemovesDimension) {
  Cube c = SalesCube();
  auto east = c.Slice(N("Region"), V("east"));
  ASSERT_TRUE(east.ok()) << east.status().ToString();
  EXPECT_EQ(east->dimensions().size(), 1u);
  EXPECT_EQ(east->facts().size(), 2u);  // nuts-east, bolts-east
  EXPECT_FALSE(east->Slice(N("Part"), V("nuts")).ok());  // last dimension
}

TEST(CubeTest, DiceKeepsDimension) {
  Cube c = SalesCube();
  core::SymbolSet coasts{V("east"), V("west")};
  auto diced = c.Dice(N("Region"), coasts);
  ASSERT_TRUE(diced.ok());
  EXPECT_EQ(diced->dimensions().size(), 2u);
  EXPECT_EQ(diced->facts().size(), 4u);
}

TEST(CubeTest, CubeAggregateCoversAllSubsets) {
  Cube c = SalesCube();
  auto r = c.CubeAggregate(AggFn::kSum, N("Total"), N("CubeOut"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 8 base cells + 3 part totals + 4 region totals + 1 grand = 16.
  EXPECT_EQ(r->size(), 16u);
  EXPECT_TRUE(r->Contains({V("nuts"), N("Total"), V("150")}));
  EXPECT_TRUE(r->Contains({N("Total"), V("east"), V("120")}));
  EXPECT_TRUE(r->Contains({N("Total"), N("Total"), V("420")}));
}

TEST(CubeTest, PivotViewsMatchFigures) {
  Cube c = SalesCube();
  auto pivot = c.ToPivotTable(N("Part"), N("Region"), AggFn::kSum,
                              N("Sales"));
  ASSERT_TRUE(pivot.ok());
  EXPECT_TABLE_EQUIV(*pivot, fixtures::SalesInfo2Table(false));
  auto cross = c.ToCrossTab(N("Region"), N("Part"), AggFn::kSum,
                            N("Sales"));
  ASSERT_TRUE(cross.ok());
  EXPECT_TABLE_EQUIV(*cross, fixtures::SalesInfo3Table(false));
}

TEST(CubeTest, ThreeDimensionalRollups) {
  Relation facts = Relation::Make(
      "F", {"Part", "Region", "Year", "Sold"},
      {{"nuts", "east", "1995", "20"},
       {"nuts", "east", "1996", "30"},
       {"nuts", "west", "1995", "60"},
       {"bolts", "east", "1995", "70"}});
  auto c = Cube::Make(facts, {N("Part"), N("Region"), N("Year")}, N("Sold"));
  ASSERT_TRUE(c.ok());
  auto by_py = c->Rollup({N("Part"), N("Year")}, AggFn::kSum, N("T"));
  ASSERT_TRUE(by_py.ok());
  EXPECT_TRUE(by_py->Contains({V("nuts"), V("1995"), V("80")}));
  auto cube_all = c->CubeAggregate(AggFn::kSum, N("Total"), N("T"));
  ASSERT_TRUE(cube_all.ok());
  EXPECT_TRUE(cube_all->Contains({N("Total"), N("Total"), N("Total"),
                                  V("180")}));
  // 2-D view through the tabular model aggregates the year away.
  auto pivot = c->ToPivotTable(N("Part"), N("Region"), AggFn::kSum, N("P"));
  ASSERT_TRUE(pivot.ok());
  EXPECT_TABLE_EQUIV(*pivot, *PivotHash(Relation::Make(
                                 "P", {"Part", "Region", "Sold"},
                                 {{"nuts", "east", "50"},
                                  {"nuts", "west", "60"},
                                  {"bolts", "east", "70"}}),
                             N("Part"), N("Region"), N("Sold"), N("P")));
}

// ---------------------------------------------------------------------------
// Dimension hierarchies (drill-up)
// ---------------------------------------------------------------------------

Hierarchy RegionHierarchy() {
  Hierarchy h(N("Region"));
  h.AddLevel(N("Coast"),
             {{V("east"), V("atlantic")},
              {V("west"), V("pacific")},
              {V("north"), V("atlantic")},
              {V("south"), V("pacific")}});
  h.AddLevel(N("Country"), {{V("atlantic"), V("us")},
                            {V("pacific"), V("us")}});
  return h;
}

TEST(HierarchyTest, AncestorsAndPaths) {
  Hierarchy h = RegionHierarchy();
  EXPECT_EQ(h.AncestorAt(V("east"), N("Region")).value(), V("east"));
  EXPECT_EQ(h.AncestorAt(V("east"), N("Coast")).value(), V("atlantic"));
  EXPECT_EQ(h.AncestorAt(V("west"), N("Country")).value(), V("us"));
  EXPECT_FALSE(h.AncestorAt(V("mars"), N("Coast")).ok());
  EXPECT_FALSE(h.AncestorAt(V("east"), N("Galaxy")).ok());
  auto path = h.Path(V("south"));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, (core::SymbolVec{V("south"), V("pacific"), V("us")}));
}

TEST(HierarchyTest, DrillUpReaggregates) {
  Hierarchy h = RegionHierarchy();
  auto coast = h.DrillUp(SalesRelation(), N("Region"), N("Sold"),
                         N("Coast"), AggFn::kSum, N("ByCoast"));
  ASSERT_TRUE(coast.ok()) << coast.status().ToString();
  // atlantic = east + north = 120 + 100; pacific = west + south = 110 + 90
  // — but per part: nuts-atlantic = 50, nuts-pacific = 60 + 40, ...
  EXPECT_TRUE(coast->Contains({V("nuts"), V("atlantic"), V("50")}));
  EXPECT_TRUE(coast->Contains({V("nuts"), V("pacific"), V("100")}));
  EXPECT_TRUE(coast->Contains({V("screws"), V("atlantic"), V("60")}));
  auto country = h.DrillUp(SalesRelation(), N("Region"), N("Sold"),
                           N("Country"), AggFn::kSum, N("ByCountry"));
  ASSERT_TRUE(country.ok());
  EXPECT_TRUE(country->Contains({V("nuts"), V("us"), V("150")}));
  EXPECT_TRUE(country->Contains({V("bolts"), V("us"), V("110")}));
}

TEST(HierarchyTest, DrillUpAtLeafIsGroupAggregate) {
  Hierarchy h = RegionHierarchy();
  auto leaf = h.DrillUp(SalesRelation(), N("Region"), N("Sold"),
                        N("Region"), AggFn::kSum, N("Leaf"));
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(leaf->size(), SalesRelation().size());
}

TEST(HierarchyTest, UnmappedMemberRejected) {
  Hierarchy h = RegionHierarchy();
  Relation facts = Relation::Make("F", {"Region", "Sold"},
                                  {{"mars", "5"}});
  EXPECT_FALSE(h.DrillUp(facts, N("Region"), N("Sold"), N("Coast"),
                         AggFn::kSum, N("X"))
                   .ok());
}

}  // namespace
}  // namespace tabular::olap
