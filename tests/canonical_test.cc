#include "relational/canonical.h"

#include <gtest/gtest.h>

#include "core/compare.h"
#include "core/sales_data.h"
#include "tests/test_util.h"

namespace tabular::rel {
namespace {

using core::Table;
using core::TabularDatabase;
using ::tabular::testing::N;
using ::tabular::testing::V;

// ---------------------------------------------------------------------------
// Lemmas 4.2 / 4.3: P_Rep and P_Rep⁻, round trips
// ---------------------------------------------------------------------------

void ExpectRoundTrip(const TabularDatabase& db) {
  auto rep = CanonicalEncode(db);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(ValidateRep(*rep).ok());
  auto back = CanonicalDecode(*rep);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(core::EquivalentDatabases(db, *back))
      << "canonical round trip is not the identity up to permutation";
}

TEST(CanonicalTest, RoundTripSalesInfo1) {
  ExpectRoundTrip(fixtures::SalesInfo1(/*with_summaries=*/true));
}

TEST(CanonicalTest, RoundTripSalesInfo2) {
  ExpectRoundTrip(fixtures::SalesInfo2(true));
}

TEST(CanonicalTest, RoundTripSalesInfo3) {
  // Data in attribute positions must survive the encoding.
  ExpectRoundTrip(fixtures::SalesInfo3(true));
}

TEST(CanonicalTest, RoundTripSalesInfo4MultipleTablesOneName) {
  ExpectRoundTrip(fixtures::SalesInfo4(true));
}

TEST(CanonicalTest, RoundTripDegenerateTables) {
  TabularDatabase db;
  Table bare;  // single ⊥ cell
  bare.set_name(N("Bare"));
  db.Add(bare);
  db.Add(Table::Parse({{"!Wide", "!A", "!B"}}));           // height 0
  db.Add(Table::Parse({{"!Tall"}, {"!r1"}, {"#"}}));        // width 0
  ExpectRoundTrip(db);
}

TEST(CanonicalTest, RoundTripEmptyDatabase) {
  ExpectRoundTrip(TabularDatabase{});
}

TEST(CanonicalTest, EncodingHasFixedScheme) {
  auto rep = CanonicalEncode(fixtures::SalesInfo2(false));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->size(), 2u);
  ASSERT_TRUE(rep->Has(RepDataName()));
  ASSERT_TRUE(rep->Has(RepMapName()));
  EXPECT_EQ(rep->Get(RepDataName())->arity(), 4u);
  EXPECT_EQ(rep->Get(RepMapName())->arity(), 2u);
}

TEST(CanonicalTest, EveryOccurrenceGetsUniqueId) {
  // SalesFlat: 1 table name + 8 rows + 3 cols + 24 cells = 36 occurrences.
  TabularDatabase db = fixtures::SalesInfo1(false);
  auto rep = CanonicalEncode(db);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->Get(RepMapName())->size(), 36u);
  EXPECT_EQ(rep->Get(RepDataName())->size(), 24u);
}

TEST(CanonicalTest, FdViolationDetected) {
  RelationalDatabase rep;
  Relation map(RepMapName(), {N("Id"), N("Entry")});
  ASSERT_TRUE(map.Insert({V("id0"), V("x")}).ok());
  ASSERT_TRUE(map.Insert({V("id0"), V("y")}).ok());  // Id -> Entry broken
  Relation data(RepDataName(),
                {N("Tbl"), N("Row"), N("Col"), N("Val")});
  rep.Put(std::move(map));
  rep.Put(std::move(data));
  EXPECT_FALSE(ValidateRep(rep).ok());
  EXPECT_FALSE(CanonicalDecode(rep).ok());
}

TEST(CanonicalTest, DecodeFillsMissingCellsWithNull) {
  // A partial Data relation (legal: total tables simply decode ⊥ there).
  RelationalDatabase rep;
  Relation map(RepMapName(), {N("Id"), N("Entry")});
  ASSERT_TRUE(map.Insert({V("t"), N("T")}).ok());
  ASSERT_TRUE(map.Insert({V("r1"), core::Symbol::Null()}).ok());
  ASSERT_TRUE(map.Insert({V("r2"), core::Symbol::Null()}).ok());
  ASSERT_TRUE(map.Insert({V("c1"), N("A")}).ok());
  ASSERT_TRUE(map.Insert({V("c2"), N("B")}).ok());
  ASSERT_TRUE(map.Insert({V("v"), V("x")}).ok());
  Relation data(RepDataName(), {N("Tbl"), N("Row"), N("Col"), N("Val")});
  ASSERT_TRUE(data.Insert({V("t"), V("r1"), V("c1"), V("v")}).ok());
  ASSERT_TRUE(data.Insert({V("t"), V("r2"), V("c2"), V("v")}).ok());
  rep.Put(std::move(map));
  rep.Put(std::move(data));
  auto db = CanonicalDecode(rep);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->size(), 1u);
  const Table& t = db->tables()[0];
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.width(), 2u);
  // (r1, c2) and (r2, c1) were absent: ⊥.
  int nulls = 0;
  for (size_t i = 1; i <= 2; ++i) {
    for (size_t j = 1; j <= 2; ++j) {
      if (t.Data(i, j).is_null()) ++nulls;
    }
  }
  EXPECT_EQ(nulls, 2);
}

TEST(CanonicalTest, DecodeNamesTheFirstCellValueWithoutMapEntry) {
  // Two cells carry value ids with no Map entry; the error names the first
  // in Data order, (r1, c2).
  RelationalDatabase rep;
  Relation map(RepMapName(), {N("Id"), N("Entry")});
  ASSERT_TRUE(map.Insert({V("t"), N("T")}).ok());
  ASSERT_TRUE(map.Insert({V("r1"), core::Symbol::Null()}).ok());
  ASSERT_TRUE(map.Insert({V("r2"), core::Symbol::Null()}).ok());
  ASSERT_TRUE(map.Insert({V("c1"), N("A")}).ok());
  ASSERT_TRUE(map.Insert({V("c2"), N("B")}).ok());
  ASSERT_TRUE(map.Insert({V("v"), V("x")}).ok());
  Relation data(RepDataName(), {N("Tbl"), N("Row"), N("Col"), N("Val")});
  ASSERT_TRUE(data.Insert({V("t"), V("r1"), V("c1"), V("v")}).ok());
  ASSERT_TRUE(data.Insert({V("t"), V("r1"), V("c2"), V("w2")}).ok());
  ASSERT_TRUE(data.Insert({V("t"), V("r2"), V("c1"), V("w1")}).ok());
  rep.Put(std::move(map));
  rep.Put(std::move(data));
  auto db = CanonicalDecode(rep);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().message(), "id w2 has no Map entry");
}

// ---------------------------------------------------------------------------
// Genericity (§4.1 condition (i)) of the canonical pipeline
// ---------------------------------------------------------------------------

TEST(CanonicalTest, RoundTripCommutesWithValuePermutation) {
  // π ∘ (decode ∘ encode) ≡ (decode ∘ encode) ∘ π for a value permutation
  // π fixing names and ⊥ — both sides are just the database itself up to
  // permutation, but this exercises the invariance concretely.
  auto perm = [](core::Symbol s) {
    if (!s.is_value()) return s;
    return core::Symbol::Value("p$" + s.text());
  };
  TabularDatabase db = fixtures::SalesInfo3(true);
  TabularDatabase permuted = core::MapSymbols(db, perm);
  auto rep1 = CanonicalEncode(permuted);
  ASSERT_TRUE(rep1.ok());
  auto back1 = CanonicalDecode(*rep1);
  ASSERT_TRUE(back1.ok());
  auto rep2 = CanonicalEncode(db);
  ASSERT_TRUE(rep2.ok());
  auto back2 = CanonicalDecode(*rep2);
  ASSERT_TRUE(back2.ok());
  EXPECT_TRUE(
      core::EquivalentDatabases(*back1, core::MapSymbols(*back2, perm)));
}

// ---------------------------------------------------------------------------
// Bridges
// ---------------------------------------------------------------------------

TEST(BridgeTest, RelationToTableAndBack) {
  Relation r = Relation::Make("R", {"A", "B"}, {{"1", "x"}, {"2", "y"}});
  Table t = RelationToTable(r);
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.width(), 2u);
  EXPECT_EQ(t.RowAttribute(1), core::Symbol::Null());
  auto back = TableToRelation(t);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == r);
}

TEST(BridgeTest, TableToRelationRejectsRowAttributes) {
  EXPECT_FALSE(
      TableToRelation(fixtures::SalesInfo2Table(false)).ok());
}

TEST(BridgeTest, TableToRelationRejectsDuplicateAttributes) {
  Table t = Table::Parse({{"!T", "!A", "!A"}, {"#", "1", "2"}});
  EXPECT_FALSE(TableToRelation(t).ok());
}

TEST(BridgeTest, RelationalToTabularCoversAllRelations) {
  RelationalDatabase db;
  db.Put(Relation::Make("R", {"A"}, {{"1"}}));
  db.Put(Relation::Make("S", {"B"}, {{"2"}}));
  TabularDatabase t = RelationalToTabular(db);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.HasTableNamed(N("R")));
  EXPECT_TRUE(t.HasTableNamed(N("S")));
}

}  // namespace
}  // namespace tabular::rel
