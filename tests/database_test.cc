#include "core/database.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/shape.h"
#include "core/sales_data.h"
#include "io/grid_format.h"
#include "server/program_cache.h"
#include "tests/test_util.h"

namespace tabular::core {
namespace {

using ::tabular::testing::N;
using ::tabular::testing::V;

TEST(DatabaseTest, StartsEmpty) {
  TabularDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_TRUE(db.TableNames().empty());
}

TEST(DatabaseTest, MultisetSemanticsAllowDuplicateNames) {
  // Figure 1's SalesInfo4: several tables named Sales.
  TabularDatabase db = fixtures::SalesInfo4(false);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.Named(N("Sales")).size(), 4u);
  EXPECT_EQ(db.TableNames().size(), 1u);
}

TEST(DatabaseTest, IndicesNamedTracksInsertionOrder) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!A", "!X"}}));
  db.Add(Table::Parse({{"!B", "!X"}}));
  db.Add(Table::Parse({{"!A", "!Y"}}));
  std::vector<size_t> idx = db.IndicesNamed(N("A"));
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 2u);
}

TEST(DatabaseTest, RemoveNamedReturnsCount) {
  TabularDatabase db = fixtures::SalesInfo4(true);
  EXPECT_EQ(db.RemoveNamed(N("Sales")), 5u);
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.RemoveNamed(N("Sales")), 0u);
}

TEST(DatabaseTest, HasTableNamed) {
  TabularDatabase db = fixtures::SalesInfo1(true);
  EXPECT_TRUE(db.HasTableNamed(N("GrandTotal")));
  EXPECT_FALSE(db.HasTableNamed(N("Nope")));
}

TEST(DatabaseTest, AllSymbolsSpansEveryTable) {
  TabularDatabase db = fixtures::SalesInfo1(true);
  SymbolSet s = db.AllSymbols();
  EXPECT_TRUE(s.contains(N("GrandTotal")));
  EXPECT_TRUE(s.contains(V("nuts")));
  EXPECT_TRUE(s.contains(V("420")));
}

TEST(DatabaseTest, NameHasDataRows) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!Empty", "!A"}}));
  db.Add(Table::Parse({{"!Full", "!A"}, {"#", "1"}}));
  EXPECT_FALSE(db.NameHasDataRows(N("Empty")));
  EXPECT_TRUE(db.NameHasDataRows(N("Full")));
  EXPECT_FALSE(db.NameHasDataRows(N("Missing")));
  // A second empty table under a full name changes nothing.
  db.Add(Table::Parse({{"!Empty", "!B"}, {"#", "x"}}));
  EXPECT_TRUE(db.NameHasDataRows(N("Empty")));
}

TEST(DatabaseTest, TablesMayBeNamedNull) {
  // Attributes are optional everywhere, including the name cell.
  TabularDatabase db;
  Table anonymous;
  db.Add(anonymous);
  EXPECT_TRUE(db.HasTableNamed(Symbol::Null()));
  EXPECT_EQ(db.Named(Symbol::Null()).size(), 1u);
}

// -- Shared immutable tables -------------------------------------------------

TEST(DatabaseTest, CopiesShareTheirTables) {
  const TabularDatabase db = fixtures::SalesInfo1(true);
  const TabularDatabase copy = db;
  ASSERT_EQ(copy.size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(&copy.tables()[i], &db.tables()[i]) << "table " << i;
  }
}

TEST(DatabaseTest, EditingACopyLeavesTheOriginalUnchanged) {
  const TabularDatabase db = fixtures::SalesInfo1(true);
  const std::string before = io::SerializeDatabase(db);
  TabularDatabase copy = db;
  EXPECT_EQ(copy.RemoveNamed(N("Sales")), 1u);
  copy.Add(Table::Parse({{"!Sales", "!Part"}, {"#", "nuts"}}));
  EXPECT_EQ(io::SerializeDatabase(db), before);
  EXPECT_NE(io::SerializeDatabase(copy), before);
}

TEST(DatabaseTest, TableListsCompareContentsNotAddresses) {
  const TabularDatabase a = fixtures::SalesInfo4(true);
  const TabularDatabase b = fixtures::SalesInfo4(true);
  ASSERT_NE(&a.tables()[0], &b.tables()[0]);
  EXPECT_TRUE(a.tables() == b.tables());
  EXPECT_FALSE(a.tables() == fixtures::SalesInfo4(false).tables());
  TabularDatabase reordered;
  for (size_t i = b.size(); i-- > 0;) reordered.Add(b.tables()[i]);
  EXPECT_FALSE(a.tables() == reordered.tables());
}

TEST(DatabaseTest, ShapesOfAnEditedCopyMatchAFreshlyLoadedDatabase) {
  const TabularDatabase db = fixtures::SalesInfo1(true);
  // Fill the shared tables' attribute sets before the copy is edited.
  const analysis::AbstractDatabase original =
      analysis::AbstractDatabase::FromDatabase(db);
  TabularDatabase copy = db;
  copy.RemoveNamed(N("GrandTotal"));
  copy.Add(fixtures::SalesInfo3Table(true));

  const TabularDatabase loaded = fixtures::SalesInfo1(true);
  TabularDatabase fresh;
  for (const Table& t : loaded.tables()) {
    if (t.name() != N("GrandTotal")) fresh.Add(t);
  }
  fresh.Add(fixtures::SalesInfo3Table(true));
  EXPECT_EQ(analysis::AbstractDatabase::FromDatabase(copy),
            analysis::AbstractDatabase::FromDatabase(fresh));
  EXPECT_EQ(server::SchemaFingerprint(copy), server::SchemaFingerprint(fresh));
  EXPECT_EQ(analysis::AbstractDatabase::FromDatabase(db), original);
}

TEST(DatabaseTest, ConcurrentShapeReadsOfOneSnapshotAgree) {
  // The attribute sets are filled lazily on first use; eight readers race
  // to be first on a snapshot nobody has read yet.
  TabularDatabase db = fixtures::SalesInfo1(true);
  db.Add(fixtures::SalesInfo3Table(true));
  const auto snapshot = std::make_shared<const TabularDatabase>(std::move(db));
  constexpr int kThreads = 8;
  std::vector<analysis::AbstractDatabase> shapes(kThreads);
  std::vector<std::string> fingerprints(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> readers;
  for (int i = 0; i < kThreads; ++i) {
    readers.emplace_back([&, i] {
      start.arrive_and_wait();
      shapes[i] = analysis::AbstractDatabase::FromDatabase(*snapshot);
      fingerprints[i] = server::SchemaFingerprint(*snapshot);
    });
  }
  for (std::thread& t : readers) t.join();

  TabularDatabase fresh = fixtures::SalesInfo1(true);
  fresh.Add(fixtures::SalesInfo3Table(true));
  const analysis::AbstractDatabase want =
      analysis::AbstractDatabase::FromDatabase(fresh);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(shapes[i], want) << "reader " << i;
    EXPECT_EQ(fingerprints[i], server::SchemaFingerprint(fresh))
        << "reader " << i;
  }
}

}  // namespace
}  // namespace tabular::core
