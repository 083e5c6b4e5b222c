#include <gtest/gtest.h>

#include <string>

#include "core/sales_data.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "obs/profile.h"

namespace tabular {
namespace {

using core::TabularDatabase;
using lang::Explain;
using lang::Interpreter;
using lang::InterpreterOptions;
using obs::ProfileNode;
using obs::RenderProfile;
using obs::RenderProfileOptions;

constexpr RenderProfileOptions kNoTimes{.show_times = false};

// The Figure 4 pipeline: GROUP per region, then the §3.4 compaction.
constexpr const char* kFig4Program = R"(
  Sales <- group by {Region} on {Sold} (Sales);
  Sales <- cleanup by {Part} on {_} (Sales);
  Sales <- purge on {Sold} by {Region} (Sales);
)";

TEST(RenderProfileTest, FormatsTreeWithStats) {
  ProfileNode root;
  root.label = "program";
  root.invocations = 1;
  root.wall_ns = 5000;
  ProfileNode stmt;
  stmt.label = "[1] X <- transpose (X);";
  stmt.invocations = 2;
  stmt.rows_in = 4;
  stmt.cols_in = 3;
  stmt.rows_out = 3;
  stmt.cols_out = 4;
  ProfileNode loop;
  loop.label = "[2] while R do ...";
  loop.iterations = 7;
  ProfileNode inner;
  inner.label = "[2.1] R <- project {A} (R);";
  loop.children.push_back(inner);
  root.children.push_back(stmt);
  root.children.push_back(loop);

  EXPECT_EQ(RenderProfile(root),
            "program  inst=1 [5000 ns]\n"
            "├─ [1] X <- transpose (X);  inst=2 in=4x3 out=3x4\n"
            "└─ [2] while R do ...  iters=7\n"
            "   └─ [2.1] R <- project {A} (R);\n");
  EXPECT_EQ(RenderProfile(root, kNoTimes),
            "program  inst=1\n"
            "├─ [1] X <- transpose (X);  inst=2 in=4x3 out=3x4\n"
            "└─ [2] while R do ...  iters=7\n"
            "   └─ [2.1] R <- project {A} (R);\n");
}

// Golden: profiling the Figure 4 GROUP program over the paper's Sales data
// (times suppressed).
TEST(ProfileTest, GoldenFig4GroupProgram) {
  auto program = lang::ParseProgram(kFig4Program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  InterpreterOptions options;
  options.profile = true;
  Interpreter interp(options);
  ASSERT_TRUE(interp.Run(*program, &db).ok());

  EXPECT_EQ(
      RenderProfile(interp.profile(), kNoTimes),
      "program  inst=1\n"
      "├─ [1] Sales <- group by {Region} on {Sold} (Sales);"
      "  inst=1 in=8x3 out=9x9\n"
      "├─ [2] Sales <- cleanup by {Part} on {_} (Sales);"
      "  inst=1 in=9x9 out=4x9\n"
      "└─ [3] Sales <- purge on {Sold} by {Region} (Sales);"
      "  inst=1 in=4x9 out=4x5\n");
}

TEST(ProfileTest, ExplainIsLabelOnly) {
  auto program = lang::ParseProgram(
      "Sales <- group by {Region} on {Sold} (Sales);\n"
      "while Sales do { Sales <- cleanup by {Part} on {_} (Sales); }");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(
      RenderProfile(Explain(*program), kNoTimes),
      "program\n"
      "├─ [1] Sales <- group by {Region} on {Sold} (Sales);\n"
      "└─ [2] while Sales do ...\n"
      "   └─ [2.1] Sales <- cleanup by {Part} on {_} (Sales);\n");
}

TEST(ProfileTest, WhileIterationsAreCounted) {
  // T has one data row; the body replaces T with an empty selection, so
  // the loop runs exactly one iteration.
  auto program = lang::ParseProgram(
      "while T do { T <- selectconst A = missing (T); }");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  core::Table t(2, 2);
  t.set_name(core::Symbol::Name("T"));
  t.set(0, 1, core::Symbol::Name("A"));
  t.set(1, 1, core::Symbol::Value("x"));
  TabularDatabase db;
  db.Add(std::move(t));
  InterpreterOptions options;
  options.profile = true;
  Interpreter interp(options);
  ASSERT_TRUE(interp.Run(*program, &db).ok());

  const ProfileNode& root = interp.profile();
  ASSERT_EQ(root.children.size(), 1u);
  const ProfileNode& loop = root.children[0];
  EXPECT_EQ(loop.iterations, 1u);
  EXPECT_EQ(loop.invocations, 1u);
  ASSERT_EQ(loop.children.size(), 1u);
  EXPECT_EQ(loop.children[0].invocations, 1u);
}

TEST(ProfileTest, ProfileOffLeavesTreeEmpty) {
  auto program = lang::ParseProgram(kFig4Program);
  ASSERT_TRUE(program.ok());
  TabularDatabase db;
  db.Add(fixtures::SalesFlat());
  Interpreter interp;  // profile defaults to off
  ASSERT_TRUE(interp.Run(*program, &db).ok());
  EXPECT_TRUE(interp.profile().children.empty());
}

}  // namespace
}  // namespace tabular
