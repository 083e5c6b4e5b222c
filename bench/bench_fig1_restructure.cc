// FIG1: the paper's headline demonstration — restructuring the same sales
// data between the four representations of Figure 1 — at scale. Each
// benchmark runs a full conversion on a parts × regions synthetic
// instance; the series shows which direction pays the "uneconomical
// intermediate" cost (1→2 via GROUP builds a rows × rows intermediate,
// but its columns take the sparse form, so the work is linear in its
// non-⊥ cells; 1→4 via SPLIT is linear; 4→1 via COLLAPSE is quadratic in
// groups; the hash-based SalesInfo3 conversions are linear).

#include <benchmark/benchmark.h>

#include "algebra/ops.h"
#include "core/sales_data.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "olap/pivot.h"
#include "relational/canonical.h"

namespace {

using tabular::core::Symbol;
using tabular::core::Table;
using tabular::core::TabularDatabase;

Symbol S(const char* s) { return Symbol::Name(s); }

void BM_Info1ToInfo2(benchmark::State& state) {
  Table flat =
      tabular::fixtures::SyntheticSales(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto grouped =
        tabular::algebra::Group(flat, {S("Region")}, {S("Sold")}, S("Sales"));
    auto cleaned = tabular::algebra::CleanUp(*grouped, {S("Part")},
                                             {Symbol::Null()}, S("Sales"));
    auto pivoted = tabular::algebra::Purge(*cleaned, {S("Sold")},
                                           {S("Region")}, S("Sales"));
    if (!pivoted.ok()) {
      state.SkipWithError(pivoted.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(pivoted);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_Info1ToInfo2)
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({64, 8})
    ->Args({128, 8})
    ->Args({300, 16})
    ->Args({600, 16})
    ->Unit(benchmark::kMicrosecond);

void BM_Info2ToInfo1(benchmark::State& state) {
  Table flat =
      tabular::fixtures::SyntheticSales(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  auto facts = tabular::rel::TableToRelation(flat);
  auto pivoted = tabular::olap::PivotHash(*facts, S("Part"), S("Region"),
                                          S("Sold"), S("Sales"));
  for (auto _ : state) {
    auto merged = tabular::algebra::Merge(*pivoted, {S("Sold")},
                                          {S("Region")}, S("Sales"));
    auto padding = tabular::algebra::SelectConstant(
        *merged, S("Sold"), Symbol::Null(), S("Pad"));
    auto back = tabular::algebra::Difference(*merged, *padding, S("Sales"));
    if (!back.ok()) state.SkipWithError(back.status().ToString().c_str());
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_Info2ToInfo1)
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({64, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_Info1ToInfo4(benchmark::State& state) {
  Table flat =
      tabular::fixtures::SyntheticSales(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto split = tabular::algebra::Split(flat, {S("Region")}, S("Sales"));
    if (!split.ok()) state.SkipWithError(split.status().ToString().c_str());
    benchmark::DoNotOptimize(split);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_Info1ToInfo4)
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({1024, 8})
    ->Args({256, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_Info4ToInfo1(benchmark::State& state) {
  Table flat =
      tabular::fixtures::SyntheticSales(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  auto split = tabular::algebra::Split(flat, {S("Region")}, S("Sales"));
  for (auto _ : state) {
    auto collapsed =
        tabular::algebra::Collapse(*split, {S("Region")}, S("Sales"));
    auto purged = tabular::algebra::Purge(
        *collapsed, {S("Part"), S("Region"), S("Sold")}, {}, S("Sales"));
    auto back = tabular::algebra::DeduplicateRows(*purged, S("Sales"));
    if (!back.ok()) state.SkipWithError(back.status().ToString().c_str());
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_Info4ToInfo1)
    ->Args({64, 4})
    ->Args({64, 16})
    ->Args({64, 64})
    ->Args({256, 16})
    ->Unit(benchmark::kMicrosecond);

void BM_Info1ToInfo3(benchmark::State& state) {
  Table flat =
      tabular::fixtures::SyntheticSales(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  auto facts = tabular::rel::TableToRelation(flat);
  for (auto _ : state) {
    auto r = tabular::olap::CrossTab(*facts, S("Region"), S("Part"),
                                     S("Sold"), S("Sales"));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_Info1ToInfo3)
    ->Args({64, 8})
    ->Args({256, 32})
    ->Args({1024, 32})
    ->Unit(benchmark::kMicrosecond);

// The 1→2 conversion driven through the parsed TA program — the
// interpreter overhead relative to BM_Info1ToInfo2's direct kernel calls.
void BM_Info1ToInfo2ViaProgram(benchmark::State& state) {
  Table flat =
      tabular::fixtures::SyntheticSales(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  auto program = tabular::lang::ParseProgram(R"(
    Sales <- group by {Region} on {Sold} (Sales);
    Sales <- cleanup by {Part} on {_} (Sales);
    Sales <- purge on {Sold} by {Region} (Sales);
  )");
  for (auto _ : state) {
    TabularDatabase db;
    db.Add(flat);
    tabular::Status st = tabular::lang::RunProgram(*program, &db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_Info1ToInfo2ViaProgram)
    ->Args({8, 8})
    ->Args({32, 8})
    ->Args({128, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
