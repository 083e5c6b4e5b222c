// FIG5: MERGE on Sold by Region (paper §3.2, Figure 5), scaling in the
// width of the per-region table — the merged output has one tuple per
// (data row × Sold column), including the ⊥ combinations Figure 5 prints,
// so output size is rows × regions regardless of how sparse the data is.

#include <benchmark/benchmark.h>

#include "algebra/ops.h"
#include "bench_util.h"
#include "core/sales_data.h"
#include "olap/pivot.h"
#include "relational/canonical.h"

namespace {

using tabular::core::Symbol;
using tabular::core::Table;

Symbol S(const char* s) { return Symbol::Name(s); }

/// A SalesInfo2-shaped table with `parts` rows and `regions` Sold columns.
Table PivotedSales(size_t parts, size_t regions) {
  Table flat = tabular::fixtures::SyntheticSales(parts, regions);
  auto facts = tabular::rel::TableToRelation(flat);
  auto pivot = tabular::olap::PivotHash(*facts, S("Part"), S("Region"),
                                        S("Sold"), S("Sales"));
  return *pivot;
}

void BM_MergeOnSoldByRegion(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  const size_t regions = static_cast<size_t>(state.range(1));
  Table pivoted = PivotedSales(parts, regions);
  tabular::bench::CounterDeltas deltas(
      state, {{"ta_calls", "algebra.merge.calls"},
              {"ta_rows_in", "algebra.merge.rows_in"},
              {"ta_rows_out", "algebra.merge.rows_out"}});
  for (auto _ : state) {
    auto r = tabular::algebra::Merge(pivoted, {S("Sold")}, {S("Region")},
                                     S("Sales"));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["out_rows"] =
      static_cast<double>((pivoted.height() - 1) * regions);
  state.SetItemsProcessed(state.iterations() * (pivoted.height() - 1) *
                          regions);
}
BENCHMARK(BM_MergeOnSoldByRegion)
    ->ArgNames({"parts", "regions"})
    ->Args({16, 4})
    ->Args({16, 16})
    ->Args({16, 64})
    ->Args({16, 256})
    ->Args({256, 16})
    ->Args({1024, 16});

// Merge inverts group (up to the ⊥-padded tuples): the round trip.
void BM_GroupMergeRoundTrip(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  Table flat = tabular::fixtures::SyntheticSales(parts, 8);
  tabular::bench::CounterDeltas deltas(
      state, {{"group_rows_out", "algebra.group.rows_out"},
              {"merge_rows_out", "algebra.merge.rows_out"}});
  for (auto _ : state) {
    auto grouped = tabular::algebra::Group(flat, {S("Region")}, {S("Sold")},
                                           S("Sales"));
    auto merged = tabular::algebra::Merge(*grouped, {S("Sold")},
                                          {S("Region")}, S("Sales"));
    if (!merged.ok()) state.SkipWithError(merged.status().ToString().c_str());
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_GroupMergeRoundTrip)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The 10M-row Figure 5 workload: MERGE on Sold by Region over a pivoted
// table of 625k parts × 16 regions emits exactly one tuple per (part,
// region) pair — 10M output rows, ⊥ combinations included. Unlike GROUP,
// MERGE's output is linear in its input, so this runs as a single kernel
// invocation; the `rows` counter (and the ta_rows_out delta) record the
// 10M-row floor for CI.
void BM_MergeOnSoldByRegion10M(benchmark::State& state) {
  const size_t parts = 625'000;
  const size_t regions = 16;
  const Table pivoted =
      tabular::fixtures::SyntheticPivotedSales(parts, regions);
  tabular::bench::CounterDeltas deltas(
      state, {{"ta_calls", "algebra.merge.calls"},
              {"ta_rows_in", "algebra.merge.rows_in"},
              {"ta_rows_out", "algebra.merge.rows_out"}});
  for (auto _ : state) {
    auto r = tabular::algebra::Merge(pivoted, {S("Sold")}, {S("Region")},
                                     S("Sales"));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows"] = static_cast<double>(parts * regions);
  state.SetItemsProcessed(state.iterations() * parts * regions);
}
BENCHMARK(BM_MergeOnSoldByRegion10M)
    ->Unit(benchmark::kMillisecond)
    // One warm-up pass so the measured iterations exercise the kernel, not
    // first-touch page faults on ~160 MiB of freshly mapped output.
    ->MinWarmUpTime(0.2)
    ->MinTime(0.05);

}  // namespace

TABULAR_BENCH_MAIN("BENCH_fig5_merge.json")
