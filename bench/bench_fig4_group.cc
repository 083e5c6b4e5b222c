// FIG4: GROUP by Region on Sold (paper §3.2, Figure 4), scaling in the
// number of input data rows. The paper's key structural property — the
// grouped table's width grows linearly with the instance height (one
// Sold-block per data row) — makes GROUP inherently quadratic in output
// cells; the bench exposes that shape, and measures the §3.4 compaction
// (CLEAN-UP) that follows it.

#include <benchmark/benchmark.h>

#include "algebra/ops.h"
#include "bench_util.h"
#include "core/sales_data.h"

namespace {

using tabular::core::Symbol;
using tabular::core::Table;

Symbol S(const char* s) { return Symbol::Name(s); }

void BM_GroupByRegionOnSold(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  const size_t regions = static_cast<size_t>(state.range(1));
  Table flat = tabular::fixtures::SyntheticSales(parts, regions);
  tabular::bench::CounterDeltas deltas(
      state, {{"ta_calls", "algebra.group.calls"},
              {"ta_rows_in", "algebra.group.rows_in"},
              {"ta_rows_out", "algebra.group.rows_out"}});
  for (auto _ : state) {
    auto r = tabular::algebra::Group(flat, {S("Region")}, {S("Sold")},
                                     S("Sales"));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows"] = static_cast<double>(flat.height());
  state.counters["out_cells"] = static_cast<double>(
      (flat.height() + 2) * (flat.height() + 2));
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_GroupByRegionOnSold)
    ->ArgNames({"parts", "regions"})
    ->Args({4, 4})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({64, 8})
    ->Args({128, 8});

void BM_GroupThenCleanUp(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  Table flat = tabular::fixtures::SyntheticSales(parts, 8);
  auto grouped =
      tabular::algebra::Group(flat, {S("Region")}, {S("Sold")}, S("Sales"));
  if (!grouped.ok()) {
    state.SkipWithError(grouped.status().ToString().c_str());
    return;
  }
  tabular::bench::CounterDeltas deltas(
      state, {{"ta_calls", "algebra.cleanup.calls"},
              {"ta_rows_in", "algebra.cleanup.rows_in"},
              {"ta_rows_out", "algebra.cleanup.rows_out"}});
  for (auto _ : state) {
    auto r = tabular::algebra::CleanUp(*grouped, {S("Part")},
                                       {Symbol::Null()}, S("Sales"));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["grouped_cells"] =
      static_cast<double>(grouped->num_rows() * grouped->num_cols());
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_GroupThenCleanUp)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The full Figure 4 + §3.4 pipeline, end to end.
void BM_GroupCleanPurgePipeline(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  const size_t regions = static_cast<size_t>(state.range(1));
  Table flat = tabular::fixtures::SyntheticSales(parts, regions);
  tabular::bench::CounterDeltas deltas(
      state, {{"group_rows_in", "algebra.group.rows_in"},
              {"cleanup_rows_in", "algebra.cleanup.rows_in"},
              {"purge_rows_in", "algebra.purge.rows_in"},
              {"purge_rows_out", "algebra.purge.rows_out"}});
  for (auto _ : state) {
    auto grouped = tabular::algebra::Group(flat, {S("Region")}, {S("Sold")},
                                           S("Sales"));
    auto cleaned = tabular::algebra::CleanUp(*grouped, {S("Part")},
                                             {Symbol::Null()}, S("Sales"));
    auto purged = tabular::algebra::Purge(*cleaned, {S("Sold")},
                                          {S("Region")}, S("Sales"));
    if (!purged.ok()) state.SkipWithError(purged.status().ToString().c_str());
    benchmark::DoNotOptimize(purged);
  }
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_GroupCleanPurgePipeline)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({64, 16});

/// Copies data rows [first, first + count] of `t` into a fresh table with
/// the same attribute row (a row shard for the 10M-row workload).
Table RowShard(const Table& t, size_t first, size_t count) {
  Table out(1 + count, t.num_cols());
  for (size_t j = 0; j < t.num_cols(); ++j) out.set(0, j, t.at(0, j));
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = 0; j < t.num_cols(); ++j) {
      out.set(1 + i, j, t.at(first + i, j));
    }
  }
  return out;
}

// The 10M-row Figure 4 workload. GROUP's output width grows with its input
// height (the paper's uneconomical shape), so a single 10M-row GROUP would
// materialize 10^14 cells; the scale-out form any real ingest uses is
// row-sharded: GROUP + CLEAN-UP per bounded shard, 10M rows end to end.
// The `rows` counter (and the ta_rows_in delta) record the full 10M so CI
// can enforce the floor.
void BM_GroupCleanSharded10M(benchmark::State& state) {
  const size_t total_rows = 10'000'000;
  const size_t shard_rows = static_cast<size_t>(state.range(0));
  const Table flat =
      tabular::fixtures::SyntheticSales(total_rows / 8, 8, /*sparsity=*/0);
  std::vector<Table> shards;
  shards.reserve(flat.height() / shard_rows + 1);
  for (size_t first = 1; first <= flat.height(); first += shard_rows) {
    const size_t count = std::min(shard_rows, flat.height() - first + 1);
    shards.push_back(RowShard(flat, first, count));
  }
  tabular::bench::CounterDeltas deltas(
      state, {{"ta_calls", "algebra.group.calls"},
              {"ta_rows_in", "algebra.group.rows_in"},
              {"ta_rows_out", "algebra.cleanup.rows_out"}});
  for (auto _ : state) {
    for (const Table& shard : shards) {
      auto grouped = tabular::algebra::Group(shard, {S("Region")}, {S("Sold")},
                                             S("Sales"));
      if (!grouped.ok()) {
        state.SkipWithError(grouped.status().ToString().c_str());
        break;
      }
      auto cleaned = tabular::algebra::CleanUp(*grouped, {S("Part")},
                                               {Symbol::Null()}, S("Sales"));
      if (!cleaned.ok()) {
        state.SkipWithError(cleaned.status().ToString().c_str());
        break;
      }
      benchmark::DoNotOptimize(cleaned);
    }
  }
  state.counters["rows"] = static_cast<double>(flat.height());
  state.SetItemsProcessed(state.iterations() * flat.height());
}
BENCHMARK(BM_GroupCleanSharded10M)
    ->ArgNames({"shard_rows"})
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

TABULAR_BENCH_MAIN("BENCH_fig4_group.json")
