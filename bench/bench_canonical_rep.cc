// REP: the canonical representation P_Rep / P_Rep⁻ of Lemmas 4.2/4.3 —
// the pivot of the completeness proof. Encoding creates one Map tuple per
// occurrence and one Data tuple per cell, so both directions are
// O(cells · log cells) with set-based relations; the round trip is the
// identity up to row/column permutation.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/compare.h"
#include "core/sales_data.h"
#include "relational/canonical.h"

namespace {

using tabular::core::TabularDatabase;

TabularDatabase SyntheticDb(size_t tables, size_t parts, size_t regions) {
  TabularDatabase db;
  for (size_t t = 0; t < tables; ++t) {
    db.Add(tabular::fixtures::SyntheticSales(parts, regions));
  }
  return db;
}

void BM_CanonicalEncode(benchmark::State& state) {
  TabularDatabase db =
      SyntheticDb(static_cast<size_t>(state.range(0)),
                  static_cast<size_t>(state.range(1)), 8);
  size_t cells = 0;
  for (const auto& t : db.tables()) cells += t.num_rows() * t.num_cols();
  for (auto _ : state) {
    auto rep = tabular::rel::CanonicalEncode(db);
    if (!rep.ok()) state.SkipWithError(rep.status().ToString().c_str());
    benchmark::DoNotOptimize(rep);
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_CanonicalEncode)
    ->ArgNames({"tables", "parts"})
    ->Args({1, 16})
    ->Args({1, 64})
    ->Args({1, 256})
    ->Args({4, 64})
    ->Args({16, 64});

void BM_CanonicalDecode(benchmark::State& state) {
  TabularDatabase db =
      SyntheticDb(static_cast<size_t>(state.range(0)),
                  static_cast<size_t>(state.range(1)), 8);
  auto rep = tabular::rel::CanonicalEncode(db);
  if (!rep.ok()) {
    state.SkipWithError(rep.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto back = tabular::rel::CanonicalDecode(*rep);
    if (!back.ok()) state.SkipWithError(back.status().ToString().c_str());
    benchmark::DoNotOptimize(back);
  }
  state.counters["data_tuples"] = static_cast<double>(
      rep->Get(tabular::rel::RepDataName())->size());
  state.SetItemsProcessed(
      state.iterations() * rep->Get(tabular::rel::RepDataName())->size());
}
BENCHMARK(BM_CanonicalDecode)
    ->ArgNames({"tables", "parts"})
    ->Args({1, 16})
    ->Args({1, 64})
    ->Args({1, 256})
    ->Args({4, 64})
    ->Args({16, 64});

void BM_CanonicalRoundTripWithVerify(benchmark::State& state) {
  TabularDatabase db = SyntheticDb(1, static_cast<size_t>(state.range(0)), 8);
  for (auto _ : state) {
    auto rep = tabular::rel::CanonicalEncode(db);
    auto back = tabular::rel::CanonicalDecode(*rep);
    bool same = tabular::core::EquivalentDatabases(db, *back);
    if (!same) state.SkipWithError("round trip broke the database");
    benchmark::DoNotOptimize(same);
  }
  state.SetItemsProcessed(state.iterations() * db.tables()[0].height());
}
BENCHMARK(BM_CanonicalRoundTripWithVerify)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

TABULAR_BENCH_MAIN("BENCH_canonical_rep.json")
