#include "relational/canonical.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::rel {

using core::Symbol;
using core::SymbolVec;
using core::Table;
using core::TabularDatabase;

core::Symbol RepDataName() { return Symbol::Name("Data"); }
core::Symbol RepMapName() { return Symbol::Name("Map"); }

namespace {

Symbol NilId(const CanonicalOptions& options) {
  return Symbol::Value(std::string(options.id_prefix) + "_nil");
}

}  // namespace

Result<RelationalDatabase> CanonicalEncode(const TabularDatabase& db,
                                           const CanonicalOptions& options) {
  TABULAR_TRACE_SPAN("canonical_encode", "rel");
  // The nil marker is deliberately *not* given a Map entry: decode
  // recognizes it structurally as an unmapped id (an ordinary row id often
  // maps to ⊥, so the entry value cannot distinguish it).
  const Symbol nil = NilId(options);
  const std::string prefix(options.id_prefix);

  // Id assignment is a pure function of position — the offsets a
  // sequential counter would produce walking tables in order and, within a
  // table, the name, then row attributes, then column attributes, then
  // cells in row-major order. This keeps ids identical to the historical
  // counter-based encoding and sizes the tuple vectors up front.
  struct TablePlan {
    const Table* table;
    size_t m, n;         // Paper height/width.
    bool has_cells;      // m > 0 && n > 0.
    size_t id_base;      // First fresh id of this table.
    size_t map_base;     // First Map tuple slot (one per fresh id).
    size_t data_base;    // First Data tuple slot.
  };
  std::vector<TablePlan> plans;
  plans.reserve(db.tables().size());
  size_t ids = 0, data_total = 0;
  for (const Table& t : db.tables()) {
    TablePlan p;
    p.table = &t;
    p.m = t.height();
    p.n = t.width();
    p.has_cells = p.m > 0 && p.n > 0;
    p.id_base = ids;
    p.map_base = ids;
    p.data_base = data_total;
    ids += 1 + p.m + p.n + (p.has_cells ? p.m * p.n : 0);
    data_total += p.has_cells ? p.m * p.n
                  : (p.m == 0 && p.n == 0) ? 1
                                           : std::max(p.m, p.n);
    plans.push_back(p);
  }

  std::vector<SymbolVec> map_tuples(ids);
  std::vector<SymbolVec> data_tuples(data_total);
  const auto id_at = [&](size_t off) {
    return Symbol::Value(prefix + std::to_string(off));
  };
  for (const TablePlan& p : plans) {
    const Table& t = *p.table;
    const size_t m = p.m, n = p.n;
    const Symbol tid = id_at(p.id_base);
    map_tuples[p.map_base] = {tid, t.name()};
    std::vector<Symbol> row_ids(m + 1);
    std::vector<Symbol> col_ids(n + 1);
    for (size_t i = 1; i <= m; ++i) {
      row_ids[i] = id_at(p.id_base + i);
      map_tuples[p.map_base + i] = {row_ids[i], t.at(i, 0)};
    }
    for (size_t j = 1; j <= n; ++j) {
      col_ids[j] = id_at(p.id_base + m + j);
      map_tuples[p.map_base + m + j] = {col_ids[j], t.at(0, j)};
    }
    if (p.has_cells) {
      // One fresh id + Map tuple + Data tuple per cell, in row-major
      // order.
      const size_t cell_id_base = p.id_base + 1 + m + n;
      const size_t cell_map_base = p.map_base + 1 + m + n;
      for (size_t c = 0; c < m * n; ++c) {
        const size_t i = 1 + c / n;
        const size_t j = 1 + c % n;
        const Symbol vid = id_at(cell_id_base + c);
        map_tuples[cell_map_base + c] = {vid, t.at(i, j)};
        data_tuples[p.data_base + c] = {tid, row_ids[i], col_ids[j], vid};
      }
    } else if (m == 0 && n == 0) {
      data_tuples[p.data_base] = {tid, nil, nil, nil};
    } else if (n == 0) {
      for (size_t i = 1; i <= m; ++i) {
        data_tuples[p.data_base + i - 1] = {tid, row_ids[i], nil, nil};
      }
    } else {
      for (size_t j = 1; j <= n; ++j) {
        data_tuples[p.data_base + j - 1] = {tid, nil, col_ids[j], nil};
      }
    }
  }

  // Pre-sorting makes the set load linear.
  std::sort(map_tuples.begin(), map_tuples.end(), TupleLess{});
  std::sort(data_tuples.begin(), data_tuples.end(), TupleLess{});
  Relation data(RepDataName(),
                {Symbol::Name("Tbl"), Symbol::Name("Row"), Symbol::Name("Col"),
                 Symbol::Name("Val")});
  Relation map(RepMapName(), {Symbol::Name("Id"), Symbol::Name("Entry")});
  TABULAR_RETURN_NOT_OK(map.InsertBulk(std::move(map_tuples)));
  TABULAR_RETURN_NOT_OK(data.InsertBulk(std::move(data_tuples)));

  RelationalDatabase out;
  out.Put(std::move(data));
  out.Put(std::move(map));
  static obs::OpCounters counters("rel.canonical_encode");
  uint64_t rows_in = 0;
  for (const TablePlan& p : plans) rows_in += p.m;
  counters.Record(rows_in, ids);
  return out;
}

Status ValidateRep(const RelationalDatabase& rep) {
  TABULAR_ASSIGN_OR_RETURN(Relation map, rep.Get(RepMapName()));
  TABULAR_ASSIGN_OR_RETURN(Relation data, rep.Get(RepDataName()));
  if (map.arity() != 2) {
    return Status::InvalidArgument("Map must have arity 2");
  }
  if (data.arity() != 4) {
    return Status::InvalidArgument("Data must have arity 4");
  }
  // Tuples iterate in sorted (lexicographic) order and exact duplicates
  // are absorbed by set semantics, so two tuples agreeing on an FD's
  // left-hand side but not its right are adjacent: each check is a linear
  // adjacent-pair scan.
  // FD Id -> Entry.
  const SymbolVec* prev = nullptr;
  for (const SymbolVec& t : map.tuples()) {
    if (prev != nullptr && (*prev)[0] == t[0] && (*prev)[1] != t[1]) {
      return Status::InvalidArgument("FD Id -> Entry violated at id " +
                                     t[0].ToString());
    }
    prev = &t;
  }
  // FD Tbl, Row, Col -> Val.
  prev = nullptr;
  for (const SymbolVec& t : data.tuples()) {
    if (prev != nullptr && (*prev)[0] == t[0] && (*prev)[1] == t[1] &&
        (*prev)[2] == t[2] && (*prev)[3] != t[3]) {
      return Status::InvalidArgument("FD Tbl,Row,Col -> Val violated");
    }
    prev = &t;
  }
  return Status::OK();
}

Result<TabularDatabase> CanonicalDecode(const RelationalDatabase& rep) {
  TABULAR_TRACE_SPAN("canonical_decode", "rel");
  TABULAR_RETURN_NOT_OK(ValidateRep(rep));
  TABULAR_ASSIGN_OR_RETURN(Relation map, rep.Get(RepMapName()));
  TABULAR_ASSIGN_OR_RETURN(Relation data, rep.Get(RepDataName()));

  // Map tuples iterate sorted by id (the FD guarantees distinct ids), so
  // the id → entry table is a linear copy into a flat vector; lookups are
  // binary searches whose symbol compares are wait-free.
  std::vector<std::pair<Symbol, Symbol>> entry_of;
  entry_of.reserve(map.size());
  for (const SymbolVec& t : map.tuples()) entry_of.emplace_back(t[0], t[1]);
  const auto find_entry =
      [&](Symbol id) -> const std::pair<Symbol, Symbol>* {
    auto it = std::lower_bound(
        entry_of.begin(), entry_of.end(), id,
        [](const std::pair<Symbol, Symbol>& p, Symbol v) {
          return Symbol::Compare(p.first, v) < 0;
        });
    if (it == entry_of.end() || it->first != id) return nullptr;
    return &*it;
  };
  auto lookup = [&](Symbol id) -> Result<Symbol> {
    const auto* e = find_entry(id);
    if (e == nullptr) {
      return Status::InvalidArgument("id " + id.ToString() +
                                     " has no Map entry");
    }
    return e->second;
  };
  // The nil marker is the (only) id without a Map entry; see
  // CanonicalEncode.
  auto is_nil_marker = [&](Symbol id) { return find_entry(id) == nullptr; };

  // Data tuples iterate sorted with Tbl as the major key, so each table is
  // a contiguous run — no grouping map needed, and order is deterministic.
  std::vector<const SymbolVec*> cells;
  cells.reserve(data.size());
  for (const SymbolVec& t : data.tuples()) cells.push_back(&t);
  struct Run {
    size_t begin, end;
  };
  std::vector<Run> runs;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i == 0 || (*cells[i])[0] != (*cells[i - 1])[0]) {
      runs.push_back(Run{i, i});
    }
    runs.back().end = i + 1;
  }

  TabularDatabase out;
  for (const Run& run : runs) {
    const Symbol tid = (*cells[run.begin])[0];
    TABULAR_ASSIGN_OR_RETURN(Symbol name, lookup(tid));
    // Collect row and column ids in order of first appearance.
    std::vector<Symbol> row_ids, col_ids;
    std::unordered_map<Symbol, size_t> row_index, col_index;
    for (size_t i = run.begin; i < run.end; ++i) {
      const Symbol rid = (*cells[i])[1];
      const Symbol cid = (*cells[i])[2];
      if (!row_index.contains(rid) && !is_nil_marker(rid)) {
        row_index.emplace(rid, row_ids.size());
        row_ids.push_back(rid);
      }
      if (!col_index.contains(cid) && !is_nil_marker(cid)) {
        col_index.emplace(cid, col_ids.size());
        col_ids.push_back(cid);
      }
    }
    Table t(1 + row_ids.size(), 1 + col_ids.size());
    t.set_name(name);
    for (size_t i = 0; i < row_ids.size(); ++i) {
      TABULAR_ASSIGN_OR_RETURN(Symbol attr, lookup(row_ids[i]));
      t.set(i + 1, 0, attr);
    }
    for (size_t j = 0; j < col_ids.size(); ++j) {
      TABULAR_ASSIGN_OR_RETURN(Symbol attr, lookup(col_ids[j]));
      t.set(0, j + 1, attr);
    }
    // Cell fill: each tuple owns its (row, col) slot (FD-checked); the
    // nil marker indexes no row or column.
    for (size_t i = run.begin; i < run.end; ++i) {
      const auto row = row_index.find((*cells[i])[1]);
      const auto col = col_index.find((*cells[i])[2]);
      if (row == row_index.end() || col == col_index.end()) continue;
      TABULAR_ASSIGN_OR_RETURN(Symbol val, lookup((*cells[i])[3]));
      t.set(row->second + 1, col->second + 1, val);
    }
    out.Add(std::move(t));
  }
  static obs::OpCounters counters("rel.canonical_decode");
  uint64_t rows_out = 0;
  for (const core::Table& t : out.tables()) rows_out += t.height();
  counters.Record(data.size(), rows_out);
  return out;
}

Table RelationToTable(const Relation& r) {
  Table t(1, 1 + r.arity());
  t.set_name(r.name());
  for (size_t j = 0; j < r.arity(); ++j) t.set(0, j + 1, r.attributes()[j]);
  for (const SymbolVec& tuple : r.tuples()) {
    SymbolVec row;
    row.reserve(1 + tuple.size());
    row.push_back(Symbol::Null());
    row.insert(row.end(), tuple.begin(), tuple.end());
    t.AppendRow(row);
  }
  return t;
}

TabularDatabase RelationalToTabular(const RelationalDatabase& db) {
  TabularDatabase out;
  for (Symbol name : db.Names()) {
    out.Add(RelationToTable(*db.Find(name)));
  }
  return out;
}

Result<Relation> TableToRelation(const Table& t) {
  Relation out(t.name(), t.ColumnAttributes());
  TABULAR_RETURN_NOT_OK(out.Validate());
  for (size_t i = 1; i < t.num_rows(); ++i) {
    if (!t.at(i, 0).is_null()) {
      return Status::InvalidArgument(
          "table is not relation-shaped: row " + std::to_string(i) +
          " has a row attribute");
    }
    SymbolVec tuple;
    tuple.reserve(t.width());
    for (size_t j = 1; j < t.num_cols(); ++j) tuple.push_back(t.at(i, j));
    TABULAR_RETURN_NOT_OK(out.Insert(std::move(tuple)));
  }
  return out;
}

}  // namespace tabular::rel
