#include "core/database.h"

#include <algorithm>

namespace tabular::core {

void TabularDatabase::Shared::ComputeAttributeSets() const {
  std::call_once(attrs_once, [this] {
    column_attrs.insert(table.ColAttrs().begin(), table.ColAttrs().end());
    row_attrs.insert(table.RowAttrs().begin(), table.RowAttrs().end());
  });
}

const SymbolSet& TabularDatabase::ColumnAttributeSet(size_t i) const {
  tables_[i]->ComputeAttributeSets();
  return tables_[i]->column_attrs;
}

const SymbolSet& TabularDatabase::RowAttributeSet(size_t i) const {
  tables_[i]->ComputeAttributeSets();
  return tables_[i]->row_attrs;
}

std::vector<size_t> TabularDatabase::IndicesNamed(Symbol name) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i]->table.name() == name) out.push_back(i);
  }
  return out;
}

std::vector<Table> TabularDatabase::Named(Symbol name) const {
  std::vector<Table> out;
  for (const Table& t : tables()) {
    if (t.name() == name) out.push_back(t);
  }
  return out;
}

bool TabularDatabase::HasTableNamed(Symbol name) const {
  return std::ranges::any_of(tables(),
                             [&](const Table& t) { return t.name() == name; });
}

size_t TabularDatabase::RemoveNamed(Symbol name) {
  return std::erase_if(tables_, [&](const std::shared_ptr<const Shared>& s) {
    return s->table.name() == name;
  });
}

SymbolSet TabularDatabase::TableNames() const {
  SymbolSet out;
  for (const Table& t : tables()) out.insert(t.name());
  return out;
}

SymbolSet TabularDatabase::AllSymbols() const {
  SymbolSet out;
  for (const Table& t : tables()) {
    SymbolSet s = t.AllSymbols();
    out.insert(s.begin(), s.end());
  }
  return out;
}

bool TabularDatabase::NameHasDataRows(Symbol name) const {
  return std::ranges::any_of(tables(), [&](const Table& t) {
    return t.name() == name && t.HasDataRows();
  });
}

}  // namespace tabular::core
