#ifndef TABULAR_CORE_DATABASE_H_
#define TABULAR_CORE_DATABASE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <ranges>
#include <utility>
#include <vector>

#include "core/symbol.h"
#include "core/table.h"

namespace tabular::core {

/// A tabular database: a finite collection of tables (paper §2).
///
/// Several tables may carry the *same* name — Figure 1's `SalesInfo4` holds
/// one `Sales` table per region — so this is a multiset keyed by table name,
/// stored in insertion order. A *scheme* for a database is any finite name
/// set containing all of its table names.
///
/// A table is immutable once added: the database holds it through a shared
/// pointer, so copying a database copies pointers, never cells, and every
/// copy sees the same table objects. Programs change a database only by
/// adding and removing whole tables (paper §3.6 maps one database value to
/// the next), which makes this copy-on-write at table granularity.
class TabularDatabase {
  /// One table as a database holds it, with its attribute sets computed on
  /// first use, once, beside it — the immutable shared definition of
  /// MariaDB's TABLE_SHARE, of which every database copy is a handle.
  struct Shared {
    explicit Shared(Table t) : table(std::move(t)) {}
    /// Fills the attribute sets below on the first call; thread-safe.
    void ComputeAttributeSets() const;

    const Table table;
    mutable std::once_flag attrs_once;
    mutable SymbolSet column_attrs;
    mutable SymbolSet row_attrs;
  };
  using Slots = std::vector<std::shared_ptr<const Shared>>;
  static const Table& TableOf(const std::shared_ptr<const Shared>& s) {
    return s->table;
  }
  using TableView =
      std::ranges::transform_view<std::ranges::ref_view<const Slots>,
                                  decltype(&TableOf)>;

 public:
  /// The tables, in insertion order: a random-access range of
  /// `const Table&` whose `==` compares table contents.
  class TableList : public TableView {
   public:
    explicit TableList(const Slots& slots)
        : TableView(std::views::all(slots), &TableOf) {}
    auto rbegin() const { return std::make_reverse_iterator(end()); }
    auto rend() const { return std::make_reverse_iterator(begin()); }
    friend bool operator==(const TableList& a, const TableList& b) {
      return std::ranges::equal(a, b);
    }
  };

  TabularDatabase() = default;

  /// Adds a table (duplicates, including duplicate names, are allowed).
  void Add(Table table) {
    tables_.push_back(std::make_shared<const Shared>(std::move(table)));
  }

  /// All tables, in insertion order.
  TableList tables() const { return TableList(tables_); }

  size_t size() const { return tables_.size(); }
  bool empty() const { return tables_.empty(); }

  /// The distinct column attributes τ⁰_{>0} of table `i`, and its distinct
  /// row attributes τ_{>0}⁰. Computed on the first call for a table and
  /// then shared by every database holding it; safe to call concurrently.
  const SymbolSet& ColumnAttributeSet(size_t i) const;
  const SymbolSet& RowAttributeSet(size_t i) const;

  /// Indices of the tables named `name`, in insertion order.
  std::vector<size_t> IndicesNamed(Symbol name) const;

  /// Copies of the tables named `name`, in insertion order.
  std::vector<Table> Named(Symbol name) const;

  /// True if at least one table is named `name`.
  bool HasTableNamed(Symbol name) const;

  /// Removes every table named `name`; returns how many were removed.
  size_t RemoveNamed(Symbol name);

  /// The set of table names occurring in the database (the minimal scheme).
  SymbolSet TableNames() const;

  /// |D|: every symbol occurring anywhere in the database.
  SymbolSet AllSymbols() const;

  /// True if some table named `name` has at least one data row — the
  /// condition of the paper's `while R ≠ ∅` construct.
  bool NameHasDataRows(Symbol name) const;

 private:
  Slots tables_;
};

}  // namespace tabular::core

#endif  // TABULAR_CORE_DATABASE_H_
