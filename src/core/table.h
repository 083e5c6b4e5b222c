#ifndef TABULAR_CORE_TABLE_H_
#define TABULAR_CORE_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/symbol.h"

namespace tabular::core {

/// One data column of a `Table`. It has two storage forms; which one a
/// column is in cannot be observed through any read.
///
/// *Dense*: fixed-size chunks of interned symbol handles (the dictionary
/// codes of the process-wide symbol pool — a `Symbol` *is* its 4-byte
/// dictionary handle, so a dense column is a flat dictionary-encoded vector
/// in the column-store sense). Invariants:
///   * every chunk except the last spans exactly `kChunkSize` cells; the
///     last spans `size() - (num_chunks() - 1) * kChunkSize`;
///   * a chunk is either *materialized* (its vector holds one handle per
///     cell) or *lazy* (an empty vector standing for an all-⊥ span).
/// Lazy chunks make all-⊥ construction O(size / kChunkSize): a fresh
/// `Table(rows, cols)` allocates no cell storage at all. `Set` of ⊥ into a
/// lazy chunk is a no-op.
///
/// *Sparse*: a row-sorted vector of `(row, value)` entries, one per non-⊥
/// cell, with ⊥ everywhere else and no chunk storage. GROUP gives every
/// input row a column holding only its 𝒜-header and one value (paper §3.2),
/// so its output, and CLEAN-UP's and `Table::Transposed`'s of it, would
/// otherwise be a whole ⊥ chunk per column. Only `FromEntries` makes one.
/// `Get` is a binary search; every write except `AppendNulls` and
/// `ResizeNull` first converts the column to the dense form.
///
/// Thread-safety: no const member writes any state, so concurrent reads
/// are safe. Writers need exclusive access.
class Column {
 public:
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 4096 cells
  static constexpr size_t kChunkMask = kChunkSize - 1;
  /// `FromEntries` picks the sparse form when at most one cell in this many
  /// is non-⊥. A 16-byte entry then costs at most a quarter of the 4-byte
  /// dense cells it replaces, and a dense reader's `ChunkView` scatters at
  /// most one entry per 16 cells it reads anyway.
  static constexpr size_t kSparseRatio = 16;

  /// One non-⊥ cell of a sparse column.
  struct Entry {
    size_t row;
    Symbol value;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  Column() = default;
  /// An all-⊥ column of `n` cells (every chunk lazy) — O(1), no allocation.
  explicit Column(size_t n) : size_(n) {}
  ~Column();
  Column(const Column&) = default;
  Column(Column&&) = default;
  Column& operator=(const Column&) = default;
  Column& operator=(Column&&) = default;

  /// A column of `n` cells holding `entries` and ⊥ elsewhere. `entries`
  /// must be sorted by strictly increasing row, each row < `n`; ⊥-valued
  /// entries are skipped. The one place a storage form is chosen: sparse
  /// when `entries.size() * kSparseRatio <= n` (non-⊥ entries counted),
  /// dense otherwise. Only the sparse form copies `entries`, so callers
  /// can build them in a reused buffer.
  static Column FromEntries(size_t n, std::span<const Entry> entries);

  size_t size() const { return size_; }
  size_t num_chunks() const { return (size_ + kChunkSize - 1) >> kChunkBits; }
  /// Cells spanned by chunk `c`.
  size_t ChunkLen(size_t c) const {
    return c + 1 < num_chunks() ? kChunkSize : size_ - c * kChunkSize;
  }
  bool is_sparse() const { return !entries_.empty(); }

  Symbol Get(size_t i) const {
    const Symbol* p = DenseChunk(i >> kChunkBits);
    if (p != nullptr) return p[i & kChunkMask];
    return entries_.empty() ? Symbol::Null() : SparseGet(i);
  }

  void Set(size_t i, Symbol s) {
    if (!entries_.empty()) Densify();
    const size_t c = i >> kChunkBits;
    std::vector<Symbol>* ch;
    if (c == 0) {
      ch = &chunk0_;
    } else {
      if (c - 1 >= rest_.size()) {
        if (s.is_null()) return;  // Absent chunks are already all-⊥.
        rest_.resize(c);
      }
      ch = &rest_[c - 1];
    }
    if (ch->empty()) {
      if (s.is_null()) return;  // Lazy chunks are already all-⊥.
      MaterializeChunk(*ch, ChunkLen(c));
    }
    (*ch)[i & kChunkMask] = s;
  }

  /// The `ChunkLen(c)` cells of chunk `c`, or nullptr when every one is ⊥.
  /// A dense column returns its own chunk; a sparse one writes the cells
  /// into `*scratch` and returns its data. The pointer is valid until the
  /// column is written or `*scratch` is reused.
  const Symbol* ChunkView(size_t c, std::vector<Symbol>* scratch) const {
    if (!entries_.empty()) return SparseChunk(c, scratch);
    return DenseChunk(c);
  }

  /// Calls `f(row, value)` for every non-⊥ cell, in row order. The dense
  /// form skips lazy chunks and, within materialized ones, 64-cell and then
  /// 8-cell blocks whose handles OR to zero (⊥ is handle 0); the literal
  /// trip counts compile to straight vector code.
  template <typename F>
  void ForEachNonNull(F&& f) const {
    if (!entries_.empty()) {
      for (const Entry& e : entries_) f(e.row, e.value);
      return;
    }
    for (size_t c = 0; c < num_chunks(); ++c) {
      const Symbol* p = DenseChunk(c);
      if (p == nullptr) continue;
      const size_t len = ChunkLen(c);
      const size_t base = c << kChunkBits;
      const auto visit = [&](size_t k) {
        if (!p[k].is_null()) f(base + k, p[k]);
      };
      size_t k = 0;
      for (; k + 64 <= len; k += 64) {
        uint32_t any = 0;
        for (size_t t = 0; t < 64; ++t) any |= p[k + t].raw_id();
        if (any == 0) continue;
        for (size_t s8 = 0; s8 < 64; s8 += 8) {
          uint32_t any8 = 0;
          for (size_t t = 0; t < 8; ++t) any8 |= p[k + s8 + t].raw_id();
          if (any8 == 0) continue;
          for (size_t t = 0; t < 8; ++t) visit(k + s8 + t);
        }
      }
      for (; k < len; ++k) visit(k);
    }
  }

  /// Grows (or shrinks) to `n` cells; new cells are ⊥ (lazy, or simply
  /// past a sparse column's last entry).
  void ResizeNull(size_t n);

  // -- Bulk builders (append at the tail) ------------------------------------

  void Append(Symbol s);
  /// Appends `n` ⊥ cells without materializing anything.
  void AppendNulls(size_t n);
  /// Appends `n` copies of `v`.
  void AppendFill(Symbol v, size_t n);
  /// Appends the `n` cells at `p` (bulk memcpy into tail chunks).
  void AppendSpan(const Symbol* p, size_t n);
  /// Appends cells [begin, begin + n) of `src` (chunk-level copies; all-⊥
  /// source spans stay lazy when the destination is chunk-aligned).
  void AppendRange(const Column& src, size_t begin, size_t n);
  /// Appends `src.Get(r)` for every r in `rows`.
  void AppendGather(const Column& src, const std::vector<size_t>& rows);

  /// Cell-wise equality, whatever the storage forms.
  friend bool operator==(const Column& a, const Column& b);

 private:
  /// Dense chunk cells, or nullptr for a lazy (all-⊥) chunk.
  const Symbol* DenseChunk(size_t c) const {
    if (c == 0) return chunk0_.empty() ? nullptr : chunk0_.data();
    if (c - 1 >= rest_.size() || rest_[c - 1].empty()) return nullptr;
    return rest_[c - 1].data();
  }
  Symbol SparseGet(size_t i) const;
  const Symbol* SparseChunk(size_t c, std::vector<Symbol>* scratch) const;
  /// Rewrites a sparse column in the dense form.
  void Densify();
  /// The chunk-`c` slot, created (lazy) if the storage doesn't reach it yet.
  std::vector<Symbol>& ChunkSlot(size_t c) {
    if (c == 0) return chunk0_;
    if (c - 1 >= rest_.size()) rest_.resize(c);
    return rest_[c - 1];
  }
  /// Fills `ch` with `len` ⊥ cells, reusing a pooled chunk buffer when one
  /// is available (see the thread-local freelist in table.cc).
  static void MaterializeChunk(std::vector<Symbol>& ch, size_t len);
  /// Returns `ch`'s buffer to the pool (or frees it) and leaves it empty.
  static void ReleaseChunk(std::vector<Symbol>& ch);

  // Invariants: a materialized interior chunk holds exactly kChunkSize
  // cells; a materialized tail chunk holds exactly its fill (= ChunkLen).
  // `rest_` may be *shorter* than num_chunks() - 1 — missing entries, like
  // empty vectors, stand for lazy all-⊥ spans, so an all-⊥ column of any
  // size allocates nothing at all. A column is sparse exactly when
  // `entries_` is non-empty; it then has no chunk storage, and its entries
  // are non-⊥, row-sorted, distinct and below `size_`.
  size_t size_ = 0;
  std::vector<Symbol> chunk0_;             // Chunk 0, inline (the common
                                           // single-chunk column needs no
                                           // chunk-table allocation).
  std::vector<std::vector<Symbol>> rest_;  // Chunks 1... (possibly short).
  std::vector<Entry> entries_;             // The sparse form's cells.
};

/// A table of the tabular database model (paper §2, Figure 2).
///
/// Formally a total mapping from {0..m} × {0..n} into the symbol universe,
/// i.e. an (m+1) × (n+1) matrix of `Symbol`s, where m = `height()` and
/// n = `width()` in the paper's convention. The four regions are:
///
///   * τ⁰₀           — the table name           (`name()`)
///   * τ⁰_{>0}       — the column attributes    (`ColumnAttribute(j)`, j ≥ 1)
///   * τ_{>0}⁰       — the row attributes       (`RowAttribute(i)`, i ≥ 1)
///   * τ_{>0}^{>0}   — the data entries         (`Data(i, j)`)
///
/// Unlike relations, row and column attributes are optional (⊥), need not be
/// distinct, and data may occur in attribute positions (Figure 1's
/// SalesInfo3). Row/column indices in this API are *physical*: row 0 is the
/// attribute row, column 0 the attribute column.
///
/// Storage is columnar (DESIGN.md §11): the name and the two attribute
/// vectors are small side arrays, and each data column is a `Column` of
/// dictionary-encoded chunks. The physical-index API below is unchanged
/// from the row-major representation; kernels that want chunk-at-a-time
/// access use `DataColumn`/`MutableDataColumn` and the attribute refs.
class Table {
 public:
  /// The minimal table: a single cell holding ⊥ (height 0, width 0).
  Table();

  /// An all-⊥ table with `num_rows` × `num_cols` physical cells.
  /// Both must be ≥ 1. O(cells / Column::kChunkSize), not O(cells).
  Table(size_t num_rows, size_t num_cols);

  /// Builds a table from explicit cell rows; every row must have the same
  /// length ≥ 1. The first row is the attribute row (first cell = name).
  static Result<Table> FromRows(std::vector<SymbolVec> rows);

  /// Assembles a table directly from columnar parts: `data.size()` must
  /// equal `col_attrs.size()` and every column's size must equal
  /// `row_attrs.size()`. The cheap path for vectorized kernels.
  static Table FromColumns(Symbol name, SymbolVec col_attrs,
                           SymbolVec row_attrs, std::vector<Column> data);

  /// Convenience fixture builder: each cell is parsed with `ParseCell`
  /// ("#" → ⊥, "!x" → name x, else value). Aborts on ragged input — for
  /// tests and examples only.
  static Table Parse(std::initializer_list<std::initializer_list<const char*>> rows);

  // -- Dimensions -----------------------------------------------------------

  /// Paper height m: number of data rows.
  size_t height() const { return num_rows_ - 1; }
  /// Paper width n: number of data columns.
  size_t width() const { return num_cols_ - 1; }
  /// Physical rows = height() + 1.
  size_t num_rows() const { return num_rows_; }
  /// Physical columns = width() + 1.
  size_t num_cols() const { return num_cols_; }

  // -- Cell access (physical indices) ---------------------------------------

  Symbol at(size_t i, size_t j) const {
    if (i == 0) return j == 0 ? name_ : col_attrs_[j - 1];
    if (j == 0) return row_attrs_[i - 1];
    return data_[j - 1].Get(i - 1);
  }
  void set(size_t i, size_t j, Symbol s) {
    if (i == 0) {
      (j == 0 ? name_ : col_attrs_[j - 1]) = s;
    } else if (j == 0) {
      row_attrs_[i - 1] = s;
    } else {
      data_[j - 1].Set(i - 1, s);
    }
  }

  /// τ⁰₀, the table name.
  Symbol name() const { return name_; }
  void set_name(Symbol s) { name_ = s; }

  /// τ⁰_j for 1 ≤ j ≤ width().
  Symbol ColumnAttribute(size_t j) const { return col_attrs_[j - 1]; }
  /// τ_i⁰ for 1 ≤ i ≤ height().
  Symbol RowAttribute(size_t i) const { return row_attrs_[i - 1]; }
  /// τ_i^j data entry for i, j ≥ 1.
  Symbol Data(size_t i, size_t j) const { return data_[j - 1].Get(i - 1); }

  /// The attribute row τ⁰_{>0} (without the name), in column order.
  SymbolVec ColumnAttributes() const { return col_attrs_; }
  /// The attribute column τ_{>0}⁰ (without the name), in row order.
  SymbolVec RowAttributes() const { return row_attrs_; }

  /// Physical row `i` as a vector of `num_cols()` symbols.
  SymbolVec Row(size_t i) const;
  /// Physical column `j` as a vector of `num_rows()` symbols.
  SymbolVec Column(size_t j) const;

  // -- Columnar access (vectorized-kernel API) ------------------------------

  /// Data column of physical column `j`, 1 ≤ j ≤ width(); cell `i - 1` of
  /// the column is physical cell (i, j).
  const core::Column& DataColumn(size_t j) const { return data_[j - 1]; }
  core::Column& MutableDataColumn(size_t j) { return data_[j - 1]; }
  /// The attribute vectors as flat arrays (entry i ↔ physical index i + 1).
  const SymbolVec& RowAttrs() const { return row_attrs_; }
  const SymbolVec& ColAttrs() const { return col_attrs_; }
  SymbolVec& MutableRowAttrs() { return row_attrs_; }
  SymbolVec& MutableColAttrs() { return col_attrs_; }

  // -- Structural edits -----------------------------------------------------

  /// Appends a physical row; `row.size()` must equal `num_cols()`.
  void AppendRow(const SymbolVec& row);
  /// Appends a physical column; `col.size()` must equal `num_rows()`.
  /// O(num_rows), unlike the row-major layout's full rebuild.
  void AppendColumn(const SymbolVec& col);

  // -- Attribute-based access (paper §2 terminology) -------------------------

  /// Physical indices j ≥ 1 of columns whose attribute equals `attr`.
  std::vector<size_t> ColumnsNamed(Symbol attr) const;
  /// Physical indices i ≥ 1 of rows whose attribute equals `attr`.
  std::vector<size_t> RowsNamed(Symbol attr) const;

  /// ρ_i(a): the *set* of data entries of row `i` appearing in columns
  /// named `a` (paper §2). ⊥ entries are included; use with the weak
  /// containment helpers, which ignore ⊥.
  SymbolSet RowEntries(size_t i, Symbol attr) const;
  /// Column dual of `RowEntries`.
  SymbolSet ColumnEntries(size_t j, Symbol attr) const;

  /// All symbols occurring anywhere in the table.
  SymbolSet AllSymbols() const;

  /// True if some data row exists (used by the `while R ≠ ∅` construct).
  bool HasDataRows() const { return height() > 0; }

  // -- Comparisons -----------------------------------------------------------

  /// Exact cell-wise equality (same dimensions, same symbols).
  friend bool operator==(const Table& a, const Table& b);

  /// Row subsumption ρ_i ⊑ σ_k (paper §2): for every column attribute `a`
  /// of either table, ρ_i(a) is weakly contained in σ_k(a).
  static bool RowSubsumed(const Table& rho, size_t i, const Table& sigma,
                          size_t k);
  /// Mutual subsumption ρ_i ≈ σ_k.
  static bool RowsSubsumeEachOther(const Table& rho, size_t i,
                                   const Table& sigma, size_t k);
  /// Column duals.
  static bool ColumnSubsumed(const Table& rho, size_t j, const Table& sigma,
                             size_t l);
  static bool ColumnsSubsumeEachOther(const Table& rho, size_t j,
                                      const Table& sigma, size_t l);

  /// Matrix transpose (rows become columns); the name cell stays in place.
  Table Transposed() const;

  /// Debug rendering: an aligned grid (see io::PrettyPrint for the
  /// figure-style renderer).
  std::string ToString() const;

 private:
  size_t num_rows_;
  size_t num_cols_;
  Symbol name_;
  SymbolVec row_attrs_;             // height() entries.
  SymbolVec col_attrs_;             // width() entries.
  std::vector<core::Column> data_;  // width() columns of height() cells.
};

}  // namespace tabular::core

#endif  // TABULAR_CORE_TABLE_H_
