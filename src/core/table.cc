#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <sstream>
#include <utility>

namespace tabular::core {

// -- Column ------------------------------------------------------------------

namespace {

/// Thread-local cache of retired chunk buffers, all with capacity exactly
/// Column::kChunkSize. Kernels build and destroy many short-lived tables —
/// Group/CleanUp churn thousands of small shard tables, and bench/REPL loops
/// retire multi-gigacell results between calls; recycling the 16 KiB buffers
/// turns the per-chunk malloc/free pair (plus the page churn glibc's trim
/// causes at this allocation rate) into a pop/push. Capped at 8192 buffers
/// = 128 MiB per thread, enough to recycle a 3-column × 10M-row result
/// table between kernel invocations.
constexpr size_t kChunkFreelistCap = 8192;
thread_local std::vector<std::vector<Symbol>> t_chunk_freelist;

}  // namespace

void Column::MaterializeChunk(std::vector<Symbol>& ch, size_t len) {
  if (!t_chunk_freelist.empty()) {
    ch = std::move(t_chunk_freelist.back());
    t_chunk_freelist.pop_back();
    // Released buffers are cleared, so resize value-initializes: Symbol's
    // default state is ⊥ (raw id 0), giving an all-⊥ prefix.
    ch.resize(len);
  } else {
    ch.reserve(kChunkSize);
    ch.resize(len);
  }
}

void Column::ReleaseChunk(std::vector<Symbol>& ch) {
  if (ch.capacity() == kChunkSize && t_chunk_freelist.size() < kChunkFreelistCap) {
    ch.clear();
    t_chunk_freelist.push_back(std::move(ch));
  } else {
    std::vector<Symbol>().swap(ch);
  }
}

Column::~Column() {
  if (!chunk0_.empty()) ReleaseChunk(chunk0_);
  for (std::vector<Symbol>& ch : rest_) {
    if (!ch.empty()) ReleaseChunk(ch);
  }
}

Column Column::FromEntries(size_t n, std::span<const Entry> entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.row >= b.row;
                            }) == entries.end());
  assert(entries.empty() || entries.back().row < n);
  const auto non_null = [](const Entry& e) { return !e.value.is_null(); };
  const size_t count = std::count_if(entries.begin(), entries.end(), non_null);
  Column col(n);
  if (count * kSparseRatio <= n) {
    col.entries_.reserve(count);
    std::copy_if(entries.begin(), entries.end(),
                 std::back_inserter(col.entries_), non_null);
  } else {
    for (const Entry& e : entries) col.Set(e.row, e.value);
  }
  return col;
}

namespace {

using EntryIter = std::vector<Column::Entry>::const_iterator;

/// First entry of the row-sorted range [from, end) at or after `row`.
EntryIter EntryAtOrAfter(EntryIter from, EntryIter end, size_t row) {
  return std::partition_point(
      from, end, [row](const Column::Entry& e) { return e.row < row; });
}

}  // namespace

Symbol Column::SparseGet(size_t i) const {
  const EntryIter it = EntryAtOrAfter(entries_.begin(), entries_.end(), i);
  return it != entries_.end() && it->row == i ? it->value : Symbol::Null();
}

const Symbol* Column::SparseChunk(size_t c,
                                  std::vector<Symbol>* scratch) const {
  const size_t base = c << kChunkBits;
  EntryIter it = EntryAtOrAfter(entries_.begin(), entries_.end(), base);
  const EntryIter end = EntryAtOrAfter(it, entries_.end(), base + kChunkSize);
  if (it == end) return nullptr;
  scratch->assign(ChunkLen(c), Symbol::Null());
  for (; it != end; ++it) (*scratch)[it->row - base] = it->value;
  return scratch->data();
}

void Column::Densify() {
  const std::vector<Entry> entries = std::exchange(entries_, {});
  for (const Entry& e : entries) Set(e.row, e.value);
}

void Column::ResizeNull(size_t n) {
  size_ = n;
  if (!entries_.empty()) {
    std::erase_if(entries_, [n](const Entry& e) { return e.row >= n; });
    return;
  }
  const size_t want = num_chunks();
  // Drop storage beyond the new span.
  const size_t keep_rest = want > 1 ? want - 1 : 0;
  if (rest_.size() > keep_rest) {
    for (size_t k = keep_rest; k < rest_.size(); ++k) {
      if (!rest_[k].empty()) ReleaseChunk(rest_[k]);
    }
    rest_.resize(keep_rest);
  }
  if (want == 0) {
    if (!chunk0_.empty()) ReleaseChunk(chunk0_);
    return;
  }
  // Re-pad materialized chunks whose span length changed (the old tail on a
  // grow, the new tail on a shrink).
  if (!chunk0_.empty() && chunk0_.size() != ChunkLen(0)) {
    chunk0_.resize(ChunkLen(0));
  }
  for (size_t k = 0; k < rest_.size(); ++k) {
    if (!rest_[k].empty() && rest_[k].size() != ChunkLen(k + 1)) {
      rest_[k].resize(ChunkLen(k + 1));
    }
  }
}

void Column::Append(Symbol s) {
  if (s.is_null()) {
    AppendNulls(1);  // Keeps lazy tails lazy.
    return;
  }
  if (!entries_.empty()) Densify();
  const size_t c = size_ >> kChunkBits;
  const size_t off = size_ & kChunkMask;
  std::vector<Symbol>& ch = ChunkSlot(c);
  if (ch.empty()) MaterializeChunk(ch, off);
  ch.push_back(s);
  ++size_;
}

void Column::AppendNulls(size_t n) {
  while (n > 0) {
    const size_t c = size_ >> kChunkBits;
    const size_t off = size_ & kChunkMask;
    const size_t take = std::min(n, kChunkSize - off);
    // A materialized tail keeps vector length == fill; lazy or absent
    // chunks, and the sparse form, just extend the span.
    std::vector<Symbol>* ch = nullptr;
    if (c == 0) {
      ch = &chunk0_;
    } else if (c - 1 < rest_.size()) {
      ch = &rest_[c - 1];
    }
    if (ch != nullptr && !ch->empty()) ch->resize(off + take);
    size_ += take;
    n -= take;
  }
}

void Column::AppendFill(Symbol v, size_t n) {
  if (v.is_null()) {
    AppendNulls(n);
    return;
  }
  if (!entries_.empty()) Densify();
  while (n > 0) {
    const size_t c = size_ >> kChunkBits;
    const size_t off = size_ & kChunkMask;
    const size_t take = std::min(n, kChunkSize - off);
    std::vector<Symbol>& ch = ChunkSlot(c);
    if (ch.empty()) MaterializeChunk(ch, off);
    ch.resize(off + take, v);
    size_ += take;
    n -= take;
  }
}

void Column::AppendSpan(const Symbol* p, size_t n) {
  if (!entries_.empty()) Densify();
  while (n > 0) {
    const size_t c = size_ >> kChunkBits;
    const size_t off = size_ & kChunkMask;
    const size_t put = std::min(n, kChunkSize - off);
    std::vector<Symbol>& ch = ChunkSlot(c);
    if (ch.empty()) MaterializeChunk(ch, off);
    ch.insert(ch.end(), p, p + put);
    size_ += put;
    p += put;
    n -= put;
  }
}

void Column::AppendRange(const Column& src, size_t begin, size_t n) {
  std::vector<Symbol> scratch;
  while (n > 0) {
    const size_t c = begin >> kChunkBits;
    const size_t off = begin & kChunkMask;
    const size_t take = std::min(n, src.ChunkLen(c) - off);
    const Symbol* p = src.ChunkView(c, &scratch);
    if (p == nullptr) {
      AppendNulls(take);
    } else {
      AppendSpan(p + off, take);
    }
    begin += take;
    n -= take;
  }
}

void Column::AppendGather(const Column& src, const std::vector<size_t>& rows) {
  for (size_t r : rows) Append(src.Get(r));
}

bool operator==(const Column& a, const Column& b) {
  if (a.size_ != b.size_) return false;
  // Sparse entries are canonical (non-⊥, row-sorted, distinct).
  if (a.is_sparse() && b.is_sparse()) return a.entries_ == b.entries_;
  std::vector<Symbol> sa;
  std::vector<Symbol> sb;
  for (size_t c = 0; c < a.num_chunks(); ++c) {
    const Symbol* pa = a.ChunkView(c, &sa);
    const Symbol* pb = b.ChunkView(c, &sb);
    if (pa == nullptr && pb == nullptr) continue;
    const size_t len = a.ChunkLen(c);
    if (pa == nullptr || pb == nullptr) {
      const Symbol* p = pa == nullptr ? pb : pa;
      for (size_t i = 0; i < len; ++i) {
        if (!p[i].is_null()) return false;
      }
      continue;
    }
    if (!std::equal(pa, pa + len, pb)) return false;
  }
  return true;
}

// -- Table -------------------------------------------------------------------

Table::Table() : Table(1, 1) {}

Table::Table(size_t num_rows, size_t num_cols)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      row_attrs_(num_rows - 1),
      col_attrs_(num_cols - 1),
      data_(num_cols - 1, core::Column(num_rows - 1)) {
  assert(num_rows >= 1 && num_cols >= 1);
}

Result<Table> Table::FromRows(std::vector<SymbolVec> rows) {
  if (rows.empty() || rows[0].empty()) {
    return Status::InvalidArgument("table needs at least the name cell");
  }
  const size_t cols = rows[0].size();
  for (const SymbolVec& r : rows) {
    if (r.size() != cols) {
      return Status::InvalidArgument("ragged rows: expected " +
                                     std::to_string(cols) + " cells, got " +
                                     std::to_string(r.size()));
    }
  }
  Table t(1, cols);
  t.set_name(rows[0][0]);
  for (size_t j = 1; j < cols; ++j) t.col_attrs_[j - 1] = rows[0][j];
  for (size_t i = 1; i < rows.size(); ++i) t.AppendRow(rows[i]);
  return t;
}

Table Table::FromColumns(Symbol name, SymbolVec col_attrs,
                         SymbolVec row_attrs, std::vector<core::Column> data) {
  assert(data.size() == col_attrs.size());
#ifndef NDEBUG
  for (const core::Column& c : data) assert(c.size() == row_attrs.size());
#endif
  Table t;
  t.num_rows_ = 1 + row_attrs.size();
  t.num_cols_ = 1 + col_attrs.size();
  t.name_ = name;
  t.row_attrs_ = std::move(row_attrs);
  t.col_attrs_ = std::move(col_attrs);
  t.data_ = std::move(data);
  return t;
}

Table Table::Parse(
    std::initializer_list<std::initializer_list<const char*>> rows) {
  std::vector<SymbolVec> parsed;
  parsed.reserve(rows.size());
  for (const auto& row : rows) {
    SymbolVec cells;
    cells.reserve(row.size());
    for (const char* cell : row) cells.push_back(ParseCell(cell));
    parsed.push_back(std::move(cells));
  }
  Result<Table> t = FromRows(std::move(parsed));
  assert(t.ok() && "Table::Parse fixture is ragged");
  return std::move(t).value();
}

SymbolVec Table::Row(size_t i) const {
  SymbolVec out;
  out.reserve(num_cols_);
  for (size_t j = 0; j < num_cols_; ++j) out.push_back(at(i, j));
  return out;
}

SymbolVec Table::Column(size_t j) const {
  SymbolVec out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(at(i, j));
  return out;
}

void Table::AppendRow(const SymbolVec& row) {
  assert(row.size() == num_cols_);
  row_attrs_.push_back(row[0]);
  for (size_t j = 1; j < num_cols_; ++j) data_[j - 1].Append(row[j]);
  ++num_rows_;
}

void Table::AppendColumn(const SymbolVec& col) {
  assert(col.size() == num_rows_);
  col_attrs_.push_back(col[0]);
  data_.emplace_back();
  core::Column& c = data_.back();
  for (size_t i = 1; i < num_rows_; ++i) c.Append(col[i]);
  ++num_cols_;
}

std::vector<size_t> Table::ColumnsNamed(Symbol attr) const {
  std::vector<size_t> out;
  for (size_t j = 1; j < num_cols_; ++j) {
    if (col_attrs_[j - 1] == attr) out.push_back(j);
  }
  return out;
}

std::vector<size_t> Table::RowsNamed(Symbol attr) const {
  std::vector<size_t> out;
  for (size_t i = 1; i < num_rows_; ++i) {
    if (row_attrs_[i - 1] == attr) out.push_back(i);
  }
  return out;
}

SymbolSet Table::RowEntries(size_t i, Symbol attr) const {
  SymbolSet out;
  for (size_t j = 1; j < num_cols_; ++j) {
    if (col_attrs_[j - 1] == attr) out.insert(at(i, j));
  }
  return out;
}

SymbolSet Table::ColumnEntries(size_t j, Symbol attr) const {
  SymbolSet out;
  for (size_t i = 1; i < num_rows_; ++i) {
    if (row_attrs_[i - 1] == attr) out.insert(at(i, j));
  }
  return out;
}

SymbolSet Table::AllSymbols() const {
  SymbolSet out;
  out.insert(name_);
  out.insert(row_attrs_.begin(), row_attrs_.end());
  out.insert(col_attrs_.begin(), col_attrs_.end());
  for (const core::Column& col : data_) {
    size_t non_null = 0;
    col.ForEachNonNull([&](size_t, Symbol v) {
      out.insert(v);
      ++non_null;
    });
    if (non_null < col.size()) out.insert(Symbol::Null());
  }
  return out;
}

bool operator==(const Table& a, const Table& b) {
  return a.num_rows_ == b.num_rows_ && a.num_cols_ == b.num_cols_ &&
         a.name_ == b.name_ && a.row_attrs_ == b.row_attrs_ &&
         a.col_attrs_ == b.col_attrs_ && a.data_ == b.data_;
}

namespace {

/// Collects the distinct column attributes of both tables.
SymbolSet JointColumnAttributes(const Table& rho, const Table& sigma) {
  SymbolSet attrs;
  for (size_t j = 1; j < rho.num_cols(); ++j) attrs.insert(rho.at(0, j));
  for (size_t j = 1; j < sigma.num_cols(); ++j) attrs.insert(sigma.at(0, j));
  return attrs;
}

}  // namespace

bool Table::RowSubsumed(const Table& rho, size_t i, const Table& sigma,
                        size_t k) {
  for (Symbol a : JointColumnAttributes(rho, sigma)) {
    if (!WeaklyContained(rho.RowEntries(i, a), sigma.RowEntries(k, a))) {
      return false;
    }
  }
  return true;
}

bool Table::RowsSubsumeEachOther(const Table& rho, size_t i,
                                 const Table& sigma, size_t k) {
  return RowSubsumed(rho, i, sigma, k) && RowSubsumed(sigma, k, rho, i);
}

bool Table::ColumnSubsumed(const Table& rho, size_t j, const Table& sigma,
                           size_t l) {
  return RowSubsumed(rho.Transposed(), j, sigma.Transposed(), l);
}

bool Table::ColumnsSubsumeEachOther(const Table& rho, size_t j,
                                    const Table& sigma, size_t l) {
  return ColumnSubsumed(rho, j, sigma, l) && ColumnSubsumed(sigma, l, rho, j);
}

Table Table::Transposed() const {
  const size_t h = height();
  const size_t w = width();
  std::vector<core::Column> cols(h);
  if (std::any_of(data_.begin(), data_.end(),
                  [](const core::Column& c) { return c.is_sparse(); })) {
    // Scatter the non-⊥ cells into one row-sorted entry run per output
    // column (source columns are visited in order; a counting pass sizes
    // the runs), so the work is proportional to the non-⊥ cells and sparse
    // rows stay sparse.
    std::vector<size_t> start(h + 1, 0);
    for (const core::Column& col : data_) {
      col.ForEachNonNull([&](size_t i, Symbol) { ++start[i + 1]; });
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<core::Column::Entry> entries(start[h]);
    std::vector<size_t> next(start.begin(), start.end() - 1);
    for (size_t j = 0; j < w; ++j) {
      data_[j].ForEachNonNull(
          [&](size_t i, Symbol v) { entries[next[i]++] = {j, v}; });
    }
    for (size_t i = 0; i < h; ++i) {
      cols[i] = core::Column::FromEntries(
          w, std::span(entries).subspan(start[i], start[i + 1] - start[i]));
    }
  } else {
    // Dense: transpose one kTile × kTile block at a time through a buffer,
    // so the source column reads stay within one chunk per tile row, then
    // append each buffer row to its output column (which stays lazy where
    // the row is all ⊥). Blocks are visited source-column-block major, so
    // every output column is appended in order.
    constexpr size_t kTile = 64;
    SymbolVec tile(kTile * kTile);
    for (size_t jb = 0; jb < w; jb += kTile) {
      const size_t jn = std::min(w, jb + kTile) - jb;
      for (size_t ib = 0; ib < h; ib += kTile) {
        const size_t in = std::min(h, ib + kTile) - ib;
        for (size_t j = 0; j < jn; ++j) {
          const core::Column& src = data_[jb + j];
          for (size_t i = 0; i < in; ++i) tile[i * kTile + j] = src.Get(ib + i);
        }
        for (size_t i = 0; i < in; ++i) {
          const Symbol* row = tile.data() + i * kTile;
          uint32_t any = 0;
          for (size_t j = 0; j < jn; ++j) any |= row[j].raw_id();
          if (any == 0) {
            cols[ib + i].AppendNulls(jn);
          } else {
            cols[ib + i].AppendSpan(row, jn);
          }
        }
      }
    }
  }
  return FromColumns(name_, row_attrs_, col_attrs_, std::move(cols));
}

std::string Table::ToString() const {
  std::vector<size_t> col_width(num_cols_, 1);
  for (size_t j = 0; j < num_cols_; ++j) {
    for (size_t i = 0; i < num_rows_; ++i) {
      // ⊥ renders as a single display glyph but is 3 bytes in UTF-8; track
      // display width.
      size_t w = at(i, j).is_null() ? 1 : at(i, j).text().size();
      col_width[j] = std::max(col_width[j], w);
    }
  }
  std::ostringstream out;
  for (size_t i = 0; i < num_rows_; ++i) {
    for (size_t j = 0; j < num_cols_; ++j) {
      Symbol s = at(i, j);
      std::string cell = s.is_null() ? "⊥" : s.text();
      size_t display = s.is_null() ? 1 : cell.size();
      out << (j == 0 ? "| " : " ") << cell
          << std::string(col_width[j] - display, ' ') << (j + 1 == num_cols_ ? " |" : " |");
    }
    out << '\n';
    if (i == 0) {
      for (size_t j = 0; j < num_cols_; ++j) {
        out << '+' << std::string(col_width[j] + 2, '-');
      }
      out << "+\n";
    }
  }
  return out.str();
}

}  // namespace tabular::core
