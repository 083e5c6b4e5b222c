#include "algebra/cleanup.h"

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/transpose.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabular::algebra {

namespace {

/// Appends a symbol handle to a byte key. A `Symbol` is its interned
/// dictionary handle, so handle equality is symbol equality and the four
/// raw bytes are an injective fingerprint — no text needed.
void AppendHandle(Symbol s, std::string* out) {
  const uint32_t id = s.raw_id();
  out->push_back(static_cast<char>(id));
  out->push_back(static_cast<char>(id >> 8));
  out->push_back(static_cast<char>(id >> 16));
  out->push_back(static_cast<char>(id >> 24));
}

/// Open-addressed byte-string → group-id index. The sharded GROUP+CLEAN-UP
/// ingest path calls CleanUp tens of thousands of times on small tables,
/// where `unordered_map<std::string, ...>`'s per-lookup hashing/allocation
/// overhead dominates; this map keeps all inserted keys in one arena and
/// probes a flat pow2 slot array on a 64-bit FNV-1a, so a lookup is one
/// hash pass plus (almost always) one cache line.
class GroupIndex {
 public:
  explicit GroupIndex(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, Slot{0, kEmpty});
  }

  /// Returns the group id for `key`, inserting the next id on first sight.
  size_t FindOrInsert(const std::string& key) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
    for (char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h |= 1;  // Reserve 0 so hash==0 can't alias an empty slot.
    const size_t mask = slots_.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    while (slots_[idx].group != kEmpty) {
      if (slots_[idx].hash == h) {
        const Key& k = keys_[slots_[idx].group];
        if (k.len == key.size() &&
            arena_.compare(k.off, k.len, key) == 0) {
          return slots_[idx].group;
        }
      }
      idx = (idx + 1) & mask;
    }
    const size_t g = keys_.size();
    keys_.push_back(Key{arena_.size(), key.size()});
    arena_.append(key);
    slots_[idx] = Slot{h, static_cast<uint32_t>(g)};
    return g;
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  struct Slot {
    uint64_t hash;
    uint32_t group;
  };
  struct Key {
    size_t off, len;
  };
  std::vector<Slot> slots_;
  std::vector<Key> keys_;
  std::string arena_;
};

/// Specialization for the common CleanUp shape where the 𝒜-set is one
/// attribute labelling one column: the whole grouping key packs into a
/// single u64 (row-attribute handle << 32 | cell handle, ⊥ = 0), so a
/// lookup is one integer mix and one probe — no byte strings at all.
class GroupIndex64 {
 public:
  explicit GroupIndex64(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, Slot{0, kEmpty});
  }

  size_t FindOrInsert(uint64_t key) {
    uint64_t h = key + 0x9e3779b97f4a7c15ull;  // splitmix64 finalizer.
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    const size_t mask = slots_.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    while (slots_[idx].group != kEmpty) {
      if (slots_[idx].key == key) return slots_[idx].group;
      idx = (idx + 1) & mask;
    }
    slots_[idx] = Slot{key, next_++};
    return slots_[idx].group;
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  struct Slot {
    uint64_t key;
    uint32_t group;
  };
  std::vector<Slot> slots_;
  uint32_t next_ = 0;
};

}  // namespace

Result<Table> CleanUp(const Table& rho, const SymbolVec& by_attrs,
                      const SymbolVec& on_row_attrs, Symbol result_name) {
  TABULAR_TRACE_SPAN("cleanup", "algebra");
  // Candidate row attributes, deduplicated; the list is almost always tiny,
  // so a linear scan beats a node-based set.
  SymbolVec candidate_attrs;
  for (Symbol s : on_row_attrs) {
    if (std::find(candidate_attrs.begin(), candidate_attrs.end(), s) ==
        candidate_attrs.end()) {
      candidate_attrs.push_back(s);
    }
  }
  const auto is_candidate = [&](Symbol s) {
    for (Symbol c : candidate_attrs) {
      if (c == s) return true;
    }
    return false;
  };
  const size_t m = rho.height();
  const size_t width = rho.width();

  // Column positions of each 𝒜-attribute, hoisted once — the per-row key
  // below then touches exactly those columns instead of scanning the whole
  // attribute row per row per attribute.
  std::vector<std::vector<size_t>> by_cols(by_attrs.size());
  for (size_t a = 0; a < by_attrs.size(); ++a) {
    by_cols[a] = rho.ColumnsNamed(by_attrs[a]);
  }

  // Group candidate rows, remembering first-appearance order. The grouping
  // key is the row attribute plus, per 𝒜-attribute, the ⊥-stripped *set*
  // of entries under columns with that attribute — canonicalized as sorted
  // unique raw handles, which is injective on sets, so two rows key equal
  // exactly when the paper's attribute-set grouping makes them equal.
  std::vector<std::vector<size_t>> groups;
  // For output ordering: for each data row, either "pass through" or "group
  // g emitted at its first member's position".
  std::vector<long> row_group(rho.num_rows(), -1);
  const SymbolVec& row_attrs = rho.RowAttrs();
  if (by_cols.size() == 1 && by_cols[0].size() == 1) {
    // One 𝒜-attribute over one column: the ⊥-stripped entry set is the
    // cell itself (or empty), so the u64-keyed index applies.
    const core::Column& by_col = rho.DataColumn(by_cols[0][0]);
    GroupIndex64 group_index(m);
    for (size_t i = 1; i <= m; ++i) {
      if (!is_candidate(row_attrs[i - 1])) continue;
      const uint64_t key =
          (static_cast<uint64_t>(row_attrs[i - 1].raw_id()) << 32) |
          by_col.Get(i - 1).raw_id();
      const size_t g = group_index.FindOrInsert(key);
      if (g == groups.size()) groups.emplace_back();
      groups[g].push_back(i);
      row_group[i] = static_cast<long>(g);
    }
  } else {
    GroupIndex group_index(m);
    std::string key;
    std::vector<uint32_t> entry_set;
    for (size_t i = 1; i <= m; ++i) {
      if (!is_candidate(row_attrs[i - 1])) continue;
      key.clear();
      AppendHandle(row_attrs[i - 1], &key);
      for (const std::vector<size_t>& cols : by_cols) {
        key.push_back('\x1e');
        entry_set.clear();
        for (size_t j : cols) {
          Symbol s = rho.DataColumn(j).Get(i - 1);
          if (!s.is_null()) entry_set.push_back(s.raw_id());
        }
        std::sort(entry_set.begin(), entry_set.end());
        entry_set.erase(std::unique(entry_set.begin(), entry_set.end()),
                        entry_set.end());
        for (uint32_t id : entry_set) {
          AppendHandle(Symbol::UncheckedFromRaw(id), &key);
        }
      }
      const size_t g = group_index.FindOrInsert(key);
      if (g == groups.size()) groups.emplace_back();
      groups[g].push_back(i);
      row_group[i] = static_cast<long>(g);
    }
  }

  // Merge pass: a group merges only if no column holds two distinct non-⊥
  // values among its members — merging requires a position-wise least
  // common subsumer. Columns are visited one at a time, so one (column,
  // value) slot per group detects a conflict, and only non-⊥ cells of rows
  // in multi-member groups are looked at.
  std::vector<uint8_t> mergeable(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    mergeable[g] = groups[g].size() >= 2 ? 1 : 0;
  }
  struct Seen {
    size_t col = 0;  // 0: no non-⊥ cell in the current column yet.
    Symbol value;
  };
  std::vector<Seen> seen(groups.size());
  for (size_t j = 1; j <= width; ++j) {
    rho.DataColumn(j).ForEachNonNull([&](size_t r, Symbol v) {
      const long g = row_group[r + 1];
      if (g < 0 || !mergeable[g]) return;
      Seen& s = seen[g];
      if (s.col != j) {
        s = {j, v};
      } else if (s.value != v) {
        mergeable[g] = 0;
      }
    });
  }

  // Output rows: pass-through rows keep their position; a merged group is
  // emitted once, at its first member's position, and every member's cells
  // land there (without a conflict they agree).
  std::vector<size_t> out_pos(m);
  std::vector<size_t> group_pos(groups.size());
  SymbolVec out_row_attrs;
  out_row_attrs.reserve(m);
  for (size_t i = 1; i <= m; ++i) {
    const long g = row_group[i];
    if (g >= 0 && mergeable[g] && groups[g].front() != i) {
      out_pos[i - 1] = group_pos[g];
      continue;
    }
    if (g >= 0) group_pos[g] = out_row_attrs.size();
    out_pos[i - 1] = out_row_attrs.size();
    out_row_attrs.push_back(row_attrs[i - 1]);
  }
  const size_t out_m = out_row_attrs.size();

  // Emit per column by scattering the non-⊥ cells to their output rows. A
  // sparse source gives an entry list (re-sorted, since a merged member may
  // follow later pass-through rows, and de-duplicated); a dense one fills a
  // reusable buffer flushed with one AppendSpan, and an all-⊥ column stays
  // lazy via AppendNulls.
  std::vector<core::Column> data(width);
  SymbolVec buf(out_m);
  std::vector<core::Column::Entry> entries;
  for (size_t j = 1; j <= width; ++j) {
    const core::Column& src = rho.DataColumn(j);
    if (src.is_sparse()) {
      entries.clear();
      src.ForEachNonNull([&](size_t r, Symbol v) {
        entries.push_back({out_pos[r], v});
      });
      std::sort(entries.begin(), entries.end(),
                [](const core::Column::Entry& x, const core::Column::Entry& y) {
                  return x.row < y.row;
                });
      // Entries sharing a row are a merged group's members: equal values.
      entries.erase(std::unique(entries.begin(), entries.end()),
                    entries.end());
      data[j - 1] = core::Column::FromEntries(out_m, entries);
      continue;
    }
    std::fill(buf.begin(), buf.end(), Symbol::Null());
    bool any = false;
    src.ForEachNonNull([&](size_t r, Symbol v) {
      buf[out_pos[r]] = v;
      any = true;
    });
    if (any) {
      data[j - 1].AppendSpan(buf.data(), buf.size());
    } else {
      data[j - 1].AppendNulls(buf.size());
    }
  }
  Table out = Table::FromColumns(result_name, rho.ColAttrs(),
                                 std::move(out_row_attrs), std::move(data));
  static obs::OpCounters counters("algebra.cleanup");
  counters.Record(rho.height(), out.height());
  return out;
}

Result<Table> Purge(const Table& rho, const SymbolVec& on_col_attrs,
                    const SymbolVec& by_attrs, Symbol result_name) {
  TABULAR_TRACE_SPAN("purge", "algebra");
  Table t = rho.Transposed();
  TABULAR_ASSIGN_OR_RETURN(Table cleaned,
                           CleanUp(t, by_attrs, on_col_attrs, rho.name()));
  Table out = cleaned.Transposed();
  out.set_name(result_name);
  static obs::OpCounters counters("algebra.purge");
  counters.Record(rho.height(), out.height());
  return out;
}

Result<Table> DeduplicateRows(const Table& rho, Symbol result_name) {
  SymbolVec by = rho.ColumnAttributes();
  SymbolVec on = rho.RowAttributes();
  // Ensure unnamed rows participate even if the table has no data rows yet.
  on.push_back(core::Symbol::Null());
  return CleanUp(rho, by, on, result_name);
}

}  // namespace tabular::algebra
