#ifndef TABULAR_ANALYSIS_SHAPE_H_
#define TABULAR_ANALYSIS_SHAPE_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/database.h"
#include "core/symbol.h"

namespace tabular::analysis {

/// The abstract-schema domain for the static analyzer.
///
/// A `TableShape` approximates every table carrying one name by its two
/// attribute regions (paper §2): the column attributes τ⁰_{>0} and the row
/// attributes τ_{>0}⁰. Sets are *may*-supersets — every attribute a real
/// run can produce is in the set — so membership proves nothing, but
/// **absence is definite**: if `cols.DefinitelyLacks(A)`, no execution
/// reaches this point with a column named A. All diagnostics that claim an
/// error are absence-based for exactly this reason.
///
/// Two further domains refine the may-sets (PR 5):
///
///   * `MustSet` — the dual *must*-subset: attributes every table carrying
///     the name certainly has, on every run. Membership is the definite
///     fact here; absence proves nothing. Join is set intersection and ⊤
///     (no certain knowledge) is the empty set.
///   * `CardInterval` — `[lo, hi]` bounds on a per-table count (data rows,
///     data columns) or on the number of tables carrying a name. Join is
///     interval hull; while-fixpoints use `Widen`, which jumps unstable
///     bounds to 0 / ∞ so loops terminate.

/// An abstract attribute set: ⊤ (anything, from wildcard-bound unknowns)
/// or a finite may-superset of the attributes that can occur.
struct AttrSet {
  bool top = false;
  core::SymbolSet elems;  // meaningful only when !top

  static AttrSet Top() { return AttrSet{true, {}}; }
  static AttrSet Of(core::SymbolSet s) { return AttrSet{false, std::move(s)}; }

  bool MayContain(core::Symbol s) const { return top || elems.contains(s); }
  /// The sound negative: no run produces attribute `s` here.
  bool DefinitelyLacks(core::Symbol s) const { return !top && !elems.contains(s); }

  void Insert(core::Symbol s) {
    if (!top) elems.insert(s);
  }
  void Erase(core::Symbol s) {
    if (!top) elems.erase(s);
  }

  /// Least upper bound: ⊤ absorbs; otherwise set union.
  void Join(const AttrSet& o);

  /// True when every state this set admits is admitted by `o`:
  /// o.top, or (finite both and elems ⊆ o.elems).
  bool SubsetOf(const AttrSet& o) const;

  /// "⊤" or "{A, B, ⊥}" in deterministic symbol order.
  std::string ToString() const;

  friend bool operator==(const AttrSet& a, const AttrSet& b) {
    return a.top == b.top && (a.top || a.elems == b.elems);
  }
};

/// The must-attribute domain: attributes provably present in every table
/// carrying the name, on every run reaching the program point. Dual to
/// `AttrSet`: here *membership* is the sound fact. The lattice order runs
/// by reverse inclusion — a larger set is more precise — so the join
/// (least upper bound of approximations) is set intersection, and ⊤ (no
/// certain knowledge at all) is the empty set.
struct MustSet {
  core::SymbolSet elems;

  static MustSet Top() { return MustSet{}; }
  static MustSet Of(core::SymbolSet s) { return MustSet{std::move(s)}; }

  /// The sound positive: every run has attribute `s` here.
  bool CertainlyContains(core::Symbol s) const { return elems.contains(s); }
  bool IsTop() const { return elems.empty(); }

  void Insert(core::Symbol s) { elems.insert(s); }
  void Erase(core::Symbol s) { elems.erase(s); }

  /// Least upper bound: set intersection (⊤ = ∅ absorbs).
  void Join(const MustSet& o);

  /// True when this set's guarantee implies `o`'s: elems ⊇ o.elems.
  bool Covers(const MustSet& o) const;

  /// "∅" or "{A, B}" in deterministic symbol order.
  std::string ToString() const;

  friend bool operator==(const MustSet& a, const MustSet& b) {
    return a.elems == b.elems;
  }
};

/// A `[lo, hi]` interval over non-negative counts, with hi = ∞ for the
/// unbounded top. Used for per-table data-row and data-column counts and
/// for the number of tables carrying a name.
///
/// Invariant: the ∞ sentinel only ever appears as an *upper* bound. The
/// arithmetic helpers clamp a saturating lower bound at `kInf - 1`, so
/// `hi == kInf` always means "unbounded" and `lo` is always a realizable
/// finite count.
struct CardInterval {
  /// Sentinel for an unbounded upper end.
  static constexpr uint64_t kInf = UINT64_MAX;

  /// Saturating scalar sums and products shared by the analyzer's transfer
  /// functions and the cost model. A result that would *reach* the kInf
  /// sentinel saturates to it (a finite count numerically equal to the
  /// sentinel is indistinguishable from ∞, so it must be reported as ∞ —
  /// never as an exact value, and never wrapped). 0·∞ = 0: a count
  /// multiplied by a provably-zero count is zero no matter how unbounded
  /// the other side is (e.g. PRODUCT rows with an empty side).
  static uint64_t SatAdd(uint64_t a, uint64_t b);
  static uint64_t SatMul(uint64_t a, uint64_t b);

  uint64_t lo = 0;
  uint64_t hi = kInf;

  static CardInterval Top() { return CardInterval{0, kInf}; }
  static CardInterval Exact(uint64_t n) { return CardInterval{n, n}; }
  static CardInterval Range(uint64_t lo, uint64_t hi) {
    return CardInterval{lo, hi};
  }
  /// Upper bound kept, lower bound dropped (the "may shrink" transfer).
  static CardInterval AtMost(uint64_t hi) { return CardInterval{0, hi}; }

  bool IsTop() const { return lo == 0 && hi == kInf; }
  bool Contains(uint64_t n) const { return lo <= n && n <= hi; }
  /// Interval containment: every count this admits, `o` admits.
  bool WithinOf(const CardInterval& o) const {
    return o.lo <= lo && hi <= o.hi;
  }
  /// The definite facts the optimizer keys on.
  bool DefinitelyZero() const { return hi == 0; }
  bool DefinitelyPositive() const { return lo >= 1; }

  /// Least upper bound: interval hull.
  void Join(const CardInterval& o);
  /// Widening: an unstable bound jumps straight to 0 / ∞, guaranteeing
  /// fixpoint termination at while loops.
  void Widen(const CardInterval& o);

  /// Saturating pointwise arithmetic for operator transfer functions.
  /// Upper bounds saturate to the ∞ sentinel; lower bounds clamp at
  /// `kInf - 1` (see the struct invariant) so `[kInf-1, ∞)` — not the
  /// contradictory "=∞" — is the most saturated interval expressible.
  CardInterval Plus(const CardInterval& o) const;
  CardInterval Times(const CardInterval& o) const;
  /// Adds a constant to both ends (saturating).
  CardInterval PlusConst(uint64_t n) const;

  /// "[2,5]", "[0,∞)", or "=3" for exact singletons.
  std::string ToString() const;

  friend bool operator==(const CardInterval& a, const CardInterval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// Abstract shape of the tables carrying one name.
struct TableShape {
  AttrSet cols;  ///< column attributes τ⁰_{>0}, may-superset
  AttrSet rows;  ///< row attributes τ_{>0}⁰, may-superset
  /// True when at least one table with this name exists on *every* path
  /// reaching the program point (so a statement reading it always has at
  /// least one instantiation).
  bool certain = false;
  MustSet must_cols;  ///< column attributes certainly present (every table)
  MustSet must_rows;  ///< row attributes certainly present (every table)
  /// Per-table data-row count bounds (paper height m), holding for every
  /// table carrying the name.
  CardInterval row_card = CardInterval::Top();
  /// Per-table data-column count bounds (paper width n).
  CardInterval col_card = CardInterval::Top();
  /// Bounds on the number of tables carrying the name.
  CardInterval count = CardInterval::Top();

  static TableShape Top(bool certain) {
    TableShape s;
    s.cols = AttrSet::Top();
    s.rows = AttrSet::Top();
    s.certain = certain;
    return s;
  }

  void Join(const TableShape& o, bool widen = false);

  /// "cols=⋯ rows=⋯" plus must/cardinality components when informative
  /// (existence flag not rendered).
  std::string ToString() const;

  friend bool operator==(const TableShape& a, const TableShape& b) {
    return a.cols == b.cols && a.rows == b.rows && a.certain == b.certain &&
           a.must_cols == b.must_cols && a.must_rows == b.must_rows &&
           a.row_card == b.row_card && a.col_card == b.col_card &&
           a.count == b.count;
  }
};

/// The abstract database: shapes keyed by table name. When `top` is set, a
/// wildcard (or pair) target may have written arbitrary names, so a name
/// missing from `tables` can still exist; when `top` is clear, a missing
/// name is **provably absent**.
struct AbstractDatabase {
  bool top = false;
  std::map<core::Symbol, TableShape, core::SymbolLess> tables;

  /// The lint default when no initial schema is given: anything may exist.
  static AbstractDatabase Unknown() { return AbstractDatabase{true, {}}; }

  /// The empty database: nothing exists until the program creates it.
  static AbstractDatabase Empty() { return AbstractDatabase{}; }

  /// Exact shapes of a concrete database (joined across same-named
  /// tables, must-sets intersected, cardinalities exact hulls); every name
  /// present is `certain`. Reads each table's attribute sets from the
  /// database's shared tables, so repeated calls on databases sharing
  /// tables cost O(#tables), not O(rows).
  static AbstractDatabase FromDatabase(const core::TabularDatabase& db);

  const TableShape* Find(core::Symbol name) const;
  bool MayExist(core::Symbol name) const {
    return top || tables.contains(name);
  }
  bool DefinitelyAbsent(core::Symbol name) const { return !MayExist(name); }
  bool CertainlyExists(core::Symbol name) const {
    const TableShape* s = Find(name);
    return s != nullptr && s->certain;
  }

  /// Shape read for a name under the current ⊤-state: ⊤ shape when the
  /// name is only covered by `top`; a provably absent name reads as the
  /// empty pool (count = 0).
  TableShape ShapeOf(core::Symbol name) const;

  /// Least upper bound: per-name shape join; a name on only one side stays
  /// with `certain` cleared (it may be absent on the other path). With
  /// `widen`, cardinality intervals widen instead of hulling (while
  /// fixpoints).
  void Join(const AbstractDatabase& o, bool widen = false);

  /// A wildcard write: any name may now exist with any shape. Existing
  /// names stay (replacement semantics never removes a name) but their
  /// shapes degrade to ⊤.
  void WildcardWrite();

  friend bool operator==(const AbstractDatabase& a, const AbstractDatabase& b) {
    return a.top == b.top && a.tables == b.tables;
  }

  std::string ToString() const;
};

}  // namespace tabular::analysis

#endif  // TABULAR_ANALYSIS_SHAPE_H_
