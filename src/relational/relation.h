#ifndef TABULAR_RELATIONAL_RELATION_H_
#define TABULAR_RELATIONAL_RELATION_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/symbol.h"
#include "core/table.h"

namespace tabular::rel {

using core::Symbol;
using core::SymbolSet;
using core::SymbolVec;
using tabular::Result;
using tabular::Status;

/// Lexicographic order on tuples by Symbol::Compare; fixes a deterministic
/// iteration order for relations.
struct TupleLess {
  bool operator()(const SymbolVec& a, const SymbolVec& b) const;
};

/// A classical relation: a named, fixed-width set of tuples over distinct
/// attribute names. This is the substrate for the paper's §4.1 canonical
/// representation and the FO+while+new language of [3], and the baseline
/// model the tabular model generalizes.
class Relation {
 public:
  /// An empty relation named `name` over `attributes` (which must be
  /// non-empty and pairwise distinct; checked by `Validate`).
  Relation(Symbol name, SymbolVec attributes);

  /// Builder from string shorthand: name and attributes become names,
  /// tuple cells are parsed with `core::ParseCell`.
  static Relation Make(const char* name, std::vector<const char*> attrs,
                       std::vector<std::vector<const char*>> tuples = {});

  Symbol name() const { return name_; }
  void set_name(Symbol name) { name_ = name; }
  const SymbolVec& attributes() const { return attributes_; }
  size_t arity() const { return attributes_.size(); }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Index of `attr` or an error.
  Result<size_t> AttributeIndex(Symbol attr) const;

  /// Inserts a tuple (set semantics: duplicates are absorbed).
  /// Errors if the arity does not match.
  Status Insert(SymbolVec tuple);

  /// Bulk insert with the same semantics as repeated `Insert`. Into an
  /// empty relation, pre-sorted (TupleLess) input loads in linear time —
  /// the fast path for kernels that generate and sort tuples in bulk.
  Status InsertBulk(std::vector<SymbolVec> tuples);

  /// The tuples in deterministic (lexicographic) order.
  const std::set<SymbolVec, TupleLess>& tuples() const { return tuples_; }

  bool Contains(const SymbolVec& tuple) const {
    return tuples_.contains(tuple);
  }

  /// Verifies the schema invariants (distinct non-⊥ attribute names).
  Status Validate() const;

  /// Every symbol occurring in the relation (name, attributes, fields).
  SymbolSet AllSymbols() const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.name_ == b.name_ && a.attributes_ == b.attributes_ &&
           a.tuples_ == b.tuples_;
  }

  std::string ToString() const;

 private:
  Symbol name_;
  SymbolVec attributes_;
  std::set<SymbolVec, TupleLess> tuples_;
};

/// A relational database: relations keyed by name (at most one per name —
/// the classical model, unlike tabular databases).
class RelationalDatabase {
 public:
  /// Adds or replaces the relation carrying `r.name()`.
  void Put(Relation r);

  /// Looks up a relation; error if absent.
  Result<Relation> Get(Symbol name) const;
  const Relation* Find(Symbol name) const;

  bool Has(Symbol name) const { return relations_.contains(name); }
  size_t size() const { return relations_.size(); }
  void Remove(Symbol name) { relations_.erase(name); }

  /// Names in deterministic order.
  SymbolVec Names() const;

  SymbolSet AllSymbols() const;

  friend bool operator==(const RelationalDatabase& a,
                         const RelationalDatabase& b) {
    return a.relations_ == b.relations_;
  }

 private:
  std::map<Symbol, Relation, core::SymbolLess> relations_;
};

// -- Classical relational algebra (set semantics) ----------------------------

/// σ_{a = b}(r): keeps tuples whose `a` and `b` fields coincide.
Result<Relation> Select(const Relation& r, Symbol a, Symbol b,
                        Symbol result_name);

/// σ_{a = v}(r): constant selection.
Result<Relation> SelectConst(const Relation& r, Symbol a, Symbol v,
                             Symbol result_name);

/// π_𝒜(r): projection onto `attrs` (in the order given, which must be
/// distinct attributes of r); duplicates collapse.
Result<Relation> Project(const Relation& r, const SymbolVec& attrs,
                         Symbol result_name);

/// ρ_{b←a}(r): renames attribute `a` to `b`.
Result<Relation> Rename(const Relation& r, Symbol from, Symbol to,
                        Symbol result_name);

/// r ∪ s: requires identical attribute lists.
Result<Relation> Union(const Relation& r, const Relation& s,
                       Symbol result_name);

/// r \ s: requires identical attribute lists.
Result<Relation> Difference(const Relation& r, const Relation& s,
                            Symbol result_name);

/// r × s: attribute lists must be disjoint.
Result<Relation> Product(const Relation& r, const Relation& s,
                         Symbol result_name);

/// r ⋈ s: natural join on the shared attributes.
Result<Relation> NaturalJoin(const Relation& r, const Relation& s,
                             Symbol result_name);

}  // namespace tabular::rel

#endif  // TABULAR_RELATIONAL_RELATION_H_
