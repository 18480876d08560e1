#ifndef LDLOPT_STORAGE_RELATION_H_
#define LDLOPT_STORAGE_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "obs/resource.h"
#include "storage/row_id_set.h"
#include "storage/tuple.h"

namespace ldl {

/// A set-semantics relation: duplicate-free bag of ground tuples with
/// lazily built, incrementally maintained hash indexes on column subsets.
///
/// Rows live in one arena of 16-byte Terms with stride arity(), so a row
/// is a TupleView into the arena and storing it allocates nothing of its
/// own (function terms excepted: their nodes are shared, not copied). The
/// row count is kept apart from the arena, so arity 0 works. A view, or a
/// pointer to a stored Term, is invalidated when the arena grows, i.e. by
/// any insert into the same relation.
///
/// Indexes survive inserts (they are extended on next access), which matters
/// because fixpoint evaluation keeps inserting into the relations it reads.
///
/// Relations can carry an optional (non-owning) ResourceAccountant: tuple
/// and index storage is charged as it grows and released when the relation
/// clears or dies, which is how per-query peak-bytes accounting reaches
/// scratch databases and memo tables. The exact amount charged so far is
/// tracked internally so release always balances charge even if the
/// estimation formula evolves.
class Relation {
 public:
  /// A hash index on one strictly increasing column list. It stores no key
  /// values: each distinct key gets a key id whose representative row
  /// holds the key in the arena, and a posting list of the row ids that
  /// hold it.
  struct Index {
    std::vector<int> cols;
    /// Key ids 0..keys.size()-1, keyed by the TupleHash of the key.
    RowIdSet keys;
    std::vector<uint32_t> rep;  ///< key id -> first row holding the key
    std::vector<std::vector<uint32_t>> postings;  ///< key id -> row ids
    size_t built_upto = 0;  ///< rows [0, built_upto) are indexed
  };
  /// The stored rows as a random-access range of TupleViews.
  class Rows {
   public:
    class iterator {
     public:
      iterator(const Relation* rel, size_t i) : rel_(rel), i_(i) {}
      TupleView operator*() const { return rel_->tuple(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& other) const = default;

     private:
      const Relation* rel_;
      size_t i_;
    };
    explicit Rows(const Relation* rel) : rel_(rel) {}
    size_t size() const { return rel_->size(); }
    TupleView operator[](size_t i) const { return rel_->tuple(i); }
    iterator begin() const { return {rel_, 0}; }
    iterator end() const { return {rel_, rel_->size()}; }

   private:
    const Relation* rel_;
  };

  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity) {}

  ~Relation() { ChargeDelta(0, charged_bytes_); }

  Relation(const Relation& other)
      : name_(other.name_),
        arity_(other.arity_),
        cells_(other.cells_),
        rows_(other.rows_),
        dedup_(other.dedup_),
        indexes_(other.indexes_),
        accountant_(other.accountant_) {
    charged_bytes_ = 0;
    ChargeDelta(other.charged_bytes_, 0);
  }
  Relation& operator=(const Relation& other) {
    if (this == &other) return *this;
    ChargeDelta(0, charged_bytes_);
    name_ = other.name_;
    arity_ = other.arity_;
    cells_ = other.cells_;
    rows_ = other.rows_;
    dedup_ = other.dedup_;
    indexes_ = other.indexes_;
    accountant_ = other.accountant_;
    charged_bytes_ = 0;
    ChargeDelta(other.charged_bytes_, 0);
    return *this;
  }
  Relation(Relation&& other) noexcept
      : name_(std::move(other.name_)),
        arity_(other.arity_),
        cells_(std::move(other.cells_)),
        rows_(other.rows_),
        dedup_(std::move(other.dedup_)),
        indexes_(std::move(other.indexes_)),
        accountant_(other.accountant_),
        charged_bytes_(other.charged_bytes_) {
    // The charge moves with the data: the source no longer owes anything.
    other.charged_bytes_ = 0;
    other.DropRows();
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this == &other) return *this;
    ChargeDelta(0, charged_bytes_);
    name_ = std::move(other.name_);
    arity_ = other.arity_;
    cells_ = std::move(other.cells_);
    rows_ = other.rows_;
    dedup_ = std::move(other.dedup_);
    indexes_ = std::move(other.indexes_);
    accountant_ = other.accountant_;
    charged_bytes_ = other.charged_bytes_;
    other.charged_bytes_ = 0;
    other.DropRows();
    return *this;
  }

  /// Attaches (or detaches, with nullptr) a resource accountant. Current
  /// contents are re-charged against the new accountant and released from
  /// the old one, so attachment order doesn't matter.
  void set_accountant(ResourceAccountant* accountant);
  ResourceAccountant* accountant() const { return accountant_; }

  /// Estimated bytes currently charged for tuple + index storage.
  uint64_t charged_bytes() const { return charged_bytes_; }

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  Rows tuples() const { return Rows(this); }
  TupleView tuple(size_t i) const {
    return TupleView(cells_.data() + i * arity_, arity_);
  }
  /// TupleHash of tuple(i), cached when the tuple was stored.
  size_t tuple_hash(size_t i) const { return dedup_.hash(i); }

  /// Inserts `t`; returns true iff the tuple was new. CHECK-fails on arity
  /// mismatch in debug builds; silently rejects in release.
  bool Insert(TupleView t);
  /// A braced row, e.g. Insert({a, b}).
  bool Insert(std::initializer_list<Term> t) {
    return Insert(TupleView(t.begin(), t.size()));
  }

  /// Insert with a precomputed TupleHash (`hash` must be TupleHash{}(t)
  /// for Contains to find the tuple later).
  bool InsertHashed(TupleView t, size_t hash);

  /// Inserts every tuple of `other` (arity must match), reusing its cached
  /// hashes; returns the number of new tuples. Inserting a relation into
  /// itself adds nothing and returns 0.
  size_t InsertAll(const Relation& other);

  /// Appends a tuple the caller guarantees is NOT already present, with its
  /// precomputed TupleHash: the fast path for copying rows out of a
  /// relation that already proved them distinct, e.g. a selection.
  void AppendUnchecked(TupleView t, size_t hash);

  bool Contains(TupleView t) const;
  bool Contains(std::initializer_list<Term> t) const {
    return Contains(TupleView(t.begin(), t.size()));
  }
  /// Contains with a precomputed TupleHash.
  bool ContainsHashed(TupleView t, size_t hash) const;

  void Clear();

  /// The index on `cols` (strictly increasing), created empty on first
  /// request and built by the next Lookup. The reference is a stable
  /// handle: valid until the relation is cleared, assigned to or
  /// destroyed; inserts extend the index but keep it.
  Index& IndexOn(const std::vector<int>& cols);

  /// Row ids whose values at the index's columns equal `key` (one value
  /// per column, same order), in insertion order. Extends the index over
  /// rows inserted since it was last read. The span is invalidated by the
  /// next insert into this relation.
  std::span<const uint32_t> Lookup(Index& index, TupleView key);
  std::span<const uint32_t> Lookup(const std::vector<int>& cols,
                                   TupleView key) {
    return Lookup(IndexOn(cols), key);
  }
  std::span<const uint32_t> Lookup(const std::vector<int>& cols,
                                   std::initializer_list<Term> key) {
    return Lookup(IndexOn(cols), TupleView(key.begin(), key.size()));
  }

  /// Number of distinct values in each column (over current contents),
  /// counted in one pass over the tuples.
  std::vector<size_t> DistinctCounts() const;

  std::string ToString(size_t max_tuples = 20) const;

 private:
  /// Appends a copy of row `t` to the arena.
  void AppendRow(const Term* t);
  void ExtendIndex(Index* index);
  /// Empties rows, dedup set and indexes without touching the charge.
  void DropRows() {
    cells_.clear();
    rows_ = 0;
    dedup_.Clear();
    indexes_.clear();
  }

  /// Fresh estimate of tuple + dedup + index storage from current contents.
  uint64_t EstimateBytes() const;

  /// Adjusts charged_bytes_ and forwards the delta to the accountant.
  /// No-op without an accountant: unattached relations track nothing, so
  /// the common (un-instrumented) path costs one branch.
  void ChargeDelta(uint64_t add, uint64_t release) {
    if (accountant_ == nullptr) return;
    charged_bytes_ += add;
    charged_bytes_ = charged_bytes_ >= release ? charged_bytes_ - release : 0;
    if (add != 0) accountant_->AddBytes(add);
    if (release != 0) accountant_->ReleaseBytes(release);
  }

  std::string name_;
  size_t arity_ = 0;
  /// The row arena: row i is cells_[i * arity_, (i + 1) * arity_).
  std::vector<Term> cells_;
  size_t rows_ = 0;
  // Dedup structure over row ids; also caches every row's hash.
  RowIdSet dedup_;
  // Secondary indexes keyed by the (sorted) column list. Map nodes never
  // move, which keeps IndexHandles stable.
  std::map<std::vector<int>, Index> indexes_;
  ResourceAccountant* accountant_ = nullptr;
  uint64_t charged_bytes_ = 0;
};

}  // namespace ldl

#endif  // LDLOPT_STORAGE_RELATION_H_
