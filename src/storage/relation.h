#ifndef LDLOPT_STORAGE_RELATION_H_
#define LDLOPT_STORAGE_RELATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "obs/resource.h"
#include "storage/row_id_set.h"
#include "storage/tuple.h"

namespace ldl {

/// A set-semantics relation: duplicate-free bag of ground tuples with
/// lazily built, incrementally maintained hash indexes on column subsets.
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
  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity) {}

  ~Relation() { ChargeDelta(0, charged_bytes_); }

  Relation(const Relation& other)
      : name_(other.name_),
        arity_(other.arity_),
        tuples_(other.tuples_),
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
    tuples_ = other.tuples_;
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
        tuples_(std::move(other.tuples_)),
        dedup_(std::move(other.dedup_)),
        indexes_(std::move(other.indexes_)),
        accountant_(other.accountant_),
        charged_bytes_(other.charged_bytes_) {
    // The charge moves with the data: the source no longer owes anything.
    other.charged_bytes_ = 0;
    other.tuples_.clear();
    other.dedup_.Clear();
    other.indexes_.clear();
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this == &other) return *this;
    ChargeDelta(0, charged_bytes_);
    name_ = std::move(other.name_);
    arity_ = other.arity_;
    tuples_ = std::move(other.tuples_);
    dedup_ = std::move(other.dedup_);
    indexes_ = std::move(other.indexes_);
    accountant_ = other.accountant_;
    charged_bytes_ = other.charged_bytes_;
    other.charged_bytes_ = 0;
    other.tuples_.clear();
    other.dedup_.Clear();
    other.indexes_.clear();
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
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  /// TupleHash of tuple(i), cached when the tuple was stored.
  size_t tuple_hash(size_t i) const { return dedup_.hash(i); }

  /// Inserts `t`; returns true iff the tuple was new. CHECK-fails on arity
  /// mismatch in debug builds; silently rejects in release.
  bool Insert(Tuple t);

  /// Insert with a precomputed TupleHash (`hash` must be TupleHash{}(t)
  /// for Contains to find the tuple later).
  bool InsertHashed(Tuple t, size_t hash);

  /// Inserts every tuple of `other` (arity must match), reusing its cached
  /// hashes; returns the number of new tuples.
  size_t InsertAll(const Relation& other);

  /// Moves every tuple of `src` that is new to this relation into it, in
  /// src order and reusing src's cached hashes, and appends a copy of each
  /// to `delta` when non-null. The delta append skips the dedup probe: a
  /// delta that only ever receives this relation's new tuples cannot
  /// already hold one. `src` is left empty but keeps its byte charge until
  /// it is cleared or destroyed, exactly as if its tuples had been copied.
  /// Returns the number of new tuples.
  size_t MergeFrom(Relation&& src, Relation* delta);

  /// Appends a tuple the caller guarantees is NOT already present, with its
  /// precomputed TupleHash. The fast path of the fixpoint merges: novelty
  /// was already proven (by a MergeFrom into the full relation), so only
  /// the slot append remains.
  void AppendUnchecked(Tuple t, size_t hash);

  bool Contains(const Tuple& t) const;
  /// Contains with a precomputed TupleHash.
  bool ContainsHashed(const Tuple& t, size_t hash) const;

  void Clear();

  /// Posting list of tuple ids whose values at `cols` equal `key` (same
  /// order). `cols` must be strictly increasing. Builds/extends the index
  /// on demand.
  const std::vector<uint32_t>& Lookup(const std::vector<int>& cols,
                                      const Tuple& key);

  /// Number of distinct values in each column (over current contents),
  /// counted in one pass over the tuples.
  std::vector<size_t> DistinctCounts() const;

  std::string ToString(size_t max_tuples = 20) const;

 private:
  struct Index {
    // Key: projected column values. Value: ids of matching tuples.
    std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> postings;
    size_t built_upto = 0;  // tuples_[0, built_upto) are indexed
  };

  void ExtendIndex(const std::vector<int>& cols, Index* index);

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
  std::vector<Tuple> tuples_;
  // Dedup structure over tuples_ ids; also caches every tuple's hash.
  RowIdSet dedup_;
  // Secondary indexes keyed by the (sorted) column list.
  std::map<std::vector<int>, Index> indexes_;
  ResourceAccountant* accountant_ = nullptr;
  uint64_t charged_bytes_ = 0;
};

}  // namespace ldl

#endif  // LDLOPT_STORAGE_RELATION_H_
