#include "storage/relation.h"

#include <cassert>
#include <sstream>

namespace ldl {

std::string TupleToString(TupleView t) {
  std::ostringstream os;
  os << '(';
  bool first = true;
  for (const Term& v : t) {
    if (!first) os << ", ";
    first = false;
    os << v;
  }
  os << ')';
  return os.str();
}

size_t ApproxTermBytes(const Term& t) {
  if (!t.IsFunction()) return 0;
  size_t n = sizeof(FunctionNode) + t.arity() * sizeof(Term);
  for (const Term& a : t.args()) n += ApproxTermBytes(a);
  return n;
}

size_t ApproxTupleBytes(TupleView t) {
  size_t n = t.size() * sizeof(Term);
  for (const Term& v : t) n += ApproxTermBytes(v);
  return n;
}

namespace {

// Per-row overhead of the dedup set: the cached hash plus one slot id.
constexpr size_t kDedupEntryBytes = sizeof(size_t) + sizeof(uint32_t);
// Per-key overhead of an index: a dedup entry, the representative row id
// and the posting list's vector header.
constexpr size_t kIndexKeyBytes =
    kDedupEntryBytes + sizeof(uint32_t) + sizeof(std::vector<uint32_t>);

/// TupleHash of row `row`'s values at `cols`.
size_t KeyHash(const Term* row, const std::vector<int>& cols) {
  size_t seed = cols.size();
  for (int c : cols) HashCombine(&seed, Mix64(row[c].Hash()));
  return seed;
}

}  // namespace

uint64_t Relation::EstimateBytes() const {
  uint64_t n = rows_ * kDedupEntryBytes;
  for (size_t i = 0; i < rows_; ++i) n += ApproxTupleBytes(tuple(i));
  for (const auto& [cols, index] : indexes_) {
    n += index.keys.size() * kIndexKeyBytes +
         index.built_upto * sizeof(uint32_t);
  }
  return n;
}

void Relation::set_accountant(ResourceAccountant* accountant) {
  if (accountant == accountant_) return;
  // Release the standing charge from the old accountant, then charge a
  // fresh estimate of current contents against the new one (attachment can
  // happen after the relation was populated un-instrumented).
  if (accountant_ != nullptr && charged_bytes_ != 0) {
    accountant_->ReleaseBytes(charged_bytes_);
  }
  accountant_ = accountant;
  charged_bytes_ = 0;
  if (accountant_ != nullptr) {
    charged_bytes_ = EstimateBytes();
    if (charged_bytes_ != 0) accountant_->AddBytes(charged_bytes_);
  }
}

void Relation::AppendRow(const Term* t) {
  // `t` never points into this arena: a stored row is never new to it.
  for (size_t c = 0; c < arity_; ++c) cells_.push_back(t[c]);
  ++rows_;
}

bool Relation::Insert(TupleView t) {
  return InsertHashed(t, TupleHash{}(t));
}

bool Relation::InsertHashed(TupleView t, size_t hash) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  if (t.size() != arity_) return false;
  if (!dedup_.Insert(hash, [&](uint32_t id) { return tuple(id) == t; })) {
    return false;
  }
  if (accountant_ != nullptr) {
    ChargeDelta(ApproxTupleBytes(t) + kDedupEntryBytes, 0);
  }
  AppendRow(t.data());
  return true;
}

size_t Relation::InsertAll(const Relation& other) {
  if (&other == this) return 0;
  size_t added = 0;
  for (size_t i = 0; i < other.size(); ++i) {
    if (InsertHashed(other.tuple(i), other.tuple_hash(i))) ++added;
  }
  return added;
}

void Relation::AppendUnchecked(TupleView t, size_t hash) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  assert(!ContainsHashed(t, hash) && "AppendUnchecked requires a new tuple");
  dedup_.Append(hash);
  if (accountant_ != nullptr) {
    ChargeDelta(ApproxTupleBytes(t) + kDedupEntryBytes, 0);
  }
  AppendRow(t.data());
}

bool Relation::Contains(TupleView t) const {
  return ContainsHashed(t, TupleHash{}(t));
}

bool Relation::ContainsHashed(TupleView t, size_t hash) const {
  return dedup_.Find(hash, [&](uint32_t id) { return tuple(id) == t; }) !=
         RowIdSet::kAbsent;
}

void Relation::Clear() {
  ChargeDelta(0, charged_bytes_);
  DropRows();
}

Relation::Index& Relation::IndexOn(const std::vector<int>& cols) {
  auto [it, fresh] = indexes_.try_emplace(cols);
  if (fresh) it->second.cols = cols;
  return it->second;
}

std::span<const uint32_t> Relation::Lookup(Index& index, TupleView key) {
  if (index.built_upto < rows_) ExtendIndex(&index);
  const std::vector<int>& cols = index.cols;
  const uint32_t k = index.keys.Find(TupleHash{}(key), [&](uint32_t id) {
    const Term* row = cells_.data() + index.rep[id] * arity_;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!(row[cols[i]] == key[i])) return false;
    }
    return true;
  });
  if (k == RowIdSet::kAbsent) return {};
  return index.postings[k];
}

void Relation::ExtendIndex(Index* index) {
  const std::vector<int>& cols = index->cols;
  const size_t keys_before = index->keys.size();
  for (size_t id = index->built_upto; id < rows_; ++id) {
    const Term* row = cells_.data() + id * arity_;
    bool added;
    const uint32_t k =
        index->keys.FindOrAdd(KeyHash(row, cols), [&](uint32_t key_id) {
          const Term* rep = cells_.data() + index->rep[key_id] * arity_;
          for (int c : cols) {
            if (!(rep[c] == row[c])) return false;
          }
          return true;
        }, &added);
    if (added) {
      index->rep.push_back(static_cast<uint32_t>(id));
      index->postings.emplace_back();
    }
    index->postings[k].push_back(static_cast<uint32_t>(id));
  }
  if (accountant_ != nullptr) {
    ChargeDelta((index->keys.size() - keys_before) * kIndexKeyBytes +
                    (rows_ - index->built_upto) * sizeof(uint32_t),
                0);
  }
  index->built_upto = rows_;
}

std::vector<size_t> Relation::DistinctCounts() const {
  // One set over (column, value) pairs for the whole relation; values are
  // referenced in place, never copied.
  struct Value {
    size_t col;
    const Term* term;
  };
  std::vector<Value> values;
  RowIdSet seen;
  std::vector<size_t> counts(arity_, 0);
  for (size_t i = 0; i < rows_; ++i) {
    const TupleView t = tuple(i);
    for (size_t c = 0; c < arity_; ++c) {
      size_t hash = c;
      HashCombine(&hash, Mix64(t[c].Hash()));
      const bool added = seen.Insert(hash, [&](uint32_t id) {
        return values[id].col == c && *values[id].term == t[c];
      });
      if (!added) continue;
      values.push_back({c, &t[c]});
      ++counts[c];
    }
  }
  return counts;
}

std::string Relation::ToString(size_t max_tuples) const {
  std::ostringstream os;
  os << name_ << '/' << arity_ << " [" << size() << " tuples]";
  for (size_t i = 0; i < rows_; ++i) {
    if (i >= max_tuples) {
      os << "\n  ...";
      break;
    }
    os << "\n  " << TupleToString(tuple(i));
  }
  return os.str();
}

}  // namespace ldl
