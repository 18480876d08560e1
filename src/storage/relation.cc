#include "storage/relation.h"

#include <cassert>
#include <sstream>

namespace ldl {

std::string TupleToString(const Tuple& t) {
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
  size_t n = sizeof(Term) + t.text().size();
  if (t.IsFunction()) {
    for (const Term& a : t.args()) n += ApproxTermBytes(a);
  }
  return n;
}

size_t ApproxTupleBytes(const Tuple& t) {
  size_t n = sizeof(Tuple);
  for (const Term& v : t) n += ApproxTermBytes(v);
  return n;
}

namespace {

// Per-tuple overhead of the dedup set: the cached hash plus one slot id.
constexpr size_t kDedupEntryBytes = sizeof(size_t) + sizeof(uint32_t);

}  // namespace

uint64_t Relation::EstimateBytes() const {
  uint64_t n = 0;
  for (const Tuple& t : tuples_) n += ApproxTupleBytes(t) + kDedupEntryBytes;
  for (const auto& [cols, index] : indexes_) {
    for (const auto& [key, postings] : index.postings) {
      n += ApproxTupleBytes(key) + postings.size() * sizeof(uint32_t);
    }
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

bool Relation::Insert(Tuple t) {
  const size_t hash = TupleHash{}(t);
  return InsertHashed(std::move(t), hash);
}

bool Relation::InsertHashed(Tuple t, size_t hash) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  if (t.size() != arity_) return false;
  if (!dedup_.Insert(hash, [&](uint32_t id) { return tuples_[id] == t; })) {
    return false;
  }
  if (accountant_ != nullptr) {
    ChargeDelta(ApproxTupleBytes(t) + kDedupEntryBytes, 0);
  }
  tuples_.push_back(std::move(t));
  return true;
}

size_t Relation::InsertAll(const Relation& other) {
  size_t added = 0;
  for (size_t i = 0; i < other.size(); ++i) {
    if (InsertHashed(other.tuple(i), other.tuple_hash(i))) ++added;
  }
  return added;
}

size_t Relation::MergeFrom(Relation&& src, Relation* delta) {
  assert(&src != this && delta != this && "MergeFrom needs distinct relations");
  size_t added = 0;
  for (size_t i = 0; i < src.size(); ++i) {
    const size_t hash = src.tuple_hash(i);
    const size_t id = tuples_.size();
    if (!InsertHashed(std::move(src.tuples_[i]), hash)) continue;
    if (delta != nullptr) delta->AppendUnchecked(tuples_[id], hash);
    ++added;
  }
  src.tuples_.clear();
  src.dedup_.Clear();
  src.indexes_.clear();
  return added;
}

void Relation::AppendUnchecked(Tuple t, size_t hash) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  assert(!ContainsHashed(t, hash) && "AppendUnchecked requires a new tuple");
  dedup_.Append(hash);
  if (accountant_ != nullptr) {
    ChargeDelta(ApproxTupleBytes(t) + kDedupEntryBytes, 0);
  }
  tuples_.push_back(std::move(t));
}

bool Relation::Contains(const Tuple& t) const {
  return ContainsHashed(t, TupleHash{}(t));
}

bool Relation::ContainsHashed(const Tuple& t, size_t hash) const {
  return dedup_.Find(hash, [&](uint32_t id) { return tuples_[id] == t; }) !=
         RowIdSet::kAbsent;
}

void Relation::Clear() {
  ChargeDelta(0, charged_bytes_);
  tuples_.clear();
  dedup_.Clear();
  indexes_.clear();
}

namespace {
// Shared "no match" posting list. Immutable after thread-safe static init,
// so relations of independent LdlSystems on different threads may all
// return it (the reentrancy contract in engine/builtins.h).
const std::vector<uint32_t>& EmptyPostings() {
  static const auto* empty = new std::vector<uint32_t>();
  return *empty;
}
}  // namespace

const std::vector<uint32_t>& Relation::Lookup(const std::vector<int>& cols,
                                              const Tuple& key) {
  Index& index = indexes_[cols];
  if (index.built_upto < tuples_.size()) ExtendIndex(cols, &index);
  auto it = index.postings.find(key);
  return it == index.postings.end() ? EmptyPostings() : it->second;
}

void Relation::ExtendIndex(const std::vector<int>& cols, Index* index) {
  uint64_t added_bytes = 0;
  for (size_t id = index->built_upto; id < tuples_.size(); ++id) {
    Tuple key;
    key.reserve(cols.size());
    for (int c : cols) key.push_back(tuples_[id][c]);
    if (accountant_ != nullptr) {
      added_bytes += ApproxTupleBytes(key) + sizeof(uint32_t);
    }
    index->postings[std::move(key)].push_back(static_cast<uint32_t>(id));
  }
  index->built_upto = tuples_.size();
  ChargeDelta(added_bytes, 0);
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
  for (const Tuple& t : tuples_) {
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
  size_t shown = 0;
  for (const Tuple& t : tuples_) {
    if (shown++ >= max_tuples) {
      os << "\n  ...";
      break;
    }
    os << "\n  " << TupleToString(t);
  }
  return os.str();
}

}  // namespace ldl
