#include "storage/sharded.h"

#include <cassert>

namespace ldl {

bool TupleBatch::Insert(Tuple t) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  if (t.size() != arity_) return false;
  const size_t hash = TupleHash{}(t);
  if (!dedup_.Insert(hash, [&](uint32_t id) { return tuples_[id] == t; })) {
    return false;
  }
  approx_bytes_ += ApproxTupleBytes(t) + sizeof(size_t) + sizeof(uint32_t);
  tuples_.push_back(std::move(t));
  return true;
}

void TupleBatch::Clear() {
  tuples_.clear();
  dedup_.Clear();
  approx_bytes_ = 0;
}

ShardedMerger::ShardedMerger(size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

void ShardedMerger::CollectShard(size_t shard,
                                 const std::vector<const TupleBatch*>& batches,
                                 const Relation& base) {
  assert(shard < shards_.size());
  Shard& s = shards_[shard];
  const size_t p = shards_.size();
  for (const TupleBatch* batch : batches) {
    if (batch == nullptr) continue;
    const auto& tuples = batch->tuples();
    const auto& hashes = batch->hashes();
    for (size_t i = 0; i < tuples.size(); ++i) {
      const size_t h = hashes[i];
      if (h % p != shard) continue;
      if (base.ContainsHashed(tuples[i], h)) continue;
      if (!s.dedup.Insert(
              h, [&](uint32_t id) { return s.tuples[id] == tuples[i]; })) {
        continue;
      }
      s.tuples.push_back(tuples[i]);
    }
  }
}

size_t ShardedMerger::Commit(Relation* full, Relation* delta) {
  size_t added = 0;
  for (Shard& s : shards_) {
    for (size_t i = 0; i < s.tuples.size(); ++i) {
      const size_t hash = s.dedup.hash(i);
      if (delta != nullptr) delta->AppendUnchecked(s.tuples[i], hash);
      full->AppendUnchecked(std::move(s.tuples[i]), hash);
      ++added;
    }
    s.tuples.clear();
    s.dedup.Clear();
  }
  return added;
}

size_t ShardedMerger::CollectedCount() const {
  size_t n = 0;
  for (const Shard& s : shards_) n += s.tuples.size();
  return n;
}

std::vector<Relation> HashPartitionRelation(const Relation& rel,
                                            size_t parts) {
  if (parts == 0) parts = 1;
  std::vector<Relation> out;
  out.reserve(parts);
  for (size_t i = 0; i < parts; ++i) {
    out.emplace_back(rel.name(), rel.arity());
  }
  for (size_t i = 0; i < rel.size(); ++i) {
    const size_t h = rel.tuple_hash(i);
    // Source relations are duplicate-free, so each partition append is new.
    out[h % parts].AppendUnchecked(rel.tuple(i), h);
  }
  return out;
}

}  // namespace ldl
