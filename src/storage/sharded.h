#ifndef LDLOPT_STORAGE_SHARDED_H_
#define LDLOPT_STORAGE_SHARDED_H_

#include <cstdint>
#include <vector>

#include "storage/relation.h"
#include "storage/row_id_set.h"
#include "storage/tuple.h"

namespace ldl {

/// A thread-local output buffer for one parallel evaluation task: a
/// duplicate-free vector of tuples with their TupleHash values cached so the
/// downstream sharded merge never re-hashes. Not thread-safe — each worker
/// task owns exactly one batch, which is the point: workers derive into
/// private batches with zero synchronization, and only the merge barrier
/// touches shared state.
class TupleBatch {
 public:
  TupleBatch() = default;
  explicit TupleBatch(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  /// hashes()[i] == TupleHash{}(tuples()[i]).
  const std::vector<size_t>& hashes() const { return dedup_.hashes(); }

  /// Inserts `t` if not already present; returns true iff new. Mirrors
  /// Relation::Insert so rule evaluation can emit into either sink.
  bool Insert(Tuple t);

  /// Estimated heap bytes held by the batch, for resource accounting.
  uint64_t ApproxBytes() const { return approx_bytes_; }

  void Clear();

 private:
  size_t arity_ = 0;
  std::vector<Tuple> tuples_;
  RowIdSet dedup_;  // over tuples_ ids; caches their hashes
  uint64_t approx_bytes_ = 0;
};

/// Two-phase deterministic merge of per-task TupleBatches into a global
/// (full, delta) relation pair — the round barrier of the parallel
/// semi-naive loop.
///
/// Phase 1, CollectShard(s, ...), may run on P threads concurrently (one
/// shard each): it reads the frozen `base` relation and the frozen batches,
/// keeping only tuples whose hash routes to shard `s`, that are absent from
/// `base`, and that were not already collected by an earlier batch within
/// the shard. Shards partition the hash space, so no tuple is examined by
/// two threads and no locks are needed.
///
/// Phase 2, Commit(), runs on the coordinator after the barrier: it appends
/// shard 0..P-1 in order into `full` and `delta` via AppendUnchecked.
/// Because batches are always presented in task order and shards commit in
/// shard order, the merged contents — and therefore every subsequent round —
/// are identical for any worker schedule.
class ShardedMerger {
 public:
  explicit ShardedMerger(size_t num_shards);

  size_t num_shards() const { return shards_.size(); }

  /// Phase 1 (parallel-safe across distinct shards). `batches` must be the
  /// same task-ordered list for every shard; null entries are skipped.
  void CollectShard(size_t shard, const std::vector<const TupleBatch*>& batches,
                    const Relation& base);

  /// Phase 2 (coordinator only). Appends all collected tuples into `full`
  /// and, when non-null, `delta`; returns the number of new tuples. The
  /// merger is left empty and reusable for the next round.
  size_t Commit(Relation* full, Relation* delta);

  /// Total tuples collected so far (valid after all CollectShard calls).
  size_t CollectedCount() const;

 private:
  struct Shard {
    std::vector<Tuple> tuples;
    RowIdSet dedup;  // over tuples ids; caches their hashes
  };

  std::vector<Shard> shards_;
};

/// Partitions `rel` into `parts` relations by TupleHash modulo, preserving
/// relative tuple order within each partition. Partition relations reuse the
/// source's name/arity and carry no accountant (they are transient views for
/// one parallel round).
std::vector<Relation> HashPartitionRelation(const Relation& rel, size_t parts);

}  // namespace ldl

#endif  // LDLOPT_STORAGE_SHARDED_H_
