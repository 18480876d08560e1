#ifndef LDLOPT_STORAGE_ROW_ID_SET_H_
#define LDLOPT_STORAGE_ROW_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ldl {

/// Duplicate detection for an append-only row store: an open-addressing set
/// over the row ids 0..size()-1, keyed by each row's hash.
///
/// The owner keeps the rows; the set keeps their hashes, indexed by row id,
/// so neither a probe nor a growth step ever re-hashes a row. Slots hold
/// `id + 1` (0 = empty) in a power-of-two array kept at most half full and
/// probed linearly. A probe compares cached hashes first and asks the owner
/// to compare rows only on a full 64-bit hash match.
///
/// The slot index is the hash's low bits, so callers pass well-mixed
/// hashes: TupleHash and Relation::DistinctCounts pass every column's
/// Term::Hash through Mix64 first. (Masked directly, the unmixed hashes of
/// neighbouring small-integer tuples are nearly consecutive and fill
/// adjacent slots that linear probing merges into long runs.)
class RowIdSet {
 public:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  size_t size() const { return hashes_.size(); }
  /// The hash row `id` was added with.
  size_t hash(size_t id) const { return hashes_[id]; }

  /// Id of the stored row with `hash` for which `same(id)` holds, or
  /// kAbsent.
  template <typename Same>
  uint32_t Find(size_t hash, Same same) const {
    if (slots_.empty()) return kAbsent;
    const uint32_t slot = slots_[Probe(hash, same)];
    return slot == 0 ? kAbsent : slot - 1;
  }

  /// Id of the stored row with `hash` for which `same(id)` holds; if there
  /// is none, adds row id size() with `hash` and returns it. `*added` tells
  /// which; after an add the caller appends the row itself.
  template <typename Same>
  uint32_t FindOrAdd(size_t hash, Same same, bool* added) {
    ReserveOneMore();
    const size_t i = Probe(hash, same);
    *added = slots_[i] == 0;
    if (*added) {
      slots_[i] = static_cast<uint32_t>(hashes_.size() + 1);
      hashes_.push_back(hash);
    }
    return slots_[i] - 1;
  }

  /// Adds row id size() with `hash` unless a stored row with that hash
  /// satisfies `same(id)`. Returns true iff the id was added; the caller
  /// then appends the row itself.
  template <typename Same>
  bool Insert(size_t hash, Same same) {
    bool added;
    FindOrAdd(hash, same, &added);
    return added;
  }

  /// Adds row id size() with `hash` for a row the caller knows is absent.
  void Append(size_t hash) {
    ReserveOneMore();
    slots_[Probe(hash, NeverSame)] = static_cast<uint32_t>(hashes_.size() + 1);
    hashes_.push_back(hash);
  }

  void Clear() {
    hashes_.clear();
    slots_.clear();
  }

 private:
  static bool NeverSame(uint32_t) { return false; }

  /// Slot holding the row that matches `hash` and `same`, else the empty
  /// slot where it belongs. The table must have at least one empty slot.
  template <typename Same>
  size_t Probe(size_t hash, Same& same) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0 || (hashes_[slot - 1] == hash && same(slot - 1))) {
        return i;
      }
    }
  }

  /// Doubles the slot array when one more row would fill it past half.
  void ReserveOneMore() {
    if ((hashes_.size() + 1) * 2 <= slots_.size()) return;
    slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, 0);
    for (size_t id = 0; id < hashes_.size(); ++id) {
      slots_[Probe(hashes_[id], NeverSame)] = static_cast<uint32_t>(id + 1);
    }
  }

  std::vector<size_t> hashes_;
  std::vector<uint32_t> slots_;
};

}  // namespace ldl

#endif  // LDLOPT_STORAGE_ROW_ID_SET_H_
