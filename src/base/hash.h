#ifndef LDLOPT_BASE_HASH_H_
#define LDLOPT_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ldl {

/// Mixes `value` into `seed` (boost::hash_combine recipe, 64-bit variant).
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// The splitmix64 finalizer: a bijection on 64-bit values whose every output
/// bit depends on every input bit. HashCombine over small integers yields
/// nearly consecutive values, so TupleHash mixes each column's hash through
/// this before combining, and open-addressing tables can then mask the
/// result down to a slot index directly.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hashes any std::hash-able value into `seed`.
template <typename T>
void HashValue(size_t* seed, const T& value) {
  HashCombine(seed, std::hash<T>{}(value));
}

}  // namespace ldl

#endif  // LDLOPT_BASE_HASH_H_
