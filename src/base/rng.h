#ifndef LDLOPT_BASE_RNG_H_
#define LDLOPT_BASE_RNG_H_

#include <cstdint>
#include <vector>

#include "base/hash.h"

namespace ldl {

/// Deterministic 64-bit PRNG (splitmix64). Used by the simulated-annealing
/// search, the benchmark workload generators, and the differential-testing
/// program generator so that every experiment is reproducible from its seed.
///
/// Determinism guarantee: the sequence produced from a given seed is a pure
/// function of the splitmix64 recurrence — no global state, no
/// platform-dependent types, no std::random machinery — so it is identical
/// across runs, platforms, compilers, and library versions. Seed-addressed
/// artifacts (bench workloads, difftest repros like "seed 7, iteration 8")
/// therefore replay exactly, forever. The sequence is pinned by golden
/// values in tests/base_test.cc; changing the recurrence breaks every
/// recorded seed and MUST be treated as a format break, not a refactor.
/// Seed 0 is remapped to the splitmix64 increment (a zero state would not
/// mix well in the first few outputs).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    return Mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_;
};

}  // namespace ldl

#endif  // LDLOPT_BASE_RNG_H_
