#ifndef LDLOPT_PERFBENCH_WORKLOADS_H_
#define LDLOPT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One operation of a workload's closed loop, as LDL text: the system under
/// test sees only this text.
struct Op {
  enum class Kind { kQuery, kWrite };
  Kind kind = Kind::kQuery;
  /// Goal text (no trailing '?') or a batch of ground facts.
  std::string text;
  /// Query class ("sg.free", "chain9.bound", ...) or "write".
  std::string cls;
  /// Answer count the generator knows in closed form; -1 when none.
  int64_t expect_rows = -1;
  /// Facts in a write batch.
  size_t facts = 0;
};

/// A seeded workload. A run repeats the pass, each time on a fresh system
/// loaded with `setup_text`, so every pass sees the same data versions and
/// must do exactly the same work.
struct Workload {
  /// Rules plus base facts.
  std::string setup_text;
  /// The operations of one pass, in order.
  std::vector<Op> pass;
  /// kb_session's operating mode: query log, feedback catalog plus drift
  /// detector, and tuple/byte budgets attached.
  bool operating_mode = false;
};

/// "closure", "joinplan" or "kb_session"; nullopt for any other name.
std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed);

}  // namespace perfbench

#endif  // LDLOPT_PERFBENCH_WORKLOADS_H_
