#ifndef LDLOPT_OBS_SEARCH_TRACE_H_
#define LDLOPT_OBS_SEARCH_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/json.h"

namespace ldl {

/// What happened to one candidate subplan the optimizer's search visited.
/// The dispositions mirror the search disciplines of the paper: dominated
/// candidates lose the cost race (section 7.1), pruned-bound prefixes fail
/// the branch-and-bound test, pruned-unsafe candidates get the infinite
/// cost of section 8.2, and memo hits are Figure 7-1's "optimized exactly
/// ONCE for each binding".
enum class CandidateDisposition : uint8_t {
  kKept,          ///< became (or extended) the best candidate so far
  kDominated,     ///< costed, complete/valid, but beaten by a cheaper one
  kPrunedBound,   ///< abandoned: prefix already costs >= the best bound
  kPrunedUnsafe,  ///< abandoned at infinite cost (EC violation, section 8.2)
  kMemoHit,       ///< answered from the (predicate, adornment) memo
  kPrunedUnreachable,  ///< skipped: static analysis proved the adornment
                       ///< unreachable from the query (analysis/analyzer.h)
};

const char* CandidateDispositionToString(CandidateDisposition d);

/// One nesting level of the search ("rule 2 [bf]", "clique #0 anc[bf]").
struct SearchScopeInfo {
  std::string label;
  int32_t parent = -1;  ///< index into scopes(), -1 for a root scope
};

/// One candidate event. The proposed order lives in a shared arena
/// (order_offset/order_len) so recording stays cheap on hot search paths;
/// use SearchTracer::OrderOf to materialize it.
struct SearchCandidate {
  uint32_t scope = 0;
  uint32_t order_offset = 0;
  uint32_t order_len = 0;
  double cost = 0;
  CandidateDisposition disposition = CandidateDisposition::kKept;
  uint32_t detail = 0;  ///< index into details(), 0 = no detail
  /// Memo lattice node this event refers to (memo hits), or UINT32_MAX.
  /// When set, DetailOf resolves to the node's key — so the hot memo-hit
  /// path records an index instead of building the key string again.
  uint32_t memo_node = UINT32_MAX;
};

/// One node of the final (predicate, adornment) -> Subplan memo lattice.
struct MemoNodeInfo {
  std::string key;  ///< AdornedPredicate::ToString(), e.g. "anc[bf]"
  double cost = 0;
  double card = 0;
  bool safe = true;
  bool winning = false;  ///< on the chosen plan's dependency closure
  std::string method;    ///< recursive method for clique nodes, else ""
  std::string note;      ///< diagnostic for unsafe nodes
  std::vector<uint32_t> children;  ///< memo node indices (deduplicated)
};

/// Recorder for the optimizer's search: every candidate order each join
/// order strategy visits, every memo interaction, the per-clique method
/// race, and the final memo lattice. Exported as JSON (ldl_profile
/// --search-json), Graphviz DOT of the lattice (--dot), and the EXPLAIN
/// OPTIMIZE rendering (plan/explain.h).
///
/// Cost contract, mirroring Tracer/Span: every mutator is a single branch
/// and touches nothing when the tracer is disabled, so a disabled tracer
/// can stay attached to hot paths (asserted allocation-free in obs_test).
/// All parameters are views — callers must not build strings for a
/// disabled tracer. NOT thread-safe: the optimizer's search is
/// single-threaded and so is this recorder.
class SearchTracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Caps the number of recorded candidates; further ones only bump
  /// dropped_candidates() (no silent truncation). Scopes and memo nodes
  /// are not capped (they are bounded by program size, not search size).
  void set_max_candidates(size_t cap) { max_candidates_ = cap; }

  /// Opens a nested scope; subsequent candidates attach to it. Returns the
  /// scope id (0 when disabled).
  uint32_t BeginScope(std::string_view label);
  void EndScope();

  /// Records one candidate (a complete or partial order) in the current
  /// scope. `order` uses the caller's item indexing; an empty order means
  /// the candidate is not an order (method race entries, memo hits).
  void RecordCandidate(const std::vector<size_t>& order, double cost,
                       CandidateDisposition disposition,
                       std::string_view detail = {});
  /// Same, with the order given as a prefix plus one extension item (the
  /// shape branch-and-bound and DP naturally produce).
  void RecordCandidateStep(const std::vector<size_t>& prefix, size_t next,
                           double cost, CandidateDisposition disposition,
                           std::string_view detail = {});
  /// Records a memo hit against an already-interned lattice node. This is
  /// the one per-cost-evaluation event of NR-OPT, so it must not build any
  /// strings: the node index stands in for the key (DetailOf resolves it).
  void RecordMemoHit(uint32_t node, double cost);

  /// Interns a memo lattice node by key, creating a placeholder on first
  /// sight. Returns 0 when disabled.
  uint32_t InternMemoNode(std::string_view key);
  /// Fills in the facts of a memo node (placeholders stay zeroed).
  void SetMemoNode(uint32_t node, double cost, double card, bool safe,
                   std::string_view method, std::string_view note);
  /// Adds a parent -> child dependency edge (deduplicated).
  void AddMemoEdge(uint32_t parent, uint32_t child);
  /// Marks the node for `key` as part of the winning plan, if it exists.
  void MarkWinning(std::string_view key);

  /// Drops all recorded state (scopes, candidates, memo); keeps enabled()
  /// and the candidate cap, and bumps generation(). For per-query reuse of
  /// one tracer.
  void Clear();

  /// Bumped on every Clear(). Callers that cache node indices from
  /// InternMemoNode (the optimizer's memo does) must revalidate against
  /// this before reusing them.
  uint32_t generation() const { return generation_; }

  const std::vector<SearchScopeInfo>& scopes() const { return scopes_; }
  const std::vector<SearchCandidate>& candidates() const {
    return candidates_;
  }
  const std::vector<MemoNodeInfo>& memo() const { return memo_; }
  size_t dropped_candidates() const { return dropped_; }

  /// Materializes a candidate's proposed order from the arena.
  std::vector<size_t> OrderOf(const SearchCandidate& c) const;
  /// The detail string of a candidate ("" when none).
  const std::string& DetailOf(const SearchCandidate& c) const;
  size_t CountDisposition(CandidateDisposition d) const;

  /// One JSON object: {"scopes": [...], "candidates": [...],
  /// "dropped_candidates": N, "memo": [...]}.
  void WriteJson(JsonWriter& w) const;
  /// Graphviz digraph of the memo lattice; winning nodes and the edges
  /// between them are highlighted.
  void WriteDot(std::ostream& os) const;

 private:
  uint32_t InternDetail(std::string_view text);
  uint32_t CurrentScope();

  /// Heterogeneous lookup so InternMemoNode/MarkWinning can probe with a
  /// string_view without materializing a std::string per call.
  struct TransparentStringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool enabled_ = true;
  size_t max_candidates_ = 1u << 20;
  size_t dropped_ = 0;
  uint32_t generation_ = 0;
  std::vector<SearchScopeInfo> scopes_;
  std::vector<uint32_t> scope_stack_;
  std::vector<SearchCandidate> candidates_;
  std::vector<uint32_t> order_arena_;
  std::vector<std::string> details_;  ///< details_[0] is always ""
  std::vector<MemoNodeInfo> memo_;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      memo_index_;
};

/// RAII scope against a possibly-null, possibly-disabled tracer; mirrors
/// Span's inert-by-default contract. Move-only.
class SearchScope {
 public:
  SearchScope() = default;
  SearchScope(SearchTracer* tracer, std::string_view label) {
    if (tracer == nullptr || !tracer->enabled()) return;
    tracer_ = tracer;
    tracer->BeginScope(label);
  }
  SearchScope(SearchScope&& other) noexcept : tracer_(other.tracer_) {
    other.tracer_ = nullptr;
  }
  SearchScope& operator=(SearchScope&& other) noexcept {
    if (this != &other) {
      Close();
      tracer_ = other.tracer_;
      other.tracer_ = nullptr;
    }
    return *this;
  }
  SearchScope(const SearchScope&) = delete;
  SearchScope& operator=(const SearchScope&) = delete;
  ~SearchScope() { Close(); }

  bool active() const { return tracer_ != nullptr; }

 private:
  void Close() {
    if (tracer_ == nullptr) return;
    tracer_->EndScope();
    tracer_ = nullptr;
  }
  SearchTracer* tracer_ = nullptr;
};

}  // namespace ldl

#endif  // LDLOPT_OBS_SEARCH_TRACE_H_
