#include "obs/search_trace.h"


#include "base/strings.h"

namespace ldl {

const char* CandidateDispositionToString(CandidateDisposition d) {
  switch (d) {
    case CandidateDisposition::kKept:
      return "kept";
    case CandidateDisposition::kDominated:
      return "dominated";
    case CandidateDisposition::kPrunedBound:
      return "pruned-bound";
    case CandidateDisposition::kPrunedUnsafe:
      return "pruned-unsafe";
    case CandidateDisposition::kMemoHit:
      return "memo-hit";
    case CandidateDisposition::kPrunedUnreachable:
      return "pruned-unreachable";
  }
  return "?";
}

uint32_t SearchTracer::CurrentScope() {
  if (!scope_stack_.empty()) return scope_stack_.back();
  // Candidates recorded outside any scope get an implicit root.
  scopes_.push_back({"(search)", -1});
  uint32_t root = static_cast<uint32_t>(scopes_.size() - 1);
  scope_stack_.push_back(root);
  return root;
}

uint32_t SearchTracer::BeginScope(std::string_view label) {
  if (!enabled_) return 0;
  SearchScopeInfo info;
  info.label.assign(label.data(), label.size());
  info.parent = scope_stack_.empty()
                    ? -1
                    : static_cast<int32_t>(scope_stack_.back());
  scopes_.push_back(std::move(info));
  uint32_t id = static_cast<uint32_t>(scopes_.size() - 1);
  scope_stack_.push_back(id);
  return id;
}

void SearchTracer::EndScope() {
  if (!enabled_) return;
  if (!scope_stack_.empty()) scope_stack_.pop_back();
}

uint32_t SearchTracer::InternDetail(std::string_view text) {
  if (text.empty()) {
    if (details_.empty()) details_.emplace_back();
    return 0;
  }
  if (details_.empty()) details_.emplace_back();
  details_.emplace_back(text);
  return static_cast<uint32_t>(details_.size() - 1);
}

void SearchTracer::RecordCandidate(const std::vector<size_t>& order,
                                   double cost,
                                   CandidateDisposition disposition,
                                   std::string_view detail) {
  if (!enabled_) return;
  if (candidates_.size() >= max_candidates_) {
    ++dropped_;
    return;
  }
  SearchCandidate c;
  c.scope = CurrentScope();
  c.order_offset = static_cast<uint32_t>(order_arena_.size());
  c.order_len = static_cast<uint32_t>(order.size());
  for (size_t idx : order) order_arena_.push_back(static_cast<uint32_t>(idx));
  c.cost = cost;
  c.disposition = disposition;
  c.detail = InternDetail(detail);
  candidates_.push_back(c);
}

void SearchTracer::RecordCandidateStep(const std::vector<size_t>& prefix,
                                       size_t next, double cost,
                                       CandidateDisposition disposition,
                                       std::string_view detail) {
  if (!enabled_) return;
  if (candidates_.size() >= max_candidates_) {
    ++dropped_;
    return;
  }
  SearchCandidate c;
  c.scope = CurrentScope();
  c.order_offset = static_cast<uint32_t>(order_arena_.size());
  c.order_len = static_cast<uint32_t>(prefix.size() + 1);
  for (size_t idx : prefix) order_arena_.push_back(static_cast<uint32_t>(idx));
  order_arena_.push_back(static_cast<uint32_t>(next));
  c.cost = cost;
  c.disposition = disposition;
  c.detail = InternDetail(detail);
  candidates_.push_back(c);
}

void SearchTracer::RecordMemoHit(uint32_t node, double cost) {
  if (!enabled_) return;
  if (candidates_.size() >= max_candidates_) {
    ++dropped_;
    return;
  }
  SearchCandidate c;
  c.scope = CurrentScope();
  c.order_offset = static_cast<uint32_t>(order_arena_.size());
  c.cost = cost;
  c.disposition = CandidateDisposition::kMemoHit;
  c.memo_node = node;
  candidates_.push_back(c);
}

uint32_t SearchTracer::InternMemoNode(std::string_view key) {
  if (!enabled_) return 0;
  auto it = memo_index_.find(key);
  if (it != memo_index_.end()) return it->second;
  MemoNodeInfo node;
  node.key.assign(key.data(), key.size());
  memo_.push_back(std::move(node));
  uint32_t id = static_cast<uint32_t>(memo_.size() - 1);
  memo_index_.emplace(memo_.back().key, id);
  return id;
}

void SearchTracer::SetMemoNode(uint32_t node, double cost, double card,
                               bool safe, std::string_view method,
                               std::string_view note) {
  if (!enabled_ || node >= memo_.size()) return;
  MemoNodeInfo& n = memo_[node];
  n.cost = cost;
  n.card = card;
  n.safe = safe;
  n.method.assign(method.data(), method.size());
  n.note.assign(note.data(), note.size());
}

void SearchTracer::AddMemoEdge(uint32_t parent, uint32_t child) {
  if (!enabled_ || parent >= memo_.size() || child >= memo_.size()) return;
  std::vector<uint32_t>& children = memo_[parent].children;
  for (uint32_t c : children) {
    if (c == child) return;
  }
  children.push_back(child);
}

void SearchTracer::MarkWinning(std::string_view key) {
  if (!enabled_) return;
  auto it = memo_index_.find(key);
  if (it != memo_index_.end()) memo_[it->second].winning = true;
}

void SearchTracer::Clear() {
  ++generation_;
  dropped_ = 0;
  scopes_.clear();
  scope_stack_.clear();
  candidates_.clear();
  order_arena_.clear();
  details_.clear();
  memo_.clear();
  memo_index_.clear();
}

std::vector<size_t> SearchTracer::OrderOf(const SearchCandidate& c) const {
  std::vector<size_t> order;
  order.reserve(c.order_len);
  for (uint32_t i = 0; i < c.order_len; ++i) {
    order.push_back(order_arena_[c.order_offset + i]);
  }
  return order;
}

const std::string& SearchTracer::DetailOf(const SearchCandidate& c) const {
  static const std::string kEmpty;
  if (c.memo_node != UINT32_MAX && c.memo_node < memo_.size()) {
    return memo_[c.memo_node].key;
  }
  if (c.detail == 0 || c.detail >= details_.size()) return kEmpty;
  return details_[c.detail];
}

size_t SearchTracer::CountDisposition(CandidateDisposition d) const {
  size_t n = 0;
  for (const SearchCandidate& c : candidates_) {
    if (c.disposition == d) ++n;
  }
  return n;
}

void SearchTracer::WriteJson(JsonWriter& w) const {
  // Costs can be infinite (§8.2 prices unsafe subplans at +inf); the
  // writer spells non-finite values as strings.
  w.BeginObject().Key("scopes").BeginArray();
  for (size_t i = 0; i < scopes_.size(); ++i) {
    w.BeginObject()
        .Member("id", i)
        .Member("label", scopes_[i].label)
        .Member("parent", scopes_[i].parent)
        .EndObject();
  }
  w.EndArray().Key("candidates").BeginArray();
  for (const SearchCandidate& c : candidates_) {
    w.BeginObject().Member("scope", c.scope).Key("order").BeginArray();
    for (uint32_t j = 0; j < c.order_len; ++j) {
      w.Value(order_arena_[c.order_offset + j]);
    }
    w.EndArray()
        .Member("cost", c.cost)
        .Member("disposition", CandidateDispositionToString(c.disposition));
    if (!DetailOf(c).empty()) w.Member("detail", DetailOf(c));
    w.EndObject();
  }
  w.EndArray()
      .Member("dropped_candidates", dropped_)
      .Key("memo")
      .BeginArray();
  for (const MemoNodeInfo& n : memo_) {
    w.BeginObject()
        .Member("key", n.key)
        .Member("cost", n.cost)
        .Member("card", n.card)
        .Member("safe", n.safe)
        .Member("winning", n.winning);
    if (!n.method.empty()) w.Member("method", n.method);
    if (!n.note.empty()) w.Member("note", n.note);
    w.Key("children").BeginArray();
    for (uint32_t child : n.children) w.Value(child);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
}

namespace {

/// DOT double-quoted string escaping (quotes and backslashes).
std::string DotEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

}  // namespace

void SearchTracer::WriteDot(std::ostream& os) const {
  os << "digraph memo_lattice {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";
  for (size_t i = 0; i < memo_.size(); ++i) {
    const MemoNodeInfo& n = memo_[i];
    os << "  n" << i << " [label=\"" << DotEscape(n.key);
    if (n.safe) {
      os << "\\ncost " << n.cost << "  card " << n.card;
      if (!n.method.empty()) os << "\\n" << DotEscape(n.method);
    } else {
      os << "\\nUNSAFE";
    }
    os << "\"";
    if (!n.safe) {
      os << ", color=gray, fontcolor=gray";
    } else if (n.winning) {
      os << ", style=filled, fillcolor=lightgoldenrod, penwidth=2";
    }
    os << "];\n";
  }
  for (size_t i = 0; i < memo_.size(); ++i) {
    for (uint32_t child : memo_[i].children) {
      os << "  n" << i << " -> n" << child;
      if (memo_[i].winning && child < memo_.size() &&
          memo_[child].winning) {
        os << " [color=red, penwidth=2]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
}

}  // namespace ldl
