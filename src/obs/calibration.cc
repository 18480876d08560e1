#include "obs/calibration.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "base/json.h"
#include "base/strings.h"
#include "engine/fixpoint.h"

namespace ldl {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Same vocabulary as EXPLAIN's node labels (plan/explain.cc), minus the
/// rule/clique suffixes, so the CALIBRATION table reads against the PLAN
/// table line by line.
std::string NodeLabel(const PlanNode& node) {
  std::string label = PlanNodeKindToString(node.kind);
  label += node.materialized ? " [mat]" : " [pipe]";
  if (!node.method.empty()) StrAppend(&label, " ", node.method);
  StrAppend(&label, " ", node.goal.ToString());
  if (node.binding.size() > 0) StrAppend(&label, " :", node.binding.ToString());
  return label;
}

void RecordInto(std::map<std::string, std::unique_ptr<Histogram>>* hists,
                const std::string& key, double v) {
  std::unique_ptr<Histogram>& h = (*hists)[key];
  if (h == nullptr) h = std::make_unique<Histogram>();
  h->Record(v);
}

void WriteHistogramGroup(
    JsonWriter& w,
    const std::map<std::string, std::unique_ptr<Histogram>>& hists) {
  w.BeginObject();
  for (const auto& [key, h] : hists) {
    w.Key(key)
        .BeginObject()
        .Member("count", h->count())
        .Member("p50", h->percentile(0.5))
        .Member("p95", h->percentile(0.95))
        .Member("max", h->max())
        .EndObject();
  }
  w.EndObject();
}

std::string OrderToString(const std::vector<size_t>& order) {
  return StrCat("[", StrJoin(order, ",", [](size_t i) { return StrCat(i); }),
                "]");
}

}  // namespace

double QError(double est_rows, double act_rows) {
  // Clamp both sides to one row (the customary q-error floor): an estimate
  // of 0.25 rows against an empty actual is "right", not infinitely wrong.
  double est = std::max(est_rows, 1.0);
  double act = std::max(act_rows, 1.0);
  return std::max(est / act, act / est);
}

CalibrationReport CalibrationReport::Build(const PlanNode& tree,
                                           const ExecutionProfile& profile,
                                           std::string query) {
  CalibrationReport report;
  report.query_ = std::move(query);

  struct Frame {
    const PlanNode* node;
    size_t depth;
  };
  std::vector<Frame> stack = {{&tree, 0}};
  // Explicit stack in child order: rebuild pre-order (a vector stack pops
  // last-first, so push children reversed).
  std::vector<Frame> pre;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    pre.push_back(f);
    for (auto it = f.node->children.rbegin(); it != f.node->children.rend();
         ++it) {
      stack.push_back({it->get(), f.depth + 1});
    }
  }

  for (const Frame& f : pre) {
    const PlanNode& node = *f.node;
    if (node.kind == PlanNodeKind::kBuiltin) continue;  // folded into parent
    // A bound scan's estimate is per binding instance, but the interpreter
    // resolves scans as whole-relation reads (selection happens in the rule
    // evaluator), so the two are not comparable; only free scans calibrate.
    if (node.kind == PlanNodeKind::kScan && node.binding.BoundCount() > 0) {
      continue;
    }
    const NodeActuals* a = profile.Find(&node);
    if (a == nullptr || a->executions == 0) continue;  // no measurement

    NodeCalibration nc;
    nc.label = NodeLabel(node);
    nc.kind = PlanNodeKindToString(node.kind);
    nc.method = node.method;
    nc.depth = f.depth;
    nc.est_rows = node.est_cardinality;
    nc.act_rows = a->RowsPerExecution();
    nc.executions = a->executions;
    nc.memo_hits = a->memo_hits;
    nc.q_error = QError(nc.est_rows, nc.act_rows);

    report.sorted_q_.push_back(nc.q_error);
    RecordInto(&report.by_kind_, nc.kind, nc.q_error);
    if (node.kind == PlanNodeKind::kCc && !nc.method.empty()) {
      RecordInto(&report.by_method_, nc.method, nc.q_error);
    }
    report.nodes_.push_back(std::move(nc));
  }
  std::sort(report.sorted_q_.begin(), report.sorted_q_.end());
  return report;
}

double CalibrationReport::QErrorPercentile(double p) const {
  if (sorted_q_.empty()) return 1;
  if (p <= 0) return sorted_q_.front();
  if (p >= 1) return sorted_q_.back();
  // Exact order statistics with linear interpolation between neighbours.
  double rank = p * static_cast<double>(sorted_q_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_q_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_q_[lo] + frac * (sorted_q_[hi] - sorted_q_[lo]);
}

double CalibrationReport::max_q_error() const {
  return sorted_q_.empty() ? 1 : sorted_q_.back();
}

void CalibrationReport::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("calibration.nodes")->Increment(nodes_.size());
  for (const NodeCalibration& nc : nodes_) {
    metrics->histogram("calibration.q_error")->Record(nc.q_error);
    metrics->histogram(StrCat("calibration.q_error.kind.", nc.kind))
        ->Record(nc.q_error);
    if (nc.kind == std::string("CC") && !nc.method.empty()) {
      metrics->histogram(StrCat("calibration.q_error.method.", nc.method))
          ->Record(nc.q_error);
    }
  }
  metrics->gauge("calibration.q_error.median")->Set(median_q_error());
  metrics->gauge("calibration.q_error.p95")->Set(p95_q_error());
  if (regret_.computed) {
    metrics->gauge("calibration.regret")->Set(regret_.regret());
    metrics->gauge("calibration.regret.ratio")->Set(regret_.ratio());
  }
}

void CalibrationReport::WriteJson(JsonWriter& w) const {
  w.BeginObject().Member("query", query_).Key("nodes").BeginArray();
  for (const NodeCalibration& nc : nodes_) {
    w.BeginObject()
        .Member("label", nc.label)
        .Member("kind", nc.kind)
        .Member("method", nc.method)
        .Member("depth", nc.depth)
        .Member("est_rows", nc.est_rows)
        .Member("act_rows", nc.act_rows)
        .Member("executions", nc.executions)
        .Member("memo_hits", nc.memo_hits)
        .Member("q_error", nc.q_error)
        .EndObject();
  }
  w.EndArray()
      .Key("aggregate")
      .BeginObject()
      .Member("nodes", nodes_.size())
      .Member("median_q_error", median_q_error())
      .Member("p95_q_error", p95_q_error())
      .Member("max_q_error", max_q_error())
      .EndObject();
  WriteHistogramGroup(w.Key("by_kind"), by_kind_);
  WriteHistogramGroup(w.Key("by_method"), by_method_);
  w.Key("regret")
      .BeginObject()
      .Member("computed", regret_.computed)
      .Member("note", regret_.note)
      .Member("est_cost_chosen", regret_.est_cost_chosen)
      .Member("measured_cost_chosen", regret_.measured_cost_chosen)
      .Member("measured_cost_hindsight", regret_.measured_cost_hindsight)
      .Member("regret", regret_.regret())
      .Member("ratio", regret_.ratio())
      .Key("changes")
      .BeginArray();
  for (const std::string& c : regret_.changes) w.Value(c);
  w.EndArray().EndObject().EndObject();
}

std::string CalibrationReport::ToString() const {
  struct Row {
    std::string label;
    std::vector<std::string> cells;
  };
  std::vector<Row> rows;
  for (const NodeCalibration& nc : nodes_) {
    Row row;
    row.label = std::string(nc.depth * 2, ' ') + nc.label;
    row.cells = {FormatDouble(nc.est_rows), FormatDouble(nc.act_rows),
                 StrCat(nc.executions), StrCat(nc.memo_hits),
                 FormatDouble(nc.q_error)};
    rows.push_back(std::move(row));
  }

  const std::vector<std::string> headers = {"EST ROWS", "ACT ROWS", "EXEC",
                                            "MEMO", "Q-ERR"};
  size_t label_width = 11;  // "CALIBRATION"
  for (const Row& row : rows) {
    label_width = std::max(label_width, row.label.size());
  }
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
    for (const Row& row : rows) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }

  std::ostringstream os;
  auto emit = [&](const std::string& label,
                  const std::vector<std::string>& cells) {
    os << label;
    for (size_t i = label.size(); i < label_width; ++i) os << ' ';
    for (size_t c = 0; c < cells.size(); ++c) {
      os << "  ";
      for (size_t i = cells[c].size(); i < widths[c]; ++i) os << ' ';
      os << cells[c];
    }
    os << '\n';
  };
  emit("CALIBRATION", headers);
  size_t total = label_width;
  for (size_t w : widths) total += 2 + w;
  os << std::string(total, '-') << '\n';
  for (const Row& row : rows) emit(row.label, row.cells);

  os << "aggregate: " << nodes_.size() << " nodes, q-error median "
     << FormatDouble(median_q_error()) << " p95 " << FormatDouble(p95_q_error())
     << " max " << FormatDouble(max_q_error()) << '\n';
  auto emit_group =
      [&](const char* title,
          const std::map<std::string, std::unique_ptr<Histogram>>& hists) {
        if (hists.empty()) return;
        os << title;
        bool first = true;
        for (const auto& [key, h] : hists) {
          if (!first) os << "  |";
          first = false;
          os << ' ' << key << " n=" << h->count()
             << " p50=" << FormatDouble(h->percentile(0.5))
             << " max=" << FormatDouble(h->max());
        }
        os << '\n';
      };
  emit_group("by kind:  ", by_kind_);
  emit_group("by method:", by_method_);

  os << "REGRET\n";
  if (!regret_.computed) {
    os << "  not computed: " << regret_.note << '\n';
  } else {
    os << "  est cost (chosen plan):        "
       << FormatDouble(regret_.est_cost_chosen) << '\n'
       << "  measured cost (chosen plan):   "
       << FormatDouble(regret_.measured_cost_chosen) << '\n'
       << "  measured cost (hindsight-opt): "
       << FormatDouble(regret_.measured_cost_hindsight) << '\n'
       << "  regret: " << FormatDouble(regret_.regret()) << " (ratio "
       << FormatDouble(regret_.ratio()) << ")\n";
    if (regret_.changes.empty()) {
      os << "  hindsight plan: identical decisions\n";
    } else {
      for (const std::string& c : regret_.changes) {
        os << "  hindsight change: " << c << '\n';
      }
    }
  }
  return os.str();
}

MeasuredStatistics HarvestMeasuredStatistics(const PlanNode& tree,
                                             const ExecutionProfile& profile) {
  // Pool replicated subtrees: sum rows and executions per (pred, binding),
  // then store the pooled per-execution average.
  struct Pooled {
    double rows = 0;
    double execs = 0;
  };
  std::unordered_map<AdornedPredicate, Pooled, AdornedPredicateHash> pooled;

  std::vector<const PlanNode*> stack = {&tree};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) stack.push_back(child.get());

    // AND nodes compute per-rule contributions, not the predicate's result;
    // only SCAN/OR/CC nodes measure a (predicate, binding) cardinality.
    if (node->kind != PlanNodeKind::kScan && node->kind != PlanNodeKind::kOr &&
        node->kind != PlanNodeKind::kCc) {
      continue;
    }
    const NodeActuals* a = profile.Find(node);
    if (a == nullptr || a->executions == 0) continue;
    // A scan's recorded rows measure the relation's total cardinality no
    // matter which binding annotates the node (inline resolution returns
    // the whole relation), so file it under the all-free adornment — the
    // key MeasuredStatistics::AdjustBaseItem reads.
    const Adornment adn = node->kind == PlanNodeKind::kScan
                              ? Adornment::AllFree(node->goal.arity())
                              : node->binding;
    Pooled& p = pooled[AdornedPredicate{node->goal.predicate(), adn}];
    p.rows += static_cast<double>(a->out_rows);
    p.execs += static_cast<double>(a->executions);
  }

  MeasuredStatistics measured;
  for (const auto& [ap, p] : pooled) {
    measured.Set(ap.pred, ap.adornment, p.rows / p.execs);
  }
  return measured;
}

RegretAnalysis ComputePlanRegret(const Program& program,
                                 const Statistics& stats,
                                 const OptimizerOptions& options,
                                 const Literal& goal, const QueryPlan& chosen,
                                 const MeasuredStatistics& measured) {
  RegretAnalysis out;
  out.est_cost_chosen = chosen.TotalCost();
  if (!chosen.safe) {
    out.note = "chosen plan is unsafe";
    return out;
  }
  if (measured.empty()) {
    out.note = "no measured statistics (nothing executed)";
    return out;
  }

  OptimizerOptions hind = options;
  hind.measured = &measured;
  hind.pinned = nullptr;
  hind.verify_plans = false;
  hind.trace = TraceContext{};  // hindsight runs are analysis, not workload

  Optimizer hindsight_opt(program, stats, hind);
  Result<QueryPlan> hindsight = hindsight_opt.Optimize(goal);
  if (!hindsight.ok()) {
    out.note = StrCat("hindsight optimization failed: ",
                      hindsight.status().message());
    return out;
  }
  if (!hindsight->safe) {
    out.note = StrCat("hindsight plan unsafe: ", hindsight->unsafe_reason);
    return out;
  }

  // Cost the *chosen* plan under the same measured model by pinning its
  // decisions and re-running. Best-effort pins (see PlanConstraints) make
  // this total even when a pinned order is unsafe under some adornment.
  PlanConstraints pins;
  pins.rule_orders = chosen.rule_orders;
  pins.clique_methods = chosen.clique_methods;
  OptimizerOptions pinned_options = hind;
  pinned_options.pinned = &pins;
  Optimizer pinned_opt(program, stats, pinned_options);
  Result<QueryPlan> pinned = pinned_opt.Optimize(goal);
  if (!pinned.ok()) {
    out.note =
        StrCat("pinned re-costing failed: ", pinned.status().message());
    return out;
  }
  if (!pinned->safe) {
    out.note = StrCat("pinned plan unsafe: ", pinned->unsafe_reason);
    return out;
  }

  out.measured_cost_chosen = pinned->TotalCost();
  out.measured_cost_hindsight = hindsight->TotalCost();
  // The hindsight search minimizes over a space containing the pinned plan;
  // floating-point noise aside it is never worse. Clamp so regret >= 0 holds
  // exactly and identical runs report exactly zero.
  if (out.measured_cost_hindsight > out.measured_cost_chosen) {
    out.measured_cost_hindsight = out.measured_cost_chosen;
  }
  out.computed = true;

  // Decision diff: what perfect estimates would have changed.
  if (hindsight->top_method != chosen.top_method) {
    out.changes.push_back(StrCat("top method ",
                                 RecursionMethodToString(chosen.top_method),
                                 " -> ",
                                 RecursionMethodToString(hindsight->top_method)));
  }
  for (const auto& [clique, method] : hindsight->clique_methods) {
    auto it = chosen.clique_methods.find(clique);
    if (it != chosen.clique_methods.end() && it->second != method) {
      out.changes.push_back(StrCat("clique #", clique, " method ",
                                   RecursionMethodToString(it->second), " -> ",
                                   RecursionMethodToString(method)));
    }
  }
  for (const auto& [rule, order] : hindsight->rule_orders) {
    auto it = chosen.rule_orders.find(rule);
    if (it != chosen.rule_orders.end() && it->second != order) {
      out.changes.push_back(StrCat("rule ", rule, " order ",
                                   OrderToString(it->second), " -> ",
                                   OrderToString(order)));
    }
  }
  return out;
}

}  // namespace ldl
