#include "workloads.h"

#include <algorithm>
#include <utility>

#include "base/rng.h"
#include "base/strings.h"

namespace perfbench {
namespace {

using ldl::Rng;
using ldl::StrAppend;
using ldl::StrCat;

/// Independent stream per (seed, purpose).
Rng StreamRng(uint64_t seed, uint64_t purpose) {
  Rng mix(seed ^ (purpose << 56));
  return Rng(mix.Next());
}

/// Every random shape (the DAG's edges, the join relations' rows) is drawn
/// from this fixed stream, and the seed only relabels it: each seed gives
/// the system different constants but the same statistics and the same
/// amount of work, so run-to-run spread measures the system, not the draw.
constexpr uint64_t kShapeSeed = 0x5eed5eed;

/// A seeded relabelling of 0..n-1.
std::vector<int64_t> Labels(size_t n, Rng* rng) {
  std::vector<int64_t> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int64_t>(i);
  rng->Shuffle(&labels);
  return labels;
}

void AddFact(std::string* text, std::string_view pred, int64_t a, int64_t b) {
  StrAppend(text, pred, "(", a, ", ", b, ").\n");
}

/// Deals `counts[i]` copies of class i into one pass, in seeded order.
std::vector<size_t> Deal(const std::vector<size_t>& counts, Rng* rng) {
  std::vector<size_t> deck;
  for (size_t c = 0; c < counts.size(); ++c) {
    deck.insert(deck.end(), counts[c], c);
  }
  rng->Shuffle(&deck);
  return deck;
}

int64_t Pick(const std::vector<int64_t>& from, Rng* rng) {
  return from[rng->Uniform(from.size())];
}

/// Appends the write probe of the query-only workloads: 100-fact batches
/// into probe/2, which no rule reads. They end the pass, so write latency
/// is measured at the workload's own base size and no answer changes.
void AddProbeWrites(uint64_t seed, std::vector<Op>* out) {
  constexpr size_t kBatches = 11;
  constexpr size_t kFacts = 100;
  Rng rng = StreamRng(seed, 99);
  for (size_t b = 0; b < kBatches; ++b) {
    Op op;
    op.kind = Op::Kind::kWrite;
    op.cls = "write";
    op.facts = kFacts;
    for (size_t i = 0; i < kFacts; ++i) {
      AddFact(&op.text, "probe", static_cast<int64_t>(b * kFacts + i),
              static_cast<int64_t>(rng.Uniform(1000)));
    }
    out->push_back(std::move(op));
  }
}

// ---------------------------------------------------------------------------
// closure: the engine's workload. Recursive rules over three graphs whose
// shapes are fixed and whose labels come from the seed:
//  - the E4 same-generation substrate: three roots in a flat/2 ring, fan-out
//    3, depth 5 (1092 nodes); sg(leaf, Y) has 3^5 = 243 answers;
//  - a random DAG, 400 nodes, 3 successors each among higher ids;
//  - a deep tree: kChains chains of kChainLen nodes under one root, so
//    anc(leaf, Y) has kChainLen answers.
// Free goals run full semi-naive fixpoints; bound goals run magic/counting.

constexpr size_t kSgFanout = 3;
constexpr size_t kSgDepth = 5;
constexpr int64_t kSgLeafAnswers = 243;  // kSgFanout^kSgDepth
constexpr size_t kDagNodes = 400;
constexpr size_t kDagOutDegree = 3;
constexpr int64_t kChains = 6;
constexpr int64_t kChainLen = 100;

/// Returns the leaves (depth kSgDepth).
std::vector<int64_t> AddSameGeneration(Rng* rng, std::string* text) {
  size_t nodes = 0;
  size_t width = kSgFanout;
  for (size_t d = 0; d <= kSgDepth; ++d, width *= kSgFanout) nodes += width;
  const std::vector<int64_t> label = Labels(nodes, rng);
  std::vector<size_t> level;
  for (size_t i = 0; i < kSgFanout; ++i) {
    level.push_back(i);
    AddFact(text, "flat", label[i], label[(i + 1) % kSgFanout]);
  }
  size_t next = kSgFanout;
  for (size_t d = 1; d <= kSgDepth; ++d) {
    std::vector<size_t> below;
    for (size_t parent : level) {
      for (size_t f = 0; f < kSgFanout; ++f) {
        const size_t child = next++;
        below.push_back(child);
        AddFact(text, "up", label[child], label[parent]);
        AddFact(text, "dn", label[parent], label[child]);
      }
    }
    level = std::move(below);
  }
  std::vector<int64_t> leaves;
  for (size_t leaf : level) leaves.push_back(label[leaf]);
  return leaves;
}

/// Returns the upper half of the DAG in topological order: bound tc goals
/// start there, where reachable sets are hundreds of nodes, not a handful.
std::vector<int64_t> AddDag(Rng* rng, std::string* text) {
  const std::vector<int64_t> label = Labels(kDagNodes, rng);
  Rng shape(kShapeSeed);
  for (size_t i = 0; i + 1 < kDagNodes; ++i) {
    for (size_t k = 0; k < kDagOutDegree; ++k) {
      const size_t j = i + 1 + shape.Uniform(kDagNodes - i - 1);
      AddFact(text, "edge", label[i], label[j]);
    }
  }
  return std::vector<int64_t>(label.begin(), label.begin() + kDagNodes / 2);
}

/// Returns the chain ends (depth kChainLen).
std::vector<int64_t> AddDeepTree(Rng* rng, std::string* text) {
  const std::vector<int64_t> label =
      Labels(1 + static_cast<size_t>(kChains * kChainLen), rng);
  std::vector<int64_t> leaves;
  size_t next = 1;
  for (int64_t c = 0; c < kChains; ++c) {
    size_t parent = 0;
    for (int64_t d = 0; d < kChainLen; ++d) {
      const size_t child = next++;
      AddFact(text, "par", label[child], label[parent]);
      parent = child;
    }
    leaves.push_back(label[parent]);
  }
  return leaves;
}

Workload MakeClosure(uint64_t seed) {
  Workload w;
  w.setup_text =
      "sg(X, Y) <- flat(X, Y).\n"
      "sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n"
      "tc(X, Y) <- edge(X, Y).\n"
      "tc(X, Y) <- edge(X, Z), tc(Z, Y).\n"
      "anc(X, Y) <- par(X, Y).\n"
      "anc(X, Y) <- par(X, Z), anc(Z, Y).\n";
  Rng rng = StreamRng(seed, 1);
  const std::vector<int64_t> sg_leaves = AddSameGeneration(&rng, &w.setup_text);
  const std::vector<int64_t> dag_sources = AddDag(&rng, &w.setup_text);
  const std::vector<int64_t> deep_leaves = AddDeepTree(&rng, &w.setup_text);

  // 15 queries, cheapest class first: 2 sg.bound (~1 ms), 2 tc.bound
  // (1-2 ms), 7 anc.bound (~7 ms), 1 anc.free and 1 tc.free (50-80 ms),
  // 2 sg.free (~0.9 s). Ranked by latency, the median (rank 8) is the
  // middle of the anc.bound block and p90 (rank 14) the sg.free block.
  enum { kSgBound, kAncBound, kTcBound, kTcFree, kAncFree, kSgFree };
  Rng deal = StreamRng(seed, 2);
  for (size_t cls : Deal({2, 7, 2, 1, 1, 2}, &deal)) {
    Op op;
    switch (cls) {
      case kSgBound:
        op.cls = "sg.bound";
        op.text = StrCat("sg(", Pick(sg_leaves, &deal), ", Y)");
        op.expect_rows = kSgLeafAnswers;
        break;
      case kAncBound:
        op.cls = "anc.bound";
        op.text = StrCat("anc(", Pick(deep_leaves, &deal), ", Y)");
        op.expect_rows = kChainLen;
        break;
      case kTcBound:
        op.cls = "tc.bound";
        op.text = StrCat("tc(", Pick(dag_sources, &deal), ", Y)");
        break;
      case kTcFree:
        op.cls = "tc.free";
        op.text = "tc(X, Y)";
        break;
      case kAncFree:
        op.cls = "anc.free";
        op.text = "anc(X, Y)";
        op.expect_rows = kChains * kChainLen * (kChainLen + 1) / 2;
        break;
      default:
        op.cls = "sg.free";
        op.text = "sg(X, Y)";
        break;
    }
    w.pass.push_back(std::move(op));
  }
  AddProbeWrites(seed, &w.pass);
  return w;
}

// ---------------------------------------------------------------------------
// joinplan: the optimizer's workload. Nonrecursive views over relations of
// 30-60 rows, queried with the first argument bound:
//  - E6-style layered views (kLayers layers of kWidth predicates, each
//    joining two of the layer below), where NR-OPT's per-binding memo
//    answers most references;
//  - E3/E5 shapes: a 9-literal chain, an 8-literal star and a 7-literal
//    cycle, whose exhaustive join-order search dominates the query.

constexpr size_t kLayers = 4;
constexpr size_t kWidth = 3;
constexpr size_t kDomain = 40;

/// Appends 30-60 rows over [0, kDomain)^2 whose shape comes from `shape`
/// and whose values are relabelled per column by `rng`; returns the
/// distinct values of column `key_column`.
std::vector<int64_t> AddRelation(const std::string& name, size_t key_column,
                                 Rng* shape, Rng* rng, std::string* text) {
  const std::vector<int64_t> first = Labels(kDomain, rng);
  const std::vector<int64_t> second = Labels(kDomain, rng);
  const size_t rows = 30 + shape->Uniform(31);
  std::vector<int64_t> keys;
  for (size_t r = 0; r < rows; ++r) {
    const int64_t a = first[shape->Uniform(kDomain)];
    const int64_t b = second[shape->Uniform(kDomain)];
    AddFact(text, name, a, b);
    keys.push_back(key_column == 0 ? a : b);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

Workload MakeJoinPlan(uint64_t seed) {
  Workload w;
  std::string& text = w.setup_text;
  Rng rng = StreamRng(seed, 1);
  Rng shape(kShapeSeed);
  std::vector<int64_t> layer_keys;
  for (size_t p = 0; p < kWidth; ++p) {
    std::vector<int64_t> keys = AddRelation(StrCat("b0_", p), 0, &shape, &rng, &text);
    layer_keys.insert(layer_keys.end(), keys.begin(), keys.end());
  }
  for (size_t l = 1; l <= kLayers; ++l) {
    const std::string below = l == 1 ? "b0_" : StrCat("p", l - 1, "_");
    for (size_t p = 0; p < kWidth; ++p) {
      StrAppend(&text, "p", l, "_", p, "(X, Z) <- ", below, p, "(X, Y), ",
                below, (p + 1) % kWidth, "(Y, Z).\n");
    }
  }
  // chain9(X0, X9) <- r1(X0, X1), ..., r9(X8, X9).
  std::vector<int64_t> chain_keys;
  std::string body;
  for (size_t i = 1; i <= 9; ++i) {
    std::vector<int64_t> keys = AddRelation(StrCat("r", i), 0, &shape, &rng, &text);
    if (i == 1) chain_keys = std::move(keys);
    StrAppend(&body, i > 1 ? ", " : "", "r", i, "(X", i - 1, ", X", i, ")");
  }
  StrAppend(&text, "chain9(X0, X9) <- ", body, ".\n");
  // star8: every s_i shares the hub H; the goal binds the first leaf.
  std::vector<int64_t> star_keys;
  body.clear();
  for (size_t i = 1; i <= 8; ++i) {
    std::vector<int64_t> keys = AddRelation(StrCat("s", i), 1, &shape, &rng, &text);
    if (i == 1) star_keys = std::move(keys);
    StrAppend(&body, i > 1 ? ", " : "", "s", i, "(H, X", i, ")");
  }
  StrAppend(&text, "star8(X1, X8) <- ", body, ".\n");
  // cycle7: a 7-literal chain closed back onto its first variable.
  std::vector<int64_t> cycle_keys;
  body.clear();
  for (size_t i = 1; i <= 7; ++i) {
    std::vector<int64_t> keys = AddRelation(StrCat("c", i), 0, &shape, &rng, &text);
    if (i == 1) cycle_keys = std::move(keys);
    StrAppend(&body, i > 1 ? ", " : "", "c", i, "(X", i - 1, ", X", i % 7,
              ")");
  }
  StrAppend(&text, "cycle7(X0, X3) <- ", body, ".\n");

  // 40 queries, cheapest class first: 8 cycle7, 16 chain9 and 8 layered
  // (0.3-1.5 ms), 8 star8 (~20 ms). The median (rank 20) falls among the
  // chain9 goals and p90 (rank 36) in the middle of the star8 block.
  enum { kLayered, kCycle, kStar, kChain };
  Rng deal = StreamRng(seed, 2);
  for (size_t cls : Deal({8, 8, 8, 16}, &deal)) {
    Op op;
    switch (cls) {
      case kLayered:
        op.cls = "layered.bound";
        op.text = StrCat("p", kLayers, "_", deal.Uniform(kWidth), "(",
                         Pick(layer_keys, &deal), ", Z)");
        break;
      case kCycle:
        op.cls = "cycle7.bound";
        op.text = StrCat("cycle7(", Pick(cycle_keys, &deal), ", Y)");
        break;
      case kStar:
        op.cls = "star8.bound";
        op.text = StrCat("star8(", Pick(star_keys, &deal), ", Y)");
        break;
      default:
        op.cls = "chain9.bound";
        op.text = StrCat("chain9(", Pick(chain_keys, &deal), ", Y)");
        break;
    }
    w.pass.push_back(std::move(op));
  }
  AddProbeWrites(seed, &w.pass);
  return w;
}

// ---------------------------------------------------------------------------
// kb_session: the operating-mode workload. The rules of
// examples/corporate.ldl and examples/ancestor.ldl (negation, arithmetic,
// transitive closure) over a seeded company and family. Each of the pass's
// kRounds rounds writes one fact batch (new hires and births), then asks
// kQuestions bound questions about people who exist at that point. The
// generator tracks both trees, so every answer count is known in closed
// form.

constexpr size_t kBaseEmployees = 300;
constexpr size_t kBasePeople = 400;
constexpr size_t kHiresPerRound = 40;
constexpr size_t kBirthsPerRound = 60;
constexpr size_t kRounds = 16;
constexpr size_t kQuestions = 6;

struct Company {
  std::vector<int64_t> boss;     // -1 for the chief
  std::vector<int64_t> salary;
  std::vector<int64_t> reports;  // direct reports
  std::vector<int64_t> below;    // everyone below, transitively
  std::vector<int64_t> depth;    // family: ancestors of person i
};

/// Adds hires (emp + manages) and births (par), appending their facts to
/// `text`; returns the number of facts.
size_t Grow(size_t hires, size_t births, Rng* rng, Company* c,
            std::string* text) {
  static const char* const kDepts[] = {"engineering", "sales", "legal",
                                       "finance", "research"};
  size_t facts = 0;
  for (size_t h = 0; h < hires; ++h) {
    const int64_t id = static_cast<int64_t>(c->boss.size());
    // Bosses come from the older half, which keeps the management tree a
    // few levels deep and most chain() answers small.
    const int64_t boss =
        id == 0 ? -1 : static_cast<int64_t>(rng->Uniform((id + 1) / 2));
    const int64_t salary = 40 + static_cast<int64_t>(rng->Uniform(100));
    c->boss.push_back(boss);
    c->salary.push_back(salary);
    c->reports.push_back(0);
    c->below.push_back(0);
    StrAppend(text, "emp(e", id, ", ", kDepts[rng->Uniform(5)], ", ", salary,
              ").\n");
    ++facts;
    if (boss >= 0) {
      StrAppend(text, "manages(e", boss, ", e", id, ").\n");
      ++facts;
      ++c->reports[boss];
      for (int64_t b = boss; b >= 0; b = c->boss[b]) ++c->below[b];
    }
  }
  for (size_t b = 0; b < births; ++b) {
    const int64_t id = static_cast<int64_t>(c->depth.size());
    if (id < 8) {  // eight founding ancestors
      c->depth.push_back(0);
      continue;
    }
    const int64_t parent = static_cast<int64_t>(rng->Uniform(id));
    c->depth.push_back(c->depth[parent] + 1);
    StrAppend(text, "par(p", id, ", p", parent, ").\n");
    ++facts;
  }
  return facts;
}

Op Question(const Company& c, size_t q, Rng* rng) {
  const int64_t e = static_cast<int64_t>(rng->Uniform(c.boss.size()));
  const int64_t p = static_cast<int64_t>(rng->Uniform(c.depth.size()));
  const bool manager = c.reports[e] > 0;
  Op op;
  switch (q) {
    case 0:
      op.cls = "chain.bound";
      op.text = StrCat("chain(e", e, ", Y)");
      op.expect_rows = c.below[e];
      break;
    case 1:
    case 4:
      op.cls = "anc.bound";
      op.text = StrCat("anc(p", p, ", Y)");
      op.expect_rows = c.depth[p];
      break;
    case 2:
      op.cls = "band.bound";
      op.text = StrCat("band(e", e, ", B)");
      op.expect_rows = 1;
      break;
    case 3:
      op.cls = "overpaid.bound";
      op.text = StrCat("overpaid(e", e, ")");
      op.expect_rows = (c.salary[e] > 100 && !manager) ? 1 : 0;
      break;
    default:
      op.cls = "non_manager.bound";
      op.text = StrCat("non_manager(e", e, ")");
      op.expect_rows = manager ? 0 : 1;
      break;
  }
  return op;
}

Workload MakeKbSession(uint64_t seed) {
  Workload w;
  w.operating_mode = true;
  w.setup_text =
      "chain(X, Y) <- manages(X, Y).\n"
      "chain(X, Y) <- manages(X, Z), chain(Z, Y).\n"
      "band(X, B) <- emp(X, _Dept, S), B = S / 10.\n"
      "manager(X) <- manages(X, _Y).\n"
      "non_manager(X) <- emp(X, _Dept, _S), not manager(X).\n"
      "overpaid(X) <- emp(X, _Dept, S), S > 100, not manager(X).\n"
      "anc(X, Y) <- par(X, Y).\n"
      "anc(X, Y) <- par(X, Z), anc(Z, Y).\n";
  Rng rng = StreamRng(seed, 1);
  Company company;
  Grow(kBaseEmployees, kBasePeople, &rng, &company, &w.setup_text);
  for (size_t r = 0; r < kRounds; ++r) {
    Op write;
    write.kind = Op::Kind::kWrite;
    write.cls = "write";
    write.facts = Grow(kHiresPerRound, kBirthsPerRound, &rng, &company,
                       &write.text);
    w.pass.push_back(std::move(write));
    for (size_t q = 0; q < kQuestions; ++q) {
      w.pass.push_back(Question(company, q, &rng));
    }
  }
  return w;
}

}  // namespace

std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  if (name == "closure") return MakeClosure(seed);
  if (name == "joinplan") return MakeJoinPlan(seed);
  if (name == "kb_session") return MakeKbSession(seed);
  return std::nullopt;
}

}  // namespace perfbench
