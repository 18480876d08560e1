// Quickstart: load an LDL program, let the optimizer devise the execution
// strategy, run a query, and inspect the plan.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "ldl/ldl.h"

int main() {
  ldl::LdlSystem sys;

  // A knowledge base: facts plus recursive rules. Note the rule order and
  // the literal order inside rules carry *no* operational meaning — the
  // optimizer picks the execution strategy (the paper's core promise).
  ldl::Status st = sys.LoadProgram(R"(
    % family facts
    par(bart, homer).   par(lisa, homer).
    par(homer, abe).    par(marge, jackie).
    par(maggie, homer). par(abe, orville).

    % ancestor = transitive closure of par
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )");
  if (!st.ok()) {
    std::printf("load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // A bound query form: anc(bart, Y)? — "all ancestors of bart".
  auto answer = sys.Query("anc(bart, Y)");
  if (!answer.ok()) {
    std::printf("query failed: %s\n", answer.status().ToString().c_str());
    return 1;
  }

  std::printf("anc(bart, Y)? ->\n");
  for (ldl::TupleView t : answer->answers.tuples()) {
    std::printf("  Y = %s\n", t[1].ToString().c_str());
  }

  // What did the optimizer decide? The bound argument makes a focused
  // method (magic sets / counting) the winner.
  std::printf("\n--- optimized plan ---\n%s",
              answer->plan.Explain(sys.program()).c_str());
  std::printf("execution: %s\n", answer->exec_stats.ToString().c_str());

  // The same predicate under a free query form gets a different plan.
  auto explain = sys.Explain("anc(X, Y)");
  if (explain.ok()) {
    std::printf("\n--- plan for the free form anc(X, Y)? ---\n%s",
                explain->c_str());
  }
  return 0;
}
