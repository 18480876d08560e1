// A knowledge- and data-intensive application in the paper's sense: a
// corporate knowledge base mixing flat relations, complex terms
// (addresses as structured values), recursion (org chart, bill of
// materials), arithmetic, comparisons, and stratified negation.
//
// Build & run:  ./build/examples/corporate_kb

#include <cstdio>

#include "ldl/ldl.h"

namespace {

void Show(ldl::LdlSystem* sys, const char* query) {
  auto answer = sys->Query(query);
  std::printf("?- %s\n", query);
  if (!answer.ok()) {
    std::printf("   %s\n\n", answer.status().ToString().c_str());
    return;
  }
  for (ldl::TupleView t : answer->answers.tuples()) {
    std::printf("   %s\n", ldl::TupleToString(t).c_str());
  }
  std::printf("   [%zu answers, method %s, %zu tuples examined]\n\n",
              answer->answers.size(),
              ldl::RecursionMethodToString(answer->plan.top_method),
              answer->exec_stats.counters.tuples_examined);
}

}  // namespace

int main() {
  ldl::LdlSystem sys;
  ldl::Status st = sys.LoadProgram(R"(
    % ---- facts: employees with structured addresses ----
    employee(alice,  eng,   120, addr("main st", 12)).
    employee(bob,    eng,    95, addr("oak ave", 3)).
    employee(carol,  sales,  80, addr("main st", 40)).
    employee(dave,   sales,  70, addr("elm rd", 7)).
    employee(erin,   hr,     90, addr("main st", 12)).

    manages(alice, bob).
    manages(alice, carol).
    manages(carol, dave).
    manages(erin, alice).

    % ---- bill of materials ----
    part_of(wheel, bike).     part_of(frame, bike).
    part_of(spoke, wheel).    part_of(rim, wheel).
    part_of(tube, frame).

    % ---- rules ----
    % transitive reporting chain (recursive clique #1)
    reports_to(X, Y) <- manages(Y, X).
    reports_to(X, Y) <- manages(Z, X), reports_to(Z, Y).

    % transitive components (recursive clique #2)
    component(X, Y) <- part_of(X, Y).
    component(X, Y) <- part_of(X, Z), component(Z, Y).

    % arithmetic: salary after a 10 percent raise
    raised(E, S2) <- employee(E, D, S, A), S2 = S + S / 10.

    % comparison + join: engineers earning more than a colleague in sales
    outearns_sales(E) <- employee(E, eng, S1, A1),
                         employee(F, sales, S2, A2), S1 > S2.

    % complex-term matching: who lives on main st?
    on_main_st(E) <- employee(E, D, S, addr("main st", N)).

    % stratified negation: employees who manage nobody
    manager(X) <- manages(X, Y).
    individual_contributor(E) <- employee(E, D, S, A), not manager(E).

    % housemates: same structured address, different people
    housemates(E, F) <- employee(E, D1, S1, A), employee(F, D2, S2, A),
                        E != F.
  )");
  if (!st.ok()) {
    std::printf("load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Show(&sys, "reports_to(dave, Y)");          // bound recursion -> magic
  Show(&sys, "component(spoke, Y)");          // second clique
  Show(&sys, "raised(alice, S)");             // arithmetic
  Show(&sys, "outearns_sales(E)");            // comparison join
  Show(&sys, "on_main_st(E)");                // complex-term pattern
  Show(&sys, "individual_contributor(E)");    // negation
  Show(&sys, "housemates(E, F)");             // self-join on complex value

  // The optimizer's view of one of these:
  auto explain = sys.Explain("reports_to(dave, Y)");
  if (explain.ok()) {
    std::printf("--- plan for reports_to(dave, Y)? ---\n%s", explain->c_str());
  }
  return 0;
}
