// An interactive LDL shell: type clauses to extend the knowledge base,
// queries to run them through the optimizer, and meta-commands to inspect
// what the system is doing.
//
//   ./build/examples/ldl_shell                # interactive
//   ./build/examples/ldl_shell < script.ldl   # batch
//
// Input forms:
//   fact(1, 2).                    add a fact
//   head(X) <- body(X), X > 3.     add a rule
//   head(1, Y)?                    run a query (optimized)
//   .explain goal(1, Y)            show the optimized plan
//   .tree goal(1, Y)               show the annotated processing tree
//   .safety goal(X, Y)             run the safety analysis
//   .program / .db / .stats        inspect state
//   .help / .quit

#include <cstdio>
#include <iostream>
#include <string>

#include "base/strings.h"
#include "ldl/ldl.h"

namespace {

void PrintHelp() {
  std::printf(
      "clauses:  par(bart, homer).        anc(X,Y) <- par(X,Y).\n"
      "queries:  anc(bart, Y)?\n"
      "commands: .explain <goal>   optimized plan\n"
      "          .tree <goal>      annotated processing tree\n"
      "          .safety <goal>    safety report\n"
      "          .program          list rules\n"
      "          .db               list relations\n"
      "          .stats            catalog statistics\n"
      "          .help  .quit\n");
}

void RunQuery(ldl::LdlSystem* sys, const std::string& goal_text) {
  auto answer = sys->Query(goal_text);
  if (!answer.ok()) {
    std::printf("error: %s\n", answer.status().ToString().c_str());
    return;
  }
  for (ldl::TupleView t : answer->answers.tuples()) {
    std::printf("  %s\n", ldl::TupleToString(t).c_str());
  }
  std::printf("%zu answer(s) via %s; %s\n", answer->answers.size(),
              ldl::RecursionMethodToString(answer->plan.top_method),
              answer->exec_stats.counters.ToString().c_str());
  if (!answer->note.empty()) std::printf("note: %s\n", answer->note.c_str());
}

}  // namespace

int main() {
  ldl::LdlSystem sys;
  std::printf("ldlopt shell — .help for commands\n");
  std::string line;
  while (true) {
    std::printf("ldl> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = ldl::StripWhitespace(line);
    if (trimmed.empty()) continue;

    if (trimmed[0] == '.') {
      size_t space = trimmed.find(' ');
      std::string cmd(trimmed.substr(0, space));
      std::string arg(space == std::string_view::npos
                          ? ""
                          : ldl::StripWhitespace(trimmed.substr(space + 1)));
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        PrintHelp();
      } else if (cmd == ".program") {
        std::printf("%s", sys.program().ToString().c_str());
      } else if (cmd == ".db") {
        std::printf("%s", sys.database()->ToString().c_str());
      } else if (cmd == ".stats") {
        std::printf("%s", sys.statistics().ToString().c_str());
      } else if (cmd == ".explain") {
        auto text = sys.Explain(arg);
        std::printf("%s", text.ok() ? text->c_str()
                                    : (text.status().ToString() + "\n").c_str());
      } else if (cmd == ".tree") {
        auto text = sys.ExplainTree(arg);
        std::printf("%s", text.ok() ? text->c_str()
                                    : (text.status().ToString() + "\n").c_str());
      } else if (cmd == ".safety") {
        std::printf("%s\n", sys.CheckSafety(arg).ToString().c_str());
      } else {
        std::printf("unknown command %s (.help)\n", cmd.c_str());
      }
      continue;
    }

    // Query or clause?
    std::string text(trimmed);
    if (text.back() == '?') {
      RunQuery(&sys, text.substr(0, text.size() - 1));
      continue;
    }
    ldl::Status st = sys.AddClause(text);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
    } else {
      sys.RefreshStatistics();
      std::printf("ok\n");
    }
  }
  std::printf("\n");
  return 0;
}
