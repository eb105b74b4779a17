// Temporal reasoning over *constraint facts* — the second CQL capability
// the paper emphasizes (its Section 1 cites temporal deductive databases as
// a driving application): facts whose arguments are constrained intervals
// rather than points.
//
// A traveller leaves the start city at any time in a departure window
// (a genuine constraint fact) and rides fixed-duration connections; the
// question is during which window each city can be reached before a
// deadline. Bottom-up evaluation propagates the windows symbolically;
// Constraint_rewrite pushes the deadline into the recursion so unreachable
// branches are never explored.
//
// Usage:
//   ./build/examples/temporal_reasoner [deadline]   (default 50)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "ast/parser.h"
#include "ast/printer.h"
#include "core/equivalence.h"
#include "eval/loader.h"
#include "transform/pipeline.h"

using cqlopt::Database;
using cqlopt::EvalOptions;
using cqlopt::Fact;

int main(int argc, char** argv) {
  long deadline = argc > 1 ? std::atol(argv[1]) : 50;

  // reach(City, T): the traveller can be in City at time T.
  // The deadline is a program-level selection (the Example 1.1 pattern);
  // QRP propagation is query-independent, so a selection must live in a
  // rule to be pushed — the query below then just picks the city.
  auto parsed = cqlopt::ParseProgram(
      "r0: arrive(C, T) :- reach(C, T), T <= " + std::to_string(deadline) +
      ".\n"
      "r1: reach(C, T) :- depart(C, T).\n"
      "r2: reach(C2, T2) :- reach(C1, T1), link(C1, C2, D), T2 = T1 + D.\n");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  cqlopt::Program& program = parsed->program;
  const cqlopt::SymbolTable& symbols = *program.symbols;

  Database db;
  // The departure window is a constraint fact: any time in [0, 10].
  auto loaded = cqlopt::LoadDatabaseText(R"(
    depart(paris, T) :- T >= 0, T <= 10.
    link(paris, lyon, 8).
    link(lyon, milan, 14).
    link(milan, rome, 20).
    link(paris, geneva, 12).
    link(geneva, milan, 9).
    link(milan, venice, 11).
    link(venice, vienna, 25).
    link(vienna, prague, 16).
  )",
                                         program.symbols, &db);
  if (!loaded.ok()) {
    std::fprintf(stderr, "edb: %s\n", loaded.status().ToString().c_str());
    return 1;
  }

  auto query = cqlopt::ParseQueryText("?- arrive(rome, T).", &program);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    return 1;
  }

  // Push the deadline into the recursion. The paper's procedures take the
  // minimum predicate constraints of the database predicates as input; here
  // that is "every connection takes positive time" (link: $3 > 0) — without
  // it the projection of T2 <= deadline over T2 = T1 + D says nothing about
  // T1, and nothing can be pushed.
  cqlopt::PipelineOptions options;
  {
    cqlopt::Conjunction positive_duration;
    (void)positive_duration.AddLinear(cqlopt::LinearConstraint(
        -cqlopt::LinearExpr::Var(3), cqlopt::CmpOp::kLt));
    options.edb_constraints[symbols.LookupPredicate("link")] =
        cqlopt::ConstraintSet::Of(positive_duration);
  }
  auto steps = cqlopt::ParseSteps("pred,qrp");
  if (!steps.ok()) return 1;
  auto rewritten = cqlopt::ApplyPipeline(program, *query, *steps, options);
  if (!rewritten.ok()) {
    std::fprintf(stderr, "rewrite: %s\n",
                 rewritten.status().ToString().c_str());
    return 1;
  }
  std::printf("--- rewritten program (deadline %ld pushed) ---\n%s\n",
              deadline, cqlopt::RenderProgram(rewritten->program).c_str());

  EvalOptions eval;
  eval.max_iterations = 64;
  auto run = cqlopt::Evaluate(rewritten->program, db, eval);
  if (!run.ok()) {
    std::fprintf(stderr, "eval: %s\n", run.status().ToString().c_str());
    return 1;
  }
  // Print every reachable window (they are constraint facts).
  std::printf("--- reachability windows ---\n");
  for (const auto& [pred, rel] : run->db.relations()) {
    const std::string& name = symbols.PredicateName(pred);
    if (name.rfind("reach", 0) != 0) continue;
    for (size_t i = 0; i < rel.size(); ++i) {
      std::printf("  %s\n", rel.fact(i).ToString(symbols).c_str());
    }
  }
  auto answers = cqlopt::QueryAnswers(*run, rewritten->query);
  if (!answers.ok()) return 1;
  std::printf("--- can rome be reached by t=%ld? %s ---\n", deadline,
              answers->empty() ? "no" : "yes");
  for (const Fact& f : *answers) {
    std::printf("  %s\n", f.ToString(symbols).c_str());
  }
  std::printf("stats: %s\n", run->stats.ToString(symbols).c_str());
  return 0;
}
