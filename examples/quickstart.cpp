// Quickstart: parse a constraint query language program, push its
// constraint selections (procedure Constraint_rewrite), specialize it to a
// query with constraint magic, and evaluate bottom-up.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "ast/parser.h"
#include "ast/printer.h"
#include "core/equivalence.h"
#include "eval/provenance.h"
#include "transform/pipeline.h"

using cqlopt::Database;
using cqlopt::Fact;
using cqlopt::Rational;

int main() {
  // A CQL program: find short-or-cheap connections over single-leg flights
  // (the paper's Example 1.1). Rules are Datalog plus linear arithmetic
  // constraints; `?- ...` is the query.
  auto parsed = cqlopt::ParseProgram(R"(
    r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
    r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
    r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.
    r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                              T = T1 + T2 + 30, C = C1 + C2.
    ?- cheaporshort(msn, sea, Time, Cost).
  )");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const cqlopt::Program& program = parsed->program;
  const cqlopt::SymbolTable& symbols = *program.symbols;
  const cqlopt::Query& query = parsed->queries[0];

  // The optimal rewriting order (Theorem 7.10): predicate constraints, then
  // QRP constraints, then constraint magic.
  auto steps = cqlopt::ParseSteps("pred,qrp,mg");
  if (!steps.ok()) return 1;
  auto rewritten = cqlopt::ApplyPipeline(program, query, *steps, {});
  if (!rewritten.ok()) {
    std::fprintf(stderr, "rewrite: %s\n",
                 rewritten.status().ToString().c_str());
    return 1;
  }
  std::printf("--- rewritten program ---\n%s\n",
              cqlopt::RenderProgram(rewritten->program).c_str());

  // A tiny extensional database.
  Database db;
  auto leg = [&](const char* s, const char* d, int t, int c) {
    (void)db.AddGroundFact(program.symbols.get(), "singleleg",
                           {Database::Value::Symbol(s),
                            Database::Value::Symbol(d),
                            Database::Value::Number(Rational(t)),
                            Database::Value::Number(Rational(c))});
  };
  leg("msn", "ord", 50, 80);
  leg("ord", "sea", 150, 90);   // msn -> sea: 230 min, 170 usd (short!)
  leg("msn", "den", 120, 60);
  leg("den", "sea", 160, 70);   // msn -> sea: 310 min, 130 usd (cheap!)
  leg("ord", "jfk", 140, 500);  // pruned: never short-or-cheap from msn

  // Bottom-up evaluation and answer extraction.
  auto run = cqlopt::Evaluate(rewritten->program, db, {});
  if (!run.ok()) {
    std::fprintf(stderr, "eval: %s\n", run.status().ToString().c_str());
    return 1;
  }
  auto answers = cqlopt::QueryAnswers(*run, rewritten->query);
  if (!answers.ok()) return 1;
  std::printf("--- answers (%zu) ---\n", answers->size());
  for (const Fact& f : *answers) {
    std::printf("  %s\n", f.ToString(symbols).c_str());
  }
  std::printf("--- stats: %s ---\n", run->stats.ToString(symbols).c_str());

  // Every derived fact carries its derivation tree (Definition 2.2):
  // explain how the first answer was produced.
  const cqlopt::Relation* rel =
      run->db.Find(rewritten->query.literal.pred);
  if (rel != nullptr && !rel->empty()) {
    auto tree = cqlopt::RenderDerivationTree(
        run->db, cqlopt::Relation::FactRef{rewritten->query.literal.pred, 0},
        symbols);
    if (tree.ok()) {
      std::printf("--- derivation tree of the first answer ---\n%s",
                  tree->c_str());
    }
  }
  return 0;
}
