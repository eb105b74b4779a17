// Flight planner: the workload the paper's introduction motivates, at a
// realistic scale. Builds a synthetic network of single-leg flights,
// plans short-or-cheap connections between two airports, and shows how much
// computation each rewriting level avoids.
//
// Usage:
//   ./build/examples/flight_planner [airports] [legs] [seed]

#include <cstdio>
#include <cstdlib>

#include <string>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "transform/pipeline.h"

using cqlopt::Database;
using cqlopt::EvalOptions;
using cqlopt::Fact;
using cqlopt::FlightNetworkSpec;

int main(int argc, char** argv) {
  FlightNetworkSpec spec;
  spec.airports = argc > 1 ? std::atoi(argv[1]) : 12;
  spec.legs = argc > 2 ? std::atoi(argv[2]) : 48;
  spec.seed = argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3])) : 42;

  auto parsed = cqlopt::ParseProgram(R"(
    r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
    r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
    r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.
    r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                              T = T1 + T2 + 30, C = C1 + C2.
  )");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  cqlopt::Program& program = parsed->program;

  Database db;
  if (!AddFlightNetwork(program.symbols.get(), spec, &db).ok()) return 1;
  std::printf("network: %d airports, %zu legs (seed %llu)\n", spec.airports,
              db.TotalFacts(), (unsigned long long)spec.seed);

  // Plan all short-or-cheap connections out of airport a0.
  auto query = cqlopt::ParseQueryText(
      "?- cheaporshort(a0, Dest, Time, Cost).", &program);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    return 1;
  }

  EvalOptions eval;
  eval.max_iterations = 64;
  struct Row {
    const char* name;
    const char* spec;
  };
  size_t answer_count = 0;
  for (const Row& row : {Row{"naive evaluation", ""},
                         Row{"constraint pushing (pred,qrp)", "pred,qrp"},
                         Row{"+ constraint magic", "pred,qrp,mg"}}) {
    auto steps = cqlopt::ParseSteps(row.spec);
    if (!steps.ok()) return 1;
    auto rewritten = cqlopt::ApplyPipeline(program, *query, *steps, {});
    if (!rewritten.ok()) {
      std::fprintf(stderr, "rewrite %s: %s\n", row.spec,
                   rewritten.status().ToString().c_str());
      return 1;
    }
    auto run = cqlopt::Evaluate(rewritten->program, db, eval);
    if (!run.ok()) {
      std::fprintf(stderr, "eval: %s\n", run.status().ToString().c_str());
      return 1;
    }
    auto answers = cqlopt::QueryAnswers(*run, rewritten->query);
    if (!answers.ok()) return 1;
    answer_count = answers->size();
    std::printf("%-32s facts=%-6zu derivations=%-7ld answers=%zu\n",
                row.name, run->db.TotalFacts() - db.TotalFacts(),
                run->stats.derivations, answers->size());
    if (row.spec[0] != '\0' && std::string(row.spec) == "pred,qrp,mg") {
      for (const Fact& f : *answers) {
        std::printf("    %s\n", f.ToString(*program.symbols).c_str());
      }
    }
  }
  if (answer_count == 0) {
    std::printf("(no short-or-cheap connection out of a0 under this seed — "
                "try another seed)\n");
  }
  return 0;
}
