// Program optimizer CLI: reads a CQL program (with an inline ?- query)
// from a file or stdin, applies a transformation sequence, and prints the
// rewritten program plus the inferred constraints — the library as a
// command-line tool.
//
// Usage:
//   ./build/examples/program_optimizer <file|-> [sequence] [edb-file]
// where sequence is a comma list over {pred, qrp, mg, balbin}
// (default "pred,qrp"); when an EDB file of facts is given, the rewritten
// program is also evaluated bottom-up and the query answers printed.
//
// Examples:
//   ./build/examples/program_optimizer programs/example41.cql qrp
//   ./build/examples/program_optimizer programs/flights.cql pred,qrp,mg
//       programs/flights_edb.cql

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ast/parser.h"
#include "ast/printer.h"
#include "core/equivalence.h"
#include "eval/loader.h"
#include "transform/pipeline.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file|-> [sequence]\n"
                 "  sequence: comma list over pred,qrp,mg,balbin "
                 "(default pred,qrp)\n",
                 argv[0]);
    return 2;
  }
  std::string text;
  if (std::string(argv[1]) == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  std::string sequence = argc > 2 ? argv[2] : "pred,qrp";

  auto parsed = cqlopt::ParseProgram(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  if (parsed->queries.empty()) {
    std::fprintf(stderr, "the program must contain a ?- query\n");
    return 1;
  }
  const cqlopt::Program& program = parsed->program;
  const cqlopt::SymbolTable& symbols = *program.symbols;
  const cqlopt::Query& query = parsed->queries[0];

  std::printf("--- input program ---\n%s",
              cqlopt::RenderProgram(program).c_str());
  std::printf("--- query ---\n%s\n",
              cqlopt::RenderQuery(query, symbols).c_str());

  // Report the constraint analysis behind the rewrite (Constraint_rewrite,
  // Section 4.5). A separate parse keeps the analysis' scratch predicates
  // out of the rewrite's name space.
  auto for_analysis = cqlopt::ParseProgram(text);
  if (for_analysis.ok()) {
    const cqlopt::Program& aprogram = for_analysis->program;
    const cqlopt::SymbolTable& asymbols = *aprogram.symbols;
    auto analysis = cqlopt::ConstraintRewrite(
        aprogram, for_analysis->queries[0].literal.pred, {});
    if (analysis.ok()) {
      std::printf("--- minimum predicate constraints ---\n");
      for (const auto& [pred, set] : analysis->predicate_constraints) {
        std::printf("  %s: %s\n", asymbols.PredicateName(pred).c_str(),
                    RenderConstraintSet(set, asymbols, cqlopt::DollarNames())
                        .c_str());
      }
      std::printf("--- QRP constraints (after pred propagation) ---\n");
      for (const auto& [pred, set] : analysis->qrp_constraints) {
        std::printf("  %s: %s\n", asymbols.PredicateName(pred).c_str(),
                    RenderConstraintSet(set, asymbols, cqlopt::DollarNames())
                        .c_str());
      }
    }
  }

  auto steps = cqlopt::ParseSteps(sequence);
  if (!steps.ok()) {
    std::fprintf(stderr, "rewrite: %s\n", steps.status().ToString().c_str());
    return 1;
  }
  auto rewritten = cqlopt::ApplyPipeline(program, query, *steps, {});
  if (!rewritten.ok()) {
    std::fprintf(stderr, "rewrite: %s\n",
                 rewritten.status().ToString().c_str());
    return 1;
  }
  std::printf("--- rewritten program (%s) ---\n%s",
              sequence.c_str(),
              cqlopt::RenderProgram(rewritten->program).c_str());

  // Optional: load an EDB and evaluate.
  if (argc > 3) {
    std::ifstream edb_file(argv[3]);
    if (!edb_file) {
      std::fprintf(stderr, "cannot open %s\n", argv[3]);
      return 2;
    }
    std::ostringstream edb_buffer;
    edb_buffer << edb_file.rdbuf();
    cqlopt::Database db;
    auto loaded =
        cqlopt::LoadDatabaseText(edb_buffer.str(), program.symbols, &db);
    if (!loaded.ok()) {
      std::fprintf(stderr, "edb: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    auto run = cqlopt::Evaluate(rewritten->program, db, {});
    if (!run.ok()) {
      std::fprintf(stderr, "eval: %s\n", run.status().ToString().c_str());
      return 1;
    }
    auto answers = cqlopt::QueryAnswers(*run, rewritten->query);
    if (!answers.ok()) return 1;
    std::printf("--- evaluation (%d EDB facts) ---\n", *loaded);
    std::printf("%s\n", run->stats.ToString(symbols).c_str());
    std::printf("--- answers (%zu) ---\n", answers->size());
    for (const cqlopt::Fact& f : *answers) {
      std::printf("  %s\n", f.ToString(symbols).c_str());
    }
  }
  return 0;
}
