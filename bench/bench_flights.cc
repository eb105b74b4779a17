// Experiment E1 (DESIGN.md): the Example 1.1 / 4.3 flights workload on
// synthetic networks. Regenerates the paper's central comparison — the
// bottom-up fact counts of:
//   original          P
//   pred              Gen_Prop_predicate_constraints(P)
//   pred,qrp          Constraint_rewrite(P)   (Example 4.3's P')
//   pred,qrp,mg       + constraint magic      (Theorem 7.10's optimum)
//   mg                constraint magic alone
// plus two ablations: plain magic (no constraints in magic rules — the
// paper's mrl' option) and evaluation without subsumption.
//
// Shape claims: pred,qrp computes no flight fact with Time > 240 and
// Cost > 150; every arm computes only ground facts; pred,qrp,mg computes
// the fewest facts; all arms return the same answers.

#include "bench_util.h"

namespace cqlopt {
namespace bench {
namespace {

Database MakeNetwork(SymbolTable* symbols, int airports, int legs,
                     uint64_t seed) {
  FlightNetworkSpec spec;
  spec.airports = airports;
  spec.legs = legs;
  spec.seed = seed;
  Database db;
  (void)AddFlightNetwork(symbols, spec, &db);
  return db;
}

struct ArmResult {
  size_t derived_facts;
  long derivations;
  bool all_ground;
  size_t answers;
};

ArmResult RunArm(const ParsedInput& in, const Database& db, const char* spec,
                 bool constraint_magic = true) {
  PipelineOptions options;
  options.magic.constraint_magic = constraint_magic;
  auto steps = ValueOrDie(ParseSteps(spec), "steps");
  auto rewritten =
      ValueOrDie(ApplyPipeline(in.program, in.query, steps, options), spec);
  EvalOptions eval;
  eval.max_iterations = 64;
  auto run = ValueOrDie(Evaluate(rewritten.program, db, eval), spec);
  auto answers = ValueOrDie(QueryAnswers(run, rewritten.query), spec);
  return ArmResult{run.db.TotalFacts() - db.TotalFacts(),
                   run.stats.derivations, run.stats.all_ground,
                   answers.size()};
}

void PrintReproduction() {
  std::printf("=== Example 1.1 / 4.3: flights — facts computed per "
              "rewriting arm ===\n");
  std::printf("%-28s %12s %12s %10s %8s\n", "arm", "facts", "derivations",
              "ground", "answers");
  for (int legs : {16, 24, 48}) {
    ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
    Database db = MakeNetwork(in.program.symbols.get(), 12, legs, 42);
    std::printf("--- network: 12 airports, %d legs ---\n", legs);
    struct Arm {
      const char* name;
      const char* spec;
      bool constraint_magic;
    };
    for (const Arm& arm : {Arm{"original", "", true},
                           Arm{"pred", "pred", true},
                           Arm{"pred,qrp (Example 4.3 P')", "pred,qrp", true},
                           Arm{"mg (constraint magic)", "mg", true},
                           Arm{"mg (plain magic, mrl')", "mg", false},
                           Arm{"pred,qrp,mg (optimal)", "pred,qrp,mg", true}}) {
      ArmResult r = RunArm(in, db, arm.spec, arm.constraint_magic);
      std::printf("%-28s %12zu %12ld %10s %8zu\n", arm.name, r.derived_facts,
                  r.derivations, r.all_ground ? "yes" : "NO", r.answers);
    }
  }

  // The headline pruning claim: pred,qrp computes no flight fact with
  // Time > 240 & Cost > 150, while the original program computes many.
  ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
  Database db = MakeNetwork(in.program.symbols.get(), 12, 48, 42);
  auto steps = ValueOrDie(ParseSteps("pred,qrp"), "steps");
  auto rewritten =
      ValueOrDie(ApplyPipeline(in.program, in.query, steps, {}), "pred,qrp");
  EvalOptions eval;
  eval.max_iterations = 64;
  auto original_run = ValueOrDie(Evaluate(in.program, db, eval), "orig");
  auto rewritten_run = ValueOrDie(Evaluate(rewritten.program, db, eval), "rw");
  auto count_irrelevant = [&](const EvalResult& run, const char* pred) {
    PredId id = in.program.symbols->LookupPredicate(pred);
    const Relation* rel = run.db.Find(id);
    if (rel == nullptr) return 0;
    int n = 0;
    for (size_t i = 0; i < rel->size(); ++i) {
      Conjunction bad = rel->fact(i).constraint;
      LinearExpr t = LinearExpr::Constant(Rational(240)) - LinearExpr::Var(3);
      LinearExpr c = LinearExpr::Constant(Rational(150)) - LinearExpr::Var(4);
      (void)bad.AddLinear(LinearConstraint(t, CmpOp::kLt));
      (void)bad.AddLinear(LinearConstraint(c, CmpOp::kLt));
      if (bad.IsSatisfiable()) ++n;
    }
    return n;
  };
  std::printf("\nflight facts with Time > 240 & Cost > 150:\n");
  std::printf("  original: %d   pred,qrp: %d (paper: zero)\n",
              count_irrelevant(original_run, "flight"),
              count_irrelevant(rewritten_run, "flight'"));

  // Ablation: the Section 2 duplicate check on vs off. On this ground
  // workload both modes store the same facts and make the same
  // derivations — the check matters for constraint facts (Tables 1/2), not
  // for ground ones.
  std::printf("\nsubsumption-mode ablation (pred,qrp at 48 legs):\n");
  for (auto [name, mode] :
       {std::pair<const char*, SubsumptionMode>{"none",
                                                SubsumptionMode::kNone},
        {"single-fact", SubsumptionMode::kSingleFact}}) {
    EvalOptions ablation;
    ablation.max_iterations = 64;
    ablation.subsumption = mode;
    auto run = ValueOrDie(Evaluate(rewritten.program, db, ablation), name);
    std::printf("  %-16s facts=%zu derivations=%ld\n", name,
                run.db.TotalFacts() - db.TotalFacts(), run.stats.derivations);
  }

  // Plan comparison: SCC-stratified vs global semi-naive evaluation. The
  // recursive flight rule joins on the connecting airport symbol, so the
  // hash index prunes most leg candidates.
  std::printf("\n");
  PrintStratifiedComparison(in.program, db, "original, 12 airports/48 legs");
  PrintStratifiedComparison(rewritten.program, db,
                            "pred,qrp, 12 airports/48 legs");
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
