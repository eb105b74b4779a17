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

#include <benchmark/benchmark.h>

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

  // Ablation: subsumption modes (the Section 2 duplicate check). On this
  // ground workload all three modes store the same facts — the check
  // matters for constraint facts (Tables 1/2); this shows it costs nothing
  // in the ground case.
  std::printf("\nsubsumption-mode ablation (pred,qrp at 48 legs):\n");
  for (auto [name, mode] :
       {std::pair<const char*, SubsumptionMode>{"none",
                                                SubsumptionMode::kNone},
        {"single-fact", SubsumptionMode::kSingleFact},
        {"set-implication", SubsumptionMode::kSetImplication}}) {
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

void BM_FlightsArm(benchmark::State& state, const char* spec,
                   EvalStrategy strategy = EvalStrategy::kSemiNaive) {
  ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
  Database db = MakeNetwork(in.program.symbols.get(), 12,
                            static_cast<int>(state.range(0)), 42);
  PipelineOptions options;
  auto steps = ValueOrDie(ParseSteps(spec), "steps");
  auto rewritten =
      ValueOrDie(ApplyPipeline(in.program, in.query, steps, options), spec);
  EvalOptions eval;
  eval.max_iterations = 64;
  eval.strategy = strategy;
  for (auto _ : state) {
    auto run = Evaluate(rewritten.program, db, eval);
    benchmark::DoNotOptimize(run.ok());
  }
  state.SetLabel(spec);
}

void BM_FlightsOriginal(benchmark::State& state) {
  BM_FlightsArm(state, "");
}
void BM_FlightsPredQrp(benchmark::State& state) {
  BM_FlightsArm(state, "pred,qrp");
}
void BM_FlightsOptimal(benchmark::State& state) {
  BM_FlightsArm(state, "pred,qrp,mg");
}
void BM_FlightsOriginalStratified(benchmark::State& state) {
  BM_FlightsArm(state, "", EvalStrategy::kStratified);
}
void BM_FlightsPredQrpStratified(benchmark::State& state) {
  BM_FlightsArm(state, "pred,qrp", EvalStrategy::kStratified);
}
BENCHMARK(BM_FlightsOriginal)->Arg(24)->Arg(48);
BENCHMARK(BM_FlightsPredQrp)->Arg(24)->Arg(48);
BENCHMARK(BM_FlightsOptimal)->Arg(24)->Arg(48);
BENCHMARK(BM_FlightsOriginalStratified)->Arg(24)->Arg(48);
BENCHMARK(BM_FlightsPredQrpStratified)->Arg(24)->Arg(48);

// Constrained-join ablation (DESIGN.md §12): time-budgeted leg selection
// over a large leg relation. Each budget fact binds B to a point, so the
// singleleg literal is reached with only the range constraint T <= B — no
// position is uniquely bound, every leg survives the hash index's
// pre-filter, and before the interval index the engine enumerated all
// 20000 legs per budget and rejected ~95% of them one satisfiability check
// at a time. The interval index answers each probe from the sorted bound
// runs instead: binary search admits only the legs whose time can lie
// under the budget.
std::string ConstrainedJoinSection() {
  ParsedInput in = ParseWithQueryOrDie(
      "s1: withinbudget(S, D, T, C) :- budget(B), singleleg(S, D, T, C), "
      "T <= B.\n"
      "?- withinbudget(S, D, T, C).\n");
  FlightNetworkSpec spec;
  spec.airports = 200;
  spec.legs = 20000;
  spec.seed = 42;
  Database db;
  (void)AddFlightNetwork(in.program.symbols.get(), spec, &db);
  for (int budget : {35, 40, 45, 50, 55}) {
    (void)db.AddGroundFact(in.program.symbols.get(), "budget",
                           {Database::Value::Number(Rational(budget))});
  }
  return MeasureIntervalAblation("flights-constrained-join", in.program, db);
}

void BM_ConstraintRewriteFlights(benchmark::State& state) {
  ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
  auto steps = ValueOrDie(ParseSteps("pred,qrp"), "steps");
  for (auto _ : state) {
    auto rewritten = ApplyPipeline(in.program, in.query, steps, {});
    benchmark::DoNotOptimize(rewritten.ok());
  }
}
BENCHMARK(BM_ConstraintRewriteFlights);

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main(int argc, char** argv) {
  bool json = cqlopt::bench::StripJsonFlag(&argc, argv);
  cqlopt::bench::PrintReproduction();
  if (json) {
    cqlopt::bench::ParsedInput in =
        cqlopt::bench::ParseWithQueryOrDie(cqlopt::bench::FlightsProgram());
    cqlopt::Database db =
        cqlopt::bench::MakeNetwork(in.program.symbols.get(), 12, 48, 42);
    cqlopt::bench::WriteBenchJson("flights", in.program, db, 64,
                                  cqlopt::bench::ConstrainedJoinSection());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
