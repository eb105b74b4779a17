// Experiment E7 (DESIGN.md): Section 4.6 — overlapping disjuncts in the
// propagated QRP constraint reduce the number of FACTS but can increase the
// number of DERIVATIONS (a fact in the overlap is derived once per
// disjunct-rule; the paper's singleleg(madison, chicago, 50, 100) example).
// The disjoint-disjunct rewriting of [13] restores the derivation count at
// the price of more rules.
//
// Three arms on the flights program:
//   overlapping   flight's minimum QRP constraint as-is (2 disjuncts);
//   disjoint      MakeDisjoint'ed representation (3 disjuncts);
//   single        the 1-disjunct weakening ($3>0 & $4>0): no duplicate
//                 derivations but also no pruning (paper's 2nd remedy).

#include "bench_util.h"
#include "constraint/disjoint.h"
#include "transform/propagate.h"
#include "transform/constraint_rewrite.h"

namespace cqlopt {
namespace bench {
namespace {

/// Builds the three rewritten programs from the same QRP inference.
struct Arms {
  Program overlapping;
  Program disjoint;
  Program single;
  PredId query_pred;
};

Arms BuildArms() {
  ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
  PredId cheap = in.program.symbols->LookupPredicate("cheaporshort");
  ConstraintRewriteOptions options;
  auto rewritten =
      ValueOrDie(ConstraintRewrite(in.program, cheap, options), "rewrite");

  // Propagate three different representations of flight's QRP constraint
  // over the same predicate-propagated base program, so the arms differ
  // ONLY in the representation (the paper's Section 4.6 setup).
  PredId flight = in.program.symbols->LookupPredicate("flight");
  std::map<PredId, ConstraintSet> qrp = rewritten.qrp_constraints;
  auto pred_propagated = ValueOrDie(
      PropagatePredicateConstraints(in.program, {}, {}, nullptr), "pred");

  Arms arms;
  arms.query_pred = cheap;
  arms.overlapping = ValueOrDie(
      PropagateQrpConstraints(pred_propagated, cheap, qrp, {}),
      "propagate overlapping");

  // Disjoint representation (the [13] rewriting).
  {
    std::map<PredId, ConstraintSet> patched = qrp;
    patched[flight] = ValueOrDie(MakeDisjoint(qrp.at(flight)), "disjoint");
    arms.disjoint = ValueOrDie(
        PropagateQrpConstraints(pred_propagated, cheap, patched, {}),
        "propagate disjoint");
  }

  // Single-disjunct weakening: project the disjunction to its common
  // implicate ($3 > 0 & $4 > 0).
  {
    std::map<PredId, ConstraintSet> patched = qrp;
    Conjunction weak;
    LinearExpr t = -LinearExpr::Var(3);
    LinearExpr c = -LinearExpr::Var(4);
    (void)weak.AddLinear(LinearConstraint(t, CmpOp::kLt));
    (void)weak.AddLinear(LinearConstraint(c, CmpOp::kLt));
    patched[flight] = ConstraintSet::Of(weak);
    arms.single = ValueOrDie(
        PropagateQrpConstraints(pred_propagated, cheap, patched, {}),
        "propagate single");
  }
  return arms;
}

void PrintReproduction() {
  std::printf("=== Section 4.6: overlapping vs disjoint vs single-disjunct "
              "QRP representation ===\n");
  Arms arms = BuildArms();
  std::printf("rules: overlapping=%zu disjoint=%zu single=%zu "
              "(paper: disjoint representation may blow up rule count)\n",
              arms.overlapping.rules.size(), arms.disjoint.rules.size(),
              arms.single.rules.size());
  std::printf("%8s | %22s | %22s | %22s\n", "|legs|", "overlapping f/d",
              "disjoint f/d", "single f/d");
  ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
  for (int legs : {24, 48}) {
    FlightNetworkSpec spec;
    spec.airports = 12;
    spec.legs = legs;
    // Cheap-and-short legs overlap both disjuncts frequently.
    spec.time_max = 300;
    spec.cost_max = 200;
    Database db;
    (void)AddFlightNetwork(in.program.symbols.get(), spec, &db);
    EvalOptions eval;
    eval.max_iterations = 64;
    auto report = [&](const Program& program) {
      auto run = ValueOrDie(Evaluate(program, db, eval), "eval");
      return std::make_pair(run.db.TotalFacts() - db.TotalFacts(),
                            run.stats.derivations);
    };
    auto [fo, do_] = report(arms.overlapping);
    auto [fd, dd] = report(arms.disjoint);
    auto [fs, ds] = report(arms.single);
    std::printf("%8d | %12zu / %7ld | %12zu / %7ld | %12zu / %7ld\n", legs,
                fo, do_, fd, dd, fs, ds);
  }
  std::printf("(paper: overlap => duplicate derivations of facts in the "
              "intersection; disjoint or single-disjunct avoid them)\n\n");
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
