#include "testing/oracle.h"

#include <set>
#include <string>

#include "ast/arg_map.h"
#include "constraint/decision_scope.h"
#include "constraint/implication.h"

namespace cqlopt {
namespace testing {
namespace {

/// Enumerates every assignment of known facts to the rule's body literals
/// (the full cross product — the naive scan join), deriving head facts into
/// `out`. Returns the number of new facts.
Result<int> ApplyRuleNaive(const Rule& rule,
                           const std::map<PredId, std::vector<Fact>>& facts,
                           std::set<std::string>* seen,
                           std::map<PredId, std::vector<Fact>>* out) {
  int added = 0;
  std::vector<size_t> choice(rule.body.size(), 0);
  while (true) {
    // Build the instantiated conjunction for the current choice vector.
    bool viable = true;
    Conjunction conj = rule.constraints;
    for (size_t b = 0; b < rule.body.size() && viable; ++b) {
      const Literal& lit = rule.body[b];
      auto it = facts.find(lit.pred);
      if (it == facts.end() || choice[b] >= it->second.size()) {
        viable = false;
        break;
      }
      const Fact& fact = it->second[choice[b]];
      if (fact.arity != lit.arity()) {
        viable = false;
        break;
      }
      // Positions 1..arity -> the literal's variables (PTOL).
      if (!conj.AddConjunction(PtolConjunction(lit, fact.constraint)).ok()) {
        viable = false;  // type clash (symbol into arithmetic): no match
        break;
      }
      if (conj.known_unsat()) viable = false;
    }
    if (viable && conj.IsSatisfiable()) {
      // Project onto the head positions (LTOP).
      CQLOPT_ASSIGN_OR_RETURN(Conjunction head_c,
                              LtopConjunction(rule.head, conj));
      head_c.Simplify();
      // Ground facts are deduplicated as points: their canonical form is
      // one atom per position, whatever form the projection left them in.
      Fact derived = Canonicalize(Fact(rule.head.pred, rule.head.arity(),
                                       std::move(head_c)))
                         .ToFact();
      if (seen->insert(derived.Key()).second) {
        (*out)[derived.pred].push_back(std::move(derived));
        ++added;
      }
    }
    // Advance the odometer.
    size_t b = 0;
    for (; b < rule.body.size(); ++b) {
      auto it = facts.find(rule.body[b].pred);
      size_t limit = it == facts.end() ? 0 : it->second.size();
      if (++choice[b] < limit) break;
      choice[b] = 0;
    }
    if (b == rule.body.size()) break;  // odometer wrapped: done
  }
  return added;
}

}  // namespace

Result<OracleResult> OracleEvaluate(const Program& program,
                                    const std::vector<Fact>& edb,
                                    const OracleOptions& options) {
  // The oracle recomputes every decision from scratch: no memoized answer
  // of the engine under test can leak into the reference run, and the
  // oracle fills no entry a concurrent engine run could hit.
  DecisionScope no_cache({.cache = false});

  OracleResult result;
  std::set<std::string> seen;
  for (const Fact& edb_fact : edb) {
    Fact fact = Canonicalize(edb_fact).ToFact();
    if (seen.insert(fact.Key()).second) {
      result.facts[fact.pred].push_back(std::move(fact));
    }
  }
  for (int round = 0; round < options.max_rounds; ++round) {
    int added = 0;
    for (const Rule& rule : program.rules) {
      // Constraint facts re-fire every round; structural dedup drops the
      // re-derivations (naive evaluation at its most naive).
      CQLOPT_ASSIGN_OR_RETURN(
          int n, ApplyRuleNaive(rule, result.facts, &seen, &result.facts));
      added += n;
    }
    result.rounds = round + 1;
    if (added == 0) {
      result.reached_fixpoint = true;
      break;
    }
  }
  return result;
}

Result<std::vector<Fact>> OracleQueryAnswers(const OracleResult& result,
                                             const Query& query) {
  DecisionScope no_cache({.cache = false});
  std::vector<Fact> answers;
  auto it = result.facts.find(query.literal.pred);
  if (it == result.facts.end()) return answers;
  CQLOPT_ASSIGN_OR_RETURN(Conjunction filter,
                          LtopConjunction(query.literal, query.constraints));
  for (const Fact& fact : it->second) {
    Fact answer = fact;
    CQLOPT_RETURN_IF_ERROR(answer.constraint.AddConjunction(filter));
    if (!answer.constraint.IsSatisfiable()) continue;
    answer.constraint.Simplify();
    answers.push_back(std::move(answer));
  }
  return answers;
}

bool SameDenotation(const std::map<PredId, std::vector<Fact>>& a,
                    const std::map<PredId, std::vector<Fact>>& b) {
  std::set<PredId> preds;
  for (const auto& [pred, fs] : a) {
    if (!fs.empty()) preds.insert(pred);
  }
  for (const auto& [pred, fs] : b) {
    if (!fs.empty()) preds.insert(pred);
  }
  for (PredId pred : preds) {
    auto ia = a.find(pred);
    auto ib = b.find(pred);
    const std::vector<Fact> empty;
    const std::vector<Fact>& fa = ia == a.end() ? empty : ia->second;
    const std::vector<Fact>& fb = ib == b.end() ? empty : ib->second;
    if (fa.empty() != fb.empty()) return false;
    auto covered = [](const std::vector<Fact>& xs,
                      const std::vector<Fact>& ys) {
      std::vector<Conjunction> ys_c;
      ys_c.reserve(ys.size());
      for (const Fact& y : ys) ys_c.push_back(y.constraint);
      for (const Fact& x : xs) {
        if (!ImpliesDisjunction(x.constraint, ys_c)) return false;
      }
      return true;
    };
    if (!covered(fa, fb) || !covered(fb, fa)) return false;
  }
  return true;
}

}  // namespace testing
}  // namespace cqlopt
