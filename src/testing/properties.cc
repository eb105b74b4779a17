#include "testing/properties.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "ast/printer.h"
#include "constraint/decision_cache.h"
#include "constraint/implication.h"
#include "core/equivalence.h"
#include "eval/retract.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/replica.h"
#include "service/scheduler.h"
#include "testing/oracle.h"
#include "transform/pipeline.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace testing {
namespace {

EvalOptions EngineOptions(const FuzzOptions& fo, EvalStrategy strategy) {
  EvalOptions opts;
  opts.max_iterations = fo.eval_max_iterations;
  opts.subsumption = fo.subsumption;
  opts.strategy = strategy;
  return opts;
}

/// Key + birth of every stored fact, in storage order — the byte-level
/// fingerprint answer-neutral toggles (the interval index) and
/// retraction must leave unchanged.
std::string StorageFingerprint(const EvalResult& r) {
  std::string out;
  for (const auto& [pred, rel] : r.db.relations()) {
    out += std::to_string(pred);
    out += '{';
    for (size_t i = 0; i < rel.size(); ++i) {
      out += rel.fact(i).Key();
      out += '@';
      out += std::to_string(rel.birth(i));
      out += ';';
    }
    out += '}';
  }
  return out;
}

std::string CountsByPred(const std::map<PredId, std::vector<Fact>>& m) {
  std::string out;
  for (const auto& [pred, facts] : m) {
    if (facts.empty()) continue;
    if (!out.empty()) out += " ";
    out += "p" + std::to_string(pred) + "=" + std::to_string(facts.size());
  }
  return out.empty() ? "(empty)" : out;
}

// ---------------------------------------------------------------------------
// oracle_equiv: the optimized engine against the naive reference oracle.

PropertyOutcome OracleEquiv(const FuzzCase& c, const FuzzOptions& fo) {
  auto eval = Evaluate(c.program, BuildDatabase(c),
                       EngineOptions(fo, EvalStrategy::kSemiNaive));
  if (!eval.ok()) {
    return PropertyOutcome::Fail("engine rejected generated program: " +
                                 eval.status().message());
  }
  auto oracle = OracleEvaluate(c.program, c.edb);
  if (!oracle.ok()) {
    return PropertyOutcome::Fail("oracle rejected generated program: " +
                                 oracle.status().message());
  }
  if (!eval->stats.reached_fixpoint || !oracle->reached_fixpoint) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }
  auto engine_map = EvalToMap(*eval);
  if (!SameDenotation(engine_map, oracle->facts)) {
    return PropertyOutcome::Fail(
        "engine and oracle denotations differ: engine " +
        CountsByPred(engine_map) + " vs oracle " +
        CountsByPred(oracle->facts));
  }
  auto engine_answers = QueryAnswers(*eval, c.query);
  auto oracle_answers = OracleQueryAnswers(*oracle, c.query);
  if (!engine_answers.ok() || !oracle_answers.ok()) {
    return PropertyOutcome::Fail("answer extraction failed");
  }
  if (!SameAnswers(*engine_answers, *oracle_answers)) {
    return PropertyOutcome::Fail(
        "query answers differ: engine " +
        std::to_string(engine_answers->size()) + " vs oracle " +
        std::to_string(oracle_answers->size()));
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// strategy_confluence: the oracle and both engine strategies, one fixpoint.

PropertyOutcome StrategyConfluence(const FuzzCase& c, const FuzzOptions& fo) {
  auto oracle = OracleEvaluate(c.program, c.edb);
  if (!oracle.ok()) {
    return PropertyOutcome::Fail("oracle rejected generated program: " +
                                 oracle.status().message());
  }
  if (!oracle->reached_fixpoint) {
    return PropertyOutcome::Skip("oracle hit the round cap");
  }
  Database db = BuildDatabase(c);
  const std::pair<const char*, EvalStrategy> runs[] = {
      {"semi-naive", EvalStrategy::kSemiNaive},
      {"stratified", EvalStrategy::kStratified},
  };
  for (const auto& [name, strategy] : runs) {
    auto r = Evaluate(c.program, db, EngineOptions(fo, strategy));
    if (!r.ok()) {
      return PropertyOutcome::Fail(std::string(name) + " evaluation failed: " +
                                   r.status().message());
    }
    if (!r->stats.reached_fixpoint) {
      return PropertyOutcome::Skip(std::string(name) +
                                   " hit the iteration cap");
    }
    auto engine = EvalToMap(*r);
    if (!SameDenotation(oracle->facts, engine)) {
      return PropertyOutcome::Fail(std::string(name) +
                                   " disagrees with the oracle: " +
                                   CountsByPred(engine) + " vs " +
                                   CountsByPred(oracle->facts));
    }
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// rewrite_equiv: Section 7 pipelines preserve the query's answers.

/// `conj` minus its last linear atom — the planted "widened rule" bug.
Conjunction DropLastLinearAtom(const Conjunction& conj) {
  Conjunction out;
  const auto& linear = conj.linear();
  for (size_t i = 0; i + 1 < linear.size(); ++i) {
    (void)out.AddLinear(linear[i]);
  }
  for (const auto& [a, b] : conj.EqualityPairs()) (void)out.AddEquality(a, b);
  for (const auto& [v, s] : conj.SymbolBindings()) (void)out.BindSymbol(v, s);
  return out;
}

/// Applies the planted bug to a rewritten program (in place). Returns false
/// when the program offers no mutation site (nothing planted).
bool PlantBug(PlantedBug bug, Program* program) {
  if (bug == PlantedBug::kDropRule) {
    if (program->rules.size() <= 1) return false;
    program->rules.pop_back();
    return true;
  }
  if (bug == PlantedBug::kDropConstraintAtom) {
    for (Rule& rule : program->rules) {
      if (!rule.constraints.linear().empty()) {
        rule.constraints = DropLastLinearAtom(rule.constraints);
        return true;
      }
    }
    return false;
  }
  return false;
}

PropertyOutcome RewriteEquiv(const FuzzCase& c, const FuzzOptions& fo) {
  Database db = BuildDatabase(c);
  auto base = Evaluate(c.program, db,
                       EngineOptions(fo, EvalStrategy::kSemiNaive));
  if (!base.ok()) {
    return PropertyOutcome::Fail("baseline evaluation failed: " +
                                 base.status().message());
  }
  if (!base->stats.reached_fixpoint) {
    return PropertyOutcome::Skip("baseline hit the iteration cap");
  }
  auto base_answers = QueryAnswers(*base, c.query);
  if (!base_answers.ok()) {
    return PropertyOutcome::Fail("baseline answer extraction failed");
  }

  const char* specs[] = {"pred", "pred,qrp", "pred,qrp,mg", "balbin"};
  int compared = 0;
  for (const char* spec : specs) {
    auto steps = ParseSteps(spec);
    if (!steps.ok()) {
      return PropertyOutcome::Fail(std::string("ParseSteps(") + spec +
                                   ") failed");
    }
    PipelineOptions popts;
    auto rewritten = ApplyPipeline(c.program, c.query, *steps, popts);
    if (!rewritten.ok()) continue;  // clean rejection: not every pipeline
                                    // accepts every program shape
    Program program = std::move(rewritten->program);
    if (fo.bug != PlantedBug::kNone && std::string(spec) == "pred,qrp") {
      (void)PlantBug(fo.bug, &program);
    }
    auto eval = Evaluate(program, db,
                         EngineOptions(fo, EvalStrategy::kStratified));
    if (!eval.ok()) {
      // A pipeline must emit programs the engine accepts; a rejection here
      // is a transform bug, not a skip.
      return PropertyOutcome::Fail(std::string(spec) +
                                   " emitted a program the engine rejects: " +
                                   eval.status().message());
    }
    if (!eval->stats.reached_fixpoint) continue;  // strategy-dependent state
    auto answers = QueryAnswers(*eval, rewritten->query);
    if (!answers.ok()) {
      return PropertyOutcome::Fail(std::string(spec) +
                                   " answer extraction failed");
    }
    ++compared;
    if (!SameAnswers(*base_answers, *answers)) {
      return PropertyOutcome::Fail(
          std::string(spec) + " changed the query's answers: " +
          std::to_string(answers->size()) + " vs baseline " +
          std::to_string(base_answers->size()));
    }
  }
  if (compared == 0) {
    return PropertyOutcome::Skip("no pipeline produced a comparable run");
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// fm_projection: Π against a pointwise existential check.

/// The pin `$v = value` as a linear atom.
LinearConstraint PinAtom(VarId v, const Rational& value) {
  return LinearConstraint(LinearExpr::Var(v) - LinearExpr::Constant(value),
                          CmpOp::kEq);
}

PropertyOutcome FmProjection(const FuzzCase& c, const FuzzOptions& fo) {
  (void)fo;
  Rng rng(Rng::DeriveSeed(c.seed, 0xF11));
  ConstraintGenOptions cg;
  cg.num_vars = 4;
  cg.atoms = 3;
  cg.dense = true;  // mixed-coefficient atoms: the projection stress class

  Conjunction original;
  bool satisfiable = false;
  for (int attempt = 0; attempt < 8 && !satisfiable; ++attempt) {
    original = RandomConjunction(&rng, cg);
    satisfiable = original.IsSatisfiable();
  }
  if (!satisfiable) {
    return PropertyOutcome::Skip("no satisfiable conjunction in 8 draws");
  }

  auto projected = original.Project({1, 2});
  if (!projected.ok()) {
    return PropertyOutcome::Fail("Project failed: " +
                                 projected.status().message());
  }
  if (!Implies(original, *projected)) {
    return PropertyOutcome::Fail(
        "projection is not implied by the original: " + original.ToString() +
        " vs " + projected->ToString());
  }

  // Sample (x1, x2) points — integers and halves, so strict boundaries are
  // probed on both sides — and check that the projection holds at a point
  // exactly when some (x3, x4) completes it in the original. Both sides are
  // exact satisfiability calls, so any mismatch is a projection bug.
  std::vector<Rational> grid;
  for (int v : {-9, -4, -1, 0, 1, 4, 9}) grid.push_back(Rational(v));
  for (int v : {-9, -1, 1, 9}) grid.push_back(Rational(v) / Rational(2));
  for (const Rational& x1 : grid) {
    for (const Rational& x2 : grid) {
      Conjunction pinned_original = original;
      (void)pinned_original.AddLinear(PinAtom(1, x1));
      (void)pinned_original.AddLinear(PinAtom(2, x2));
      Conjunction pinned_projected = *projected;
      (void)pinned_projected.AddLinear(PinAtom(1, x1));
      (void)pinned_projected.AddLinear(PinAtom(2, x2));
      bool exists = pinned_original.IsSatisfiable();
      bool claimed = pinned_projected.IsSatisfiable();
      if (exists != claimed) {
        return PropertyOutcome::Fail(
            "projection disagrees at (" + x1.ToString() + ", " +
            x2.ToString() + "): exists=" + (exists ? "1" : "0") +
            " projected=" + (claimed ? "1" : "0") + " for " +
            original.ToString());
      }
    }
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// resume_scratch: incremental ingestion against a from-scratch run.

void SplitEdb(const FuzzCase& c, std::vector<Fact>* base,
              std::vector<Fact>* delta) {
  Rng rng(Rng::DeriveSeed(c.seed, 0x5EED));
  for (const Fact& fact : c.edb) {
    (rng.Chance(40) ? base : delta)->push_back(fact);
  }
}

PropertyOutcome ResumeScratch(const FuzzCase& c, const FuzzOptions& fo) {
  std::vector<Fact> base_facts, delta;
  SplitEdb(c, &base_facts, &delta);

  Database base_db;
  for (const Fact& fact : base_facts) base_db.AddFact(fact);
  auto base = Evaluate(c.program, base_db,
                       EngineOptions(fo, EvalStrategy::kStratified));
  if (!base.ok()) {
    return PropertyOutcome::Fail("base evaluation failed: " +
                                 base.status().message());
  }
  if (!base->stats.reached_fixpoint) {
    return PropertyOutcome::Skip("base hit the iteration cap");
  }
  auto resumed = ResumeEvaluate(c.program, std::move(*base), delta,
                                EngineOptions(fo, EvalStrategy::kStratified));
  if (!resumed.ok()) {
    return PropertyOutcome::Fail("ResumeEvaluate failed: " +
                                 resumed.status().message());
  }
  auto scratch = Evaluate(c.program, BuildDatabase(c),
                          EngineOptions(fo, EvalStrategy::kStratified));
  if (!scratch.ok()) {
    return PropertyOutcome::Fail("scratch evaluation failed: " +
                                 scratch.status().message());
  }
  if (!resumed->stats.reached_fixpoint || !scratch->stats.reached_fixpoint) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }
  auto resumed_map = EvalToMap(*resumed);
  auto scratch_map = EvalToMap(*scratch);
  if (!SameDenotation(resumed_map, scratch_map)) {
    return PropertyOutcome::Fail(
        "resumed and scratch denotations differ: resumed " +
        CountsByPred(resumed_map) + " vs scratch " +
        CountsByPred(scratch_map));
  }
  auto ra = QueryAnswers(*resumed, c.query);
  auto sa = QueryAnswers(*scratch, c.query);
  if (!ra.ok() || !sa.ok()) {
    return PropertyOutcome::Fail("answer extraction failed");
  }
  if (!SameAnswers(*ra, *sa)) {
    return PropertyOutcome::Fail("resumed answers differ from scratch: " +
                                 std::to_string(ra->size()) + " vs " +
                                 std::to_string(sa->size()));
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// service_roundtrip: the cqld line protocol against direct evaluation.

/// Parses `answers=N` out of a protocol OK line; -1 if absent.
int ParseAnswerCount(const std::string& line) {
  size_t pos = line.find("answers=");
  if (pos == std::string::npos) return -1;
  return std::atoi(line.c_str() + pos + 8);
}

/// Runs one QUERY line and extracts the sorted answer lines. Returns false
/// (with `error` set) on framing or protocol errors; `capped` is set when
/// the service reports a capped evaluation.
bool ServiceQuery(QueryService& service, const std::string& query_line,
                  std::vector<std::string>* answers, bool* capped,
                  std::string* error) {
  std::vector<std::string> out;
  HandleLine(service, "QUERY - " + query_line, &out);
  if (out.empty() || out.back() != "END") {
    *error = "response not END-terminated";
    return false;
  }
  if (out[0].rfind("OK", 0) != 0) {
    *error = "service error: " + out[0];
    return false;
  }
  *capped = out[0].find("fixpoint=0") != std::string::npos;
  int n = ParseAnswerCount(out[0]);
  if (n < 0 || static_cast<size_t>(n) + 2 != out.size()) {
    *error = "answers=N disagrees with the line count";
    return false;
  }
  answers->assign(out.begin() + 1, out.end() - 1);
  std::sort(answers->begin(), answers->end());
  return true;
}

/// Direct-evaluation answers, rendered and sorted like the service's.
Result<std::vector<std::string>> DirectAnswers(const FuzzCase& c,
                                               const FuzzOptions& fo,
                                               const Database& db,
                                               bool* capped) {
  CQLOPT_ASSIGN_OR_RETURN(
      EvalResult eval,
      Evaluate(c.program, db, EngineOptions(fo, EvalStrategy::kStratified)));
  *capped = !eval.stats.reached_fixpoint;
  CQLOPT_ASSIGN_OR_RETURN(std::vector<Fact> answers,
                          QueryAnswers(eval, c.query));
  std::vector<std::string> rendered;
  rendered.reserve(answers.size());
  for (const Fact& fact : answers) {
    rendered.push_back(fact.ToString(*c.program.symbols));
  }
  std::sort(rendered.begin(), rendered.end());
  return rendered;
}

PropertyOutcome ServiceRoundtrip(const FuzzCase& c, const FuzzOptions& fo) {
  std::vector<Fact> base_facts, delta;
  SplitEdb(c, &base_facts, &delta);

  Database base_db;
  for (const Fact& fact : base_facts) base_db.AddFact(fact);
  ServiceOptions sopts;
  sopts.eval = EngineOptions(fo, EvalStrategy::kStratified);
  auto service = QueryService::FromParts(c.program, base_db, sopts);
  if (!service.ok()) {
    return PropertyOutcome::Fail("FromParts failed: " +
                                 service.status().message());
  }

  std::string query_line = RenderQuery(c.query, *c.program.symbols);
  std::vector<std::string> served;
  bool served_capped = false;
  std::string error;
  if (!ServiceQuery(**service, query_line, &served, &served_capped, &error)) {
    return PropertyOutcome::Fail("protocol: " + error);
  }
  bool direct_capped = false;
  auto direct = DirectAnswers(c, fo, base_db, &direct_capped);
  if (!direct.ok()) {
    return PropertyOutcome::Fail("direct evaluation failed: " +
                                 direct.status().message());
  }
  if (served_capped || direct_capped) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }
  if (served != *direct) {
    return PropertyOutcome::Fail(
        "served answers differ from direct evaluation: " +
        std::to_string(served.size()) + " vs " +
        std::to_string(direct->size()));
  }

  if (delta.empty()) return PropertyOutcome::Ok();

  // Commit the delta through the protocol and re-query: the resumed answer
  // must match a from-scratch evaluation of the full EDB.
  std::string ingest = "INGEST";
  for (const Fact& fact : delta) {
    ingest += " " + fact.ToString(*c.program.symbols) + ".";
  }
  std::vector<std::string> out;
  HandleLine(**service, ingest, &out);
  if (out.empty() || out[0].rfind("OK", 0) != 0) {
    return PropertyOutcome::Fail(
        "INGEST rejected: " + (out.empty() ? std::string("(no response)")
                                           : out[0]));
  }
  if (!ServiceQuery(**service, query_line, &served, &served_capped, &error)) {
    return PropertyOutcome::Fail("protocol after ingest: " + error);
  }
  auto full = DirectAnswers(c, fo, BuildDatabase(c), &direct_capped);
  if (!full.ok()) {
    return PropertyOutcome::Fail("full evaluation failed: " +
                                 full.status().message());
  }
  if (served_capped || direct_capped) {
    return PropertyOutcome::Skip("iteration cap hit after ingest");
  }
  if (served != *full) {
    return PropertyOutcome::Fail(
        "post-ingest answers differ from scratch evaluation: " +
        std::to_string(served.size()) + " vs " +
        std::to_string(full->size()));
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// retract_vs_scratch: RetractEvaluate against a scratch run on the
// surviving EDB.

/// Core stats whose values the retract contract pins to the scratch run
/// (work counters accumulate and are deliberately excluded).
std::string ShapeStats(const EvalStats& s) {
  std::string out = std::to_string(s.iterations) + "/" +
                    (s.reached_fixpoint ? "1" : "0") + "/" +
                    (s.all_ground ? "1" : "0") + "/[";
  for (long it : s.scc_iterations) out += std::to_string(it) + ",";
  return out + "]";
}

PropertyOutcome RetractVsScratch(const FuzzCase& c, const FuzzOptions& fo) {
  std::vector<Fact> batch = GenerateRetractBatch(c, 0x4E7);
  if (batch.empty()) {
    return PropertyOutcome::Skip("EDB too small for a retract batch");
  }

  // Expected outcome, computed independently of RetractEvaluate: the batch
  // entries that name a stored (deduped) EDB row, first occurrence only.
  Database full_db = BuildDatabase(c);
  std::set<std::pair<PredId, std::string>> dead;
  std::set<std::pair<PredId, std::string>> named;
  int expect_removed = 0;
  for (const Fact& fact : batch) {
    named.insert({fact.pred, fact.Key()});
    const Relation* rel = full_db.Find(fact.pred);
    if (rel != nullptr && rel->RowOf(fact.Key()).has_value() &&
        dead.insert({fact.pred, fact.Key()}).second) {
      ++expect_removed;
    }
  }
  const int expect_missing = static_cast<int>(batch.size()) - expect_removed;
  // The protocol arm sees the batch after a text round-trip through the
  // loader, whose set semantics collapse within-batch repeats — only the
  // distinct named facts reach the service.
  const int wire_missing = static_cast<int>(named.size()) - expect_removed;
  Database surviving;
  for (const auto& [pred, rel] : full_db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) {
      if (dead.count({pred, rel.fact(i).Key()}) == 0) {
        surviving.AddFact(rel.fact(i));
      }
    }
  }

  // Eval-level byte identity, both with traces (forces the conservative
  // prefix/full paths) and without (lets row-level counting splice): facts,
  // row order, births, traces, and shape stats must match a scratch run on
  // the surviving EDB exactly. A second retraction of the same batch must
  // be a pure no-op that only grows the miss counter — idempotence.
  for (bool tracing : {true, false}) {
    EvalOptions opts = EngineOptions(fo, EvalStrategy::kStratified);
    opts.record_trace = tracing;
    const char* arm = tracing ? "traced" : "untraced";
    auto base = Evaluate(c.program, full_db, opts);
    if (!base.ok()) {
      return PropertyOutcome::Fail("base evaluation failed: " +
                                   base.status().message());
    }
    if (!base->stats.reached_fixpoint) {
      return PropertyOutcome::Skip("base hit the iteration cap");
    }
    auto retracted = RetractEvaluate(c.program, std::move(*base), batch, opts);
    if (!retracted.ok()) {
      return PropertyOutcome::Fail("RetractEvaluate failed: " +
                                   retracted.status().message());
    }
    auto scratch = Evaluate(c.program, surviving, opts);
    if (!scratch.ok()) {
      return PropertyOutcome::Fail("scratch evaluation failed: " +
                                   scratch.status().message());
    }
    if (!retracted->stats.reached_fixpoint ||
        !scratch->stats.reached_fixpoint) {
      return PropertyOutcome::Skip("iteration cap hit before fixpoint");
    }
    if (retracted->stats.retracted_facts != expect_removed ||
        retracted->stats.retract_missing != expect_missing) {
      return PropertyOutcome::Fail(
          std::string(arm) + " arm miscounted the batch: removed " +
          std::to_string(retracted->stats.retracted_facts) + "/" +
          std::to_string(expect_removed) + ", missing " +
          std::to_string(retracted->stats.retract_missing) + "/" +
          std::to_string(expect_missing));
    }
    if (StorageFingerprint(*retracted) != StorageFingerprint(*scratch)) {
      return PropertyOutcome::Fail(
          std::string(arm) + " retract storage differs from scratch (path " +
          retracted->stats.retract_path + "): " +
          CountsByPred(EvalToMap(*retracted)) + " vs " +
          CountsByPred(EvalToMap(*scratch)));
    }
    if (tracing && RenderTrace(retracted->trace) != RenderTrace(scratch->trace)) {
      return PropertyOutcome::Fail(
          "retract derivation trace differs from scratch (path " +
          retracted->stats.retract_path + ")");
    }
    if (ShapeStats(retracted->stats) != ShapeStats(scratch->stats)) {
      return PropertyOutcome::Fail(
          std::string(arm) + " retract shape stats differ from scratch: " +
          ShapeStats(retracted->stats) + " vs " + ShapeStats(scratch->stats) +
          " (path " + retracted->stats.retract_path + ")");
    }
    auto again = RetractEvaluate(c.program, std::move(*retracted), batch, opts);
    if (!again.ok()) {
      return PropertyOutcome::Fail("second RetractEvaluate failed: " +
                                   again.status().message());
    }
    if (again->stats.retracted_facts != expect_removed ||
        again->stats.retract_missing !=
            expect_missing + static_cast<long>(batch.size())) {
      return PropertyOutcome::Fail(
          std::string(arm) +
          " re-retraction was not counted as all-missing");
    }
    if (StorageFingerprint(*again) != StorageFingerprint(*scratch)) {
      return PropertyOutcome::Fail(
          std::string(arm) + " re-retraction changed stored facts");
    }
  }

  // Service level: warm the prepared entry, RETRACT through the protocol
  // (so the epoch chain carries a retract delta the resume path must
  // honour), and require the re-served answers to match direct evaluation
  // of the surviving EDB.
  ServiceOptions sopts;
  sopts.eval = EngineOptions(fo, EvalStrategy::kStratified);
  auto service = QueryService::FromParts(c.program, full_db, sopts);
  if (!service.ok()) {
    return PropertyOutcome::Fail("FromParts failed: " +
                                 service.status().message());
  }
  std::string query_line = RenderQuery(c.query, *c.program.symbols);
  std::vector<std::string> served;
  bool capped = false;
  std::string error;
  if (!ServiceQuery(**service, query_line, &served, &capped, &error)) {
    return PropertyOutcome::Fail("pre-retract protocol: " + error);
  }
  std::string retract_line = "RETRACT";
  for (const Fact& fact : batch) {
    retract_line += " " + fact.ToString(*c.program.symbols) + ".";
  }
  std::vector<std::string> out;
  HandleLine(**service, retract_line, &out);
  if (out.empty() || out[0].rfind("OK", 0) != 0) {
    return PropertyOutcome::Fail(
        "RETRACT rejected: " +
        (out.empty() ? std::string("(no response)") : out[0]));
  }
  const std::string expect_ok = "OK removed=" + std::to_string(expect_removed) +
                                " missing=" + std::to_string(wire_missing);
  if (out[0].rfind(expect_ok, 0) != 0) {
    return PropertyOutcome::Fail("RETRACT miscounted over the protocol: '" +
                                 out[0] + "' vs '" + expect_ok + " ...'");
  }
  if (!ServiceQuery(**service, query_line, &served, &capped, &error)) {
    return PropertyOutcome::Fail("post-retract protocol: " + error);
  }
  bool direct_capped = false;
  auto direct = DirectAnswers(c, fo, surviving, &direct_capped);
  if (!direct.ok()) {
    return PropertyOutcome::Fail("direct surviving evaluation failed: " +
                                 direct.status().message());
  }
  if (capped || direct_capped) {
    return PropertyOutcome::Skip("iteration cap hit after retract");
  }
  if (served != *direct) {
    return PropertyOutcome::Fail(
        "post-retract served answers differ from the surviving EDB: " +
        std::to_string(served.size()) + " vs " +
        std::to_string(direct->size()));
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// scheduler_equiv: a random concurrent client schedule through the worker
// pool must leave the service observably equal to a serial replay.

PropertyOutcome SchedulerEquiv(const FuzzCase& c, const FuzzOptions& fo) {
  // Dedup the EDB by key and round-robin it into disjoint batches: each
  // batch is exactly one INGEST epoch, whatever order the pool commits
  // them in, so the epoch count is schedule-independent.
  std::vector<Fact> unique;
  {
    std::set<std::string> seen;
    for (const Fact& fact : c.edb) {
      if (seen.insert(fact.Key()).second) unique.push_back(fact);
    }
  }
  constexpr size_t kBatches = 3;
  std::vector<std::string> ingest_lines;
  for (size_t b = 0; b < kBatches; ++b) {
    std::string line = "INGEST";
    for (size_t i = b; i < unique.size(); i += kBatches) {
      line += " " + unique[i].ToString(*c.program.symbols) + ".";
    }
    if (line != "INGEST") ingest_lines.push_back(std::move(line));
  }

  ServiceOptions sopts;
  sopts.eval = EngineOptions(fo, EvalStrategy::kStratified);
  auto concurrent = QueryService::FromParts(c.program, Database(), sopts);
  if (!concurrent.ok()) {
    return PropertyOutcome::Fail("FromParts failed: " +
                                 concurrent.status().message());
  }
  std::string query_line = RenderQuery(c.query, *c.program.symbols);

  std::atomic<int> shed{0};
  std::mutex bad_mutex;
  std::vector<std::string> bad;
  {
    SchedulerOptions sched;
    const int worker_choices[] = {1, 2, 8};
    sched.workers = worker_choices[c.seed % 3];
    sched.queue_depth = 32;  // > total tasks: admission can never shed
    Scheduler scheduler(sched);
    auto submit = [&](const std::string& line, PriorityClass priority) {
      Scheduler::Task task;
      task.priority = priority;
      task.run = [&, line] {
        std::vector<std::string> out;
        HandleLine(**concurrent, line, &out);
        if (out.empty() || out.back() != "END" ||
            out[0].rfind("OK", 0) != 0) {
          std::lock_guard<std::mutex> hold(bad_mutex);
          bad.push_back(line + " -> " +
                        (out.empty() ? std::string("(no response)")
                                     : out[0]));
        }
      };
      task.shed = [&] { shed.fetch_add(1); };
      scheduler.TrySubmit(std::move(task));
    };
    // Two clients race: one commits the ingest epochs, one queries every
    // intermediate state. The scheduler (not the submission order) picks
    // the interleaving; mid-run answers are only checked for framing.
    std::thread ingester([&] {
      for (const std::string& line : ingest_lines) {
        submit(line, PriorityClass::kNormal);
      }
    });
    std::thread querier([&] {
      for (size_t i = 0; i <= ingest_lines.size(); ++i) {
        submit("QUERY - " + query_line, PriorityClass::kInteractive);
      }
    });
    ingester.join();
    querier.join();
    scheduler.Stop();  // drains every admitted task
  }
  if (shed.load() != 0) {
    return PropertyOutcome::Fail(
        "scheduler shed " + std::to_string(shed.load()) +
        " tasks below its admission bound");
  }
  if (!bad.empty()) {
    return PropertyOutcome::Fail("concurrent protocol error: " + bad[0]);
  }

  std::vector<std::string> concurrent_answers;
  bool concurrent_capped = false;
  std::string error;
  if (!ServiceQuery(**concurrent, query_line, &concurrent_answers,
                    &concurrent_capped, &error)) {
    return PropertyOutcome::Fail("protocol after concurrent run: " + error);
  }

  // Serial replay, built only after the pool drained: both services share
  // the program's SymbolTable, and interning is not synchronized across
  // service instances.
  auto serial = QueryService::FromParts(c.program, Database(), sopts);
  if (!serial.ok()) {
    return PropertyOutcome::Fail("serial FromParts failed: " +
                                 serial.status().message());
  }
  for (const std::string& line : ingest_lines) {
    std::vector<std::string> out;
    HandleLine(**serial, line, &out);
    if (out.empty() || out[0].rfind("OK", 0) != 0) {
      return PropertyOutcome::Fail(
          "serial INGEST rejected: " +
          (out.empty() ? std::string("(no response)") : out[0]));
    }
  }
  std::vector<std::string> serial_answers;
  bool serial_capped = false;
  if (!ServiceQuery(**serial, query_line, &serial_answers, &serial_capped,
                    &error)) {
    return PropertyOutcome::Fail("serial protocol: " + error);
  }
  if (concurrent_capped || serial_capped) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }
  if (concurrent_answers != serial_answers) {
    return PropertyOutcome::Fail(
        "concurrent answers differ from serial replay: " +
        std::to_string(concurrent_answers.size()) + " vs " +
        std::to_string(serial_answers.size()));
  }
  const auto expected_epoch = static_cast<int64_t>(ingest_lines.size());
  if ((*concurrent)->epoch() != expected_epoch ||
      (*serial)->epoch() != expected_epoch) {
    return PropertyOutcome::Fail(
        "epoch mismatch: concurrent " +
        std::to_string((*concurrent)->epoch()) + ", serial " +
        std::to_string((*serial)->epoch()) + ", expected " +
        std::to_string(expected_epoch));
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// crash_recovery: WAL durability under injected faults at every site.

/// A mkdtemp'd WAL directory, removed (known files + dir) on scope exit so
/// a million-iteration fuzz run does not litter /tmp.
struct TempWalDir {
  std::string path;
  TempWalDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/cqlopt-crash-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path.assign(buf.data());
  }
  ~TempWalDir() {
    if (path.empty()) return;
    for (const char* name : {"/wal.log", "/snapshot.cql", "/snapshot.tmp"}) {
      ::unlink((path + name).c_str());
    }
    ::rmdir(path.c_str());
  }
};

Result<std::unique_ptr<QueryService>> MakeWalService(const FuzzCase& c,
                                                     const FuzzOptions& fo,
                                                     const Database& base_db,
                                                     const std::string& dir) {
  ServiceOptions sopts;
  sopts.eval = EngineOptions(fo, EvalStrategy::kStratified);
  sopts.wal_dir = dir;
  return QueryService::FromParts(c.program, base_db, sopts);
}

/// One step of the WAL op script: an INGEST (with a TTL when `ms` > 0), a
/// RETRACT, or a TICK to absolute clock `ms`. Batches are loader-syntax
/// text, so the script drives the same text API as a cqld client.
struct WalOp {
  enum class Kind { kIngest, kRetract, kTick };
  Kind kind;
  std::string facts;
  int64_t ms = 0;
};

const char* WalOpName(const WalOp& op) {
  switch (op.kind) {
    case WalOp::Kind::kIngest: return op.ms > 0 ? "INGEST TTL" : "INGEST";
    case WalOp::Kind::kRetract: return "RETRACT";
    case WalOp::Kind::kTick: return "TICK";
  }
  return "?";
}

/// Applies one script op. A RETRACT that removes nothing is an error: every
/// scripted retraction must burn an epoch and a WAL record, so an armed
/// fail-point always has a record to fire on.
Status ApplyWalOp(QueryService& service, const WalOp& op) {
  switch (op.kind) {
    case WalOp::Kind::kIngest:
      return service.Ingest(op.facts, op.ms).status();
    case WalOp::Kind::kRetract: {
      auto removed = service.Retract(op.facts);
      if (!removed.ok()) return removed.status();
      if (removed->removed == 0) {
        return Status::Internal(
            "RETRACT op removed nothing — no record to crash");
      }
      return Status::OK();
    }
    case WalOp::Kind::kTick:
      return service.AdvanceClock(op.ms - service.now_ms()).status();
  }
  return Status::OK();
}

/// The op script crash_recovery and replica_vs_primary run: `c`'s EDB
/// partitioned (drawing from `rng`) into an initial database plus up to three
/// batches of genuinely new facts, then growth, TTL'd growth, shrinkage,
/// and an expiry sweep — every WAL record kind a serving run can write.
/// (A batch that dedups to a no-op burns no epoch and writes no record, so
/// it could never crash — those are filtered out up front.) Retracting
/// batch 0 right after it was ingested guarantees the retraction removes at
/// least one fact, and ticking past the 100ms TTL deadline drives the
/// expire path whenever a TTL batch exists (a trailing tick on
/// single-batch cases still logs a pure kTick record). False when the EDB
/// is too small to form a batch.
bool BuildWalScript(const FuzzCase& c, Rng* rng, Database* base_db,
                    std::vector<WalOp>* ops) {
  std::vector<Fact> initial;
  std::vector<std::vector<Fact>> raw(3);
  for (const Fact& fact : c.edb) {
    if (rng->Chance(30)) {
      initial.push_back(fact);
    } else {
      raw[static_cast<size_t>(rng->Uniform(0, 2))].push_back(fact);
    }
  }
  Database seen;
  for (const Fact& fact : initial) {
    if (seen.AddFact(fact) == InsertOutcome::kInserted) base_db->AddFact(fact);
  }
  std::vector<std::vector<Fact>> batches;
  for (std::vector<Fact>& candidates : raw) {
    std::vector<Fact> fresh;
    for (const Fact& fact : candidates) {
      if (seen.AddFact(fact) == InsertOutcome::kInserted) {
        fresh.push_back(fact);
      }
    }
    if (!fresh.empty()) batches.push_back(std::move(fresh));
  }
  if (batches.empty()) return false;
  auto text = [&c](const std::vector<Fact>& facts) {
    std::string rendered;
    for (const Fact& fact : facts) {
      rendered += RenderFactStatement(fact, *c.program.symbols) + "\n";
    }
    return rendered;
  };
  ops->push_back({WalOp::Kind::kIngest, text(batches[0]), 0});
  if (batches.size() > 1) {
    ops->push_back({WalOp::Kind::kIngest, text(batches[1]), 100});
  }
  ops->push_back({WalOp::Kind::kRetract, text(batches[0]), 0});
  if (batches.size() > 1 && batches[1].size() > 1) {
    // Retract one TTL'd fact before its deadline: its deadline entry goes
    // stale, and the tick's sweep must skip it — in the original run and
    // byte-identically in every recovered or replicated one.
    ops->push_back({WalOp::Kind::kRetract, text({batches[1].front()}), 0});
  }
  ops->push_back({WalOp::Kind::kTick, std::string(), 150});
  if (batches.size() > 2) {
    ops->push_back({WalOp::Kind::kIngest, text(batches[2]), 0});
  }
  return true;
}

/// The crash-recovery metamorphic property (`cqlfuzz --faults`): for every
/// WAL fail-point site and every ingest batch, crash the commit of that
/// batch at that site, recover a fresh service from the surviving files,
/// and require the recovered state to equal the never-crashed run —
/// batches whose record reached the log durably are recovered, a torn
/// record is truncated (and reported), and nothing else changes. The
/// scenario then finishes the remaining ingests and must converge to the
/// reference's final state. A seeded mid-run Compact() covers
/// snapshot-plus-tail-records recovery; eval/rule-alloc coverage at the end
/// checks an injected evaluation fault is a typed, non-poisoning error.
PropertyOutcome CrashRecovery(const FuzzCase& c, const FuzzOptions& fo) {
  Rng rng(Rng::DeriveSeed(c.seed, 0xFA11));
  Database base_db;
  std::vector<WalOp> ops;
  if (!BuildWalScript(c, &rng, &base_db, &ops)) {
    return PropertyOutcome::Skip("EDB too small to form an ingest batch");
  }

  failpoint::DisarmAll();

  // Reference: the never-crashed run, WAL on (so it writes the exact
  // records recovery will replay). state_after[j] is the rendered head
  // state once j ops are committed.
  TempWalDir ref_dir;
  if (ref_dir.path.empty()) {
    return PropertyOutcome::Fail("mkdtemp failed for the reference WAL");
  }
  auto ref = MakeWalService(c, fo, base_db, ref_dir.path);
  if (!ref.ok()) {
    return PropertyOutcome::Fail("reference FromParts failed: " +
                                 ref.status().message());
  }
  std::vector<std::string> state_after;
  state_after.push_back((*ref)->RenderStateText());
  for (const WalOp& op : ops) {
    Status committed = ApplyWalOp(**ref, op);
    if (!committed.ok()) {
      return PropertyOutcome::Fail(std::string("reference ") + WalOpName(op) +
                                   " failed: " + committed.message());
    }
    state_after.push_back((*ref)->RenderStateText());
  }
  std::string query_line = RenderQuery(c.query, *c.program.symbols);
  std::vector<std::string> ref_answers;
  bool capped = false;
  std::string error;
  if (!ServiceQuery(**ref, query_line, &ref_answers, &capped, &error)) {
    return PropertyOutcome::Fail("reference query: " + error);
  }
  if (capped) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }

  // The crash matrix: every WAL site x every op index — so every record
  // kind (insert, insert-ttl, retract, expire/tick) is crashed at every
  // site. Whether the crashed op survives recovery is the site's
  // documented semantics: a short write leaves a torn record (truncated on
  // recovery), the other three fire only after the record is durably in
  // the log.
  struct WalSite {
    const char* site;
    bool record_survives;
  };
  const WalSite kWalSites[] = {
      {failpoint::kWalShortWrite, false},
      {failpoint::kWalFsync, true},
      {failpoint::kWalCrashBeforeCommit, true},
      {failpoint::kWalCrashAfterCommit, true},
  };
  for (size_t s = 0; s < 4; ++s) {
    const WalSite& ws = kWalSites[s];
    for (size_t k = 0; k < ops.size(); ++k) {
      Rng srng(Rng::DeriveSeed(c.seed, 0xC0DE00 + s * 16 + k));
      TempWalDir dir;
      if (dir.path.empty()) {
        return PropertyOutcome::Fail("mkdtemp failed for a crash scenario");
      }
      auto victim = MakeWalService(c, fo, base_db, dir.path);
      if (!victim.ok()) {
        return PropertyOutcome::Fail("victim FromParts failed: " +
                                     victim.status().message());
      }
      // Seeded mid-run compaction: recovery must then stack the replayed
      // tail records on top of the snapshot. compact_before == k snapshots
      // immediately before the crashed append — the juiciest layout.
      const size_t compact_before =
          srng.Chance(50) ? static_cast<size_t>(
                                srng.Uniform(0, static_cast<int>(k)))
                          : k + 1;
      for (size_t j = 0; j < k; ++j) {
        if (j == compact_before) {
          Status compacted = (*victim)->Compact();
          if (!compacted.ok()) {
            return PropertyOutcome::Fail("pre-crash Compact failed: " +
                                         compacted.message());
          }
        }
        Status committed = ApplyWalOp(**victim, ops[j]);
        if (!committed.ok()) {
          return PropertyOutcome::Fail(std::string("pre-crash ") +
                                       WalOpName(ops[j]) +
                                       " failed: " + committed.message());
        }
      }
      if (compact_before == k) {
        Status compacted = (*victim)->Compact();
        if (!compacted.ok()) {
          return PropertyOutcome::Fail("pre-crash Compact failed: " +
                                       compacted.message());
        }
      }

      failpoint::Arm(ws.site);
      Status crashed = ApplyWalOp(**victim, ops[k]);
      failpoint::DisarmAll();
      if (crashed.ok()) {
        return PropertyOutcome::Fail(std::string(ws.site) +
                                     " was armed but op " +
                                     std::to_string(k) + " (" +
                                     WalOpName(ops[k]) + ") succeeded");
      }
      // "Crash": abandon the wreck — only the files survive.
      victim->reset();

      auto revived = MakeWalService(c, fo, base_db, dir.path);
      if (!revived.ok()) {
        return PropertyOutcome::Fail("revived FromParts failed: " +
                                     revived.status().message());
      }
      RecoverOutcome ro;
      Status recovered = (*revived)->Recover(&ro);
      if (!recovered.ok()) {
        return PropertyOutcome::Fail(
            std::string(ws.site) + " crash at op " + std::to_string(k) +
            " (" + WalOpName(ops[k]) +
            "): recovery failed: " + recovered.message());
      }
      const size_t committed_ops = k + (ws.record_survives ? 1 : 0);
      if (!ws.record_survives && ro.truncated_bytes <= 0) {
        return PropertyOutcome::Fail(
            std::string(ws.site) +
            ": expected a torn tail record, but recovery truncated nothing");
      }
      if (ws.record_survives && ro.truncated_bytes != 0) {
        return PropertyOutcome::Fail(
            std::string(ws.site) + ": recovery truncated " +
            std::to_string(ro.truncated_bytes) +
            " byte(s) of a record that should be intact");
      }
      std::string got = (*revived)->RenderStateText();
      if (got != state_after[committed_ops]) {
        return PropertyOutcome::Fail(
            std::string(ws.site) + " crash at op " + std::to_string(k) +
            " (" + WalOpName(ops[k]) +
            "): recovered state differs from the never-crashed state "
            "after " +
            std::to_string(committed_ops) + " ops (recovered " +
            got.substr(0, got.find('\n')) + ", expected " +
            state_after[committed_ops].substr(
                0, state_after[committed_ops].find('\n')) +
            ")");
      }

      // Finish the run: the recovered service must accept the remaining
      // ops and converge to the reference's final state.
      for (size_t j = committed_ops; j < ops.size(); ++j) {
        Status more = ApplyWalOp(**revived, ops[j]);
        if (!more.ok()) {
          return PropertyOutcome::Fail(
              std::string(ws.site) + ": post-recovery " + WalOpName(ops[j]) +
              " failed: " + more.message());
        }
      }
      if ((*revived)->RenderStateText() != state_after.back()) {
        return PropertyOutcome::Fail(
            std::string(ws.site) + " crash at op " + std::to_string(k) +
            " (" + WalOpName(ops[k]) +
            "): final state after post-recovery ops diverged from the "
            "never-crashed run");
      }
      // Once per site (on the last op), serve the query from the
      // recovered service — recovery must leave it fully operational.
      if (k + 1 == ops.size()) {
        std::vector<std::string> revived_answers;
        if (!ServiceQuery(**revived, query_line, &revived_answers, &capped,
                          &error)) {
          return PropertyOutcome::Fail(std::string(ws.site) +
                                       ": post-recovery query: " + error);
        }
        if (!capped && revived_answers != ref_answers) {
          return PropertyOutcome::Fail(
              std::string(ws.site) +
              ": post-recovery answers differ from the never-crashed run: " +
              std::to_string(revived_answers.size()) + " vs " +
              std::to_string(ref_answers.size()));
        }
      }
    }
  }

  // eval/rule-alloc: an injected allocation failure inside rule application
  // must surface as kResourceExhausted and leave the service healthy (the
  // next evaluation of the same query succeeds and matches a direct
  // evaluation of the probe's own database — the reference run has since
  // retracted and expired facts, so its answers are not the yardstick).
  bool probe_capped = false;
  auto probe_expected = DirectAnswers(c, fo, BuildDatabase(c), &probe_capped);
  if (!probe_expected.ok()) {
    return PropertyOutcome::Fail("probe direct evaluation failed: " +
                                 probe_expected.status().message());
  }
  ServiceOptions plain;
  plain.eval = EngineOptions(fo, EvalStrategy::kStratified);
  auto probe = QueryService::FromParts(c.program, BuildDatabase(c), plain);
  if (!probe.ok()) {
    return PropertyOutcome::Fail("probe FromParts failed: " +
                                 probe.status().message());
  }
  failpoint::Arm(failpoint::kEvalRuleAlloc, /*skip=*/0, /*times=*/0);
  auto denied = (*probe)->Execute(query_line, "");
  long alloc_hits = failpoint::Hits(failpoint::kEvalRuleAlloc);
  failpoint::DisarmAll();
  if (alloc_hits > 0) {
    if (denied.ok()) {
      return PropertyOutcome::Fail(
          "eval/rule-alloc was armed and hit, but Execute succeeded");
    }
    if (denied.status().code() != StatusCode::kResourceExhausted) {
      return PropertyOutcome::Fail(
          "eval/rule-alloc surfaced as " + denied.status().ToString() +
          ", expected RESOURCE_EXHAUSTED");
    }
    std::vector<std::string> healed;
    if (!ServiceQuery(**probe, query_line, &healed, &capped, &error)) {
      return PropertyOutcome::Fail("query after injected alloc failure: " +
                                   error);
    }
    if (!capped && !probe_capped && healed != *probe_expected) {
      return PropertyOutcome::Fail(
          "answers after an injected alloc failure differ from a direct "
          "evaluation: " +
          std::to_string(healed.size()) + " vs " +
          std::to_string(probe_expected->size()));
    }
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// replica_vs_primary: WAL-shipped replication under injected link faults.

/// One level of indirection between the Replicator and "the primary", so the
/// property can crash and re-open the primary service without rebuilding the
/// follower's Replicator — the stable-coordinates contract a real follower
/// relies on across a primary restart (recovery rebuilds the feed
/// byte-identically, so (base, index) stays valid).
class SlotReplicationSource : public ReplicationSource {
 public:
  explicit SlotReplicationSource(std::unique_ptr<QueryService>* slot)
      : slot_(slot) {}
  Status Fetch(int64_t base_epoch, uint64_t index, size_t max_records,
               ReplicationBatch* out) override {
    if (slot_->get() == nullptr) {
      return Status::Unavailable("primary is down");
    }
    LocalReplicationSource local(slot_->get());
    return local.Fetch(base_epoch, index, max_records, out);
  }

 private:
  std::unique_ptr<QueryService>* slot_;
};

/// The replication metamorphic property (DESIGN.md §15): run the crash-
/// recovery op script (insert, insert-ttl, retract, expire — every WAL
/// record kind) on a WAL-backed primary while a follower pulls the feed
/// through a seeded fault schedule — dropped fetches, torn records, crashes
/// before / mid / after apply, full follower restarts (recover own WAL,
/// re-bootstrap), primary crash-and-recovery, and mid-run compaction
/// (snapshot renegotiation). After every op the caught-up follower must be
/// BYTE-IDENTICAL to the primary (RenderStateText — epoch, clock, facts,
/// TTL deadlines) and at the end must serve the same answers, with ASOF
/// tokens at the head honoured and past it refused UNAVAILABLE. Then the
/// primary is killed with the follower one acknowledged write behind:
/// PROMOTE must drain the dead WAL's unconsumed suffix and land on the dead
/// primary's exact final state. Finally a deliberately tampered follower
/// must be quarantined by the next divergence check — reads refused with
/// typed DATA_LOSS, promotion refused — never serving wrong answers.
PropertyOutcome ReplicaVsPrimary(const FuzzCase& c, const FuzzOptions& fo) {
  // Same op script as crash_recovery, fresh salt so the two properties
  // stress different partitions of the same case.
  Rng rng(Rng::DeriveSeed(c.seed, 0x5EED5));
  Database base_db;
  std::vector<WalOp> ops;
  if (!BuildWalScript(c, &rng, &base_db, &ops)) {
    return PropertyOutcome::Skip("EDB too small to form an ingest batch");
  }

  failpoint::DisarmAll();

  TempWalDir p_dir;
  TempWalDir f_dir;
  if (p_dir.path.empty() || f_dir.path.empty()) {
    return PropertyOutcome::Fail("mkdtemp failed for a replication WAL");
  }
  // Destruction order matters: the Replicator's destructor unhooks itself
  // from the follower, so it must be declared after (die before) it.
  std::unique_ptr<QueryService> primary;
  std::unique_ptr<QueryService> follower;
  std::unique_ptr<Replicator> replicator;
  {
    auto made = MakeWalService(c, fo, base_db, p_dir.path);
    if (!made.ok()) {
      return PropertyOutcome::Fail("primary FromParts failed: " +
                                   made.status().message());
    }
    primary = std::move(*made);
  }
  // The follower starts empty — everything it knows arrives by replication
  // (bootstrap installs the primary's snapshot, base EDB included).
  auto make_follower = [&]() -> Status {
    auto made = MakeWalService(c, fo, Database(), f_dir.path);
    if (!made.ok()) return made.status();
    follower = std::move(*made);
    CQLOPT_RETURN_IF_ERROR(follower->Recover());
    ReplicatorOptions ropts;
    ropts.max_records = static_cast<size_t>(rng.Uniform(1, 4));
    replicator = std::make_unique<Replicator>(
        follower.get(), std::make_unique<SlotReplicationSource>(&primary),
        ropts);
    replicator->AttachHooks();
    return Status::OK();
  };
  {
    Status made = make_follower();
    if (!made.ok()) {
      return PropertyOutcome::Fail("follower FromParts failed: " +
                                   made.message());
    }
  }
  // Drives Step() until a fetch returns level (0 records); injected faults
  // surface as retryable errors and are simply retried, which is exactly
  // what the backoff loop does minus the sleeping. Divergence (DATA_LOSS)
  // is never expected here and fails the property.
  auto catch_up = [&]() -> Status {
    for (int i = 0; i < 64; ++i) {
      Result<int> stepped = replicator->Step();
      if (!stepped.ok()) {
        if (stepped.status().code() == StatusCode::kDataLoss) {
          return stepped.status();
        }
        continue;
      }
      if (*stepped == 0) return Status::OK();
    }
    return Status::DeadlineExceeded("follower did not catch up in 64 steps");
  };

  for (size_t k = 0; k < ops.size(); ++k) {
    Rng srng(Rng::DeriveSeed(c.seed, 0x5EED00 + k));
    std::string where = "op " + std::to_string(k);
    // Seeded pre-op compaction: the follower's coordinates go stale and the
    // next fetch must renegotiate a snapshot.
    if (srng.Chance(25)) {
      Status compacted = primary->Compact();
      if (!compacted.ok()) {
        return PropertyOutcome::Fail(where + ": Compact failed: " +
                                     compacted.message());
      }
    }
    Status committed = ApplyWalOp(*primary, ops[k]);
    if (!committed.ok()) {
      return PropertyOutcome::Fail(where + ": primary op failed: " +
                                   committed.message());
    }
    // The fault schedule for this op's catch-up.
    const int fault = srng.Uniform(0, 8);
    switch (fault) {
      case 2:
        failpoint::Arm(failpoint::kReplicaFetch, /*skip=*/0,
                       /*times=*/srng.Uniform(1, 2));
        break;
      case 3:
        failpoint::Arm(failpoint::kReplicaTornRecord, /*skip=*/0, /*times=*/1);
        break;
      case 4:
        failpoint::Arm(failpoint::kReplicaCrashBeforeApply, /*skip=*/0,
                       /*times=*/1);
        break;
      case 5:
        failpoint::Arm(failpoint::kReplicaCrashMidApply, /*skip=*/0,
                       /*times=*/1);
        break;
      case 6:
        failpoint::Arm(failpoint::kReplicaCrashAfterApply, /*skip=*/0,
                       /*times=*/1);
        break;
      case 7: {
        // Primary crash: pulls while it is down must fail cleanly (typed,
        // not quarantine), and recovery must rebuild the feed so the
        // follower's coordinates keep working.
        std::string pre_crash = primary->RenderStateText();
        primary.reset();
        Result<int> down = replicator->Step();
        if (down.ok() ||
            down.status().code() == StatusCode::kDataLoss) {
          return PropertyOutcome::Fail(
              where + ": pull against a dead primary " +
              (down.ok() ? std::string("succeeded")
                         : "quarantined: " + down.status().message()));
        }
        auto revived = MakeWalService(c, fo, base_db, p_dir.path);
        if (!revived.ok()) {
          return PropertyOutcome::Fail(where + ": primary revive failed: " +
                                       revived.status().message());
        }
        primary = std::move(*revived);
        Status recovered = primary->Recover();
        if (!recovered.ok()) {
          return PropertyOutcome::Fail(where + ": primary recovery failed: " +
                                       recovered.message());
        }
        if (primary->RenderStateText() != pre_crash) {
          return PropertyOutcome::Fail(
              where + ": recovered primary differs from its pre-crash state");
        }
        break;
      }
      case 8: {
        // Follower crash: only its own WAL survives; the rebuilt follower
        // recovers from it and re-bootstraps (fresh coordinates).
        replicator.reset();
        follower.reset();
        Status made = make_follower();
        if (!made.ok()) {
          return PropertyOutcome::Fail(where + ": follower rebuild failed: " +
                                       made.message());
        }
        break;
      }
      default:
        break;  // 0, 1: fault-free catch-up
    }
    Status caught = catch_up();
    failpoint::DisarmAll();
    if (!caught.ok()) {
      return PropertyOutcome::Fail(where + " (fault " + std::to_string(fault) +
                                   "): catch-up failed: " + caught.message());
    }
    // A crash-site fault sometimes also restarts the follower afterwards —
    // the records applied before the "crash" must be durable in its WAL.
    if (fault >= 4 && fault <= 6 && srng.Chance(50)) {
      replicator.reset();
      follower.reset();
      Status made = make_follower();
      if (!made.ok()) {
        return PropertyOutcome::Fail(where + ": post-crash rebuild failed: " +
                                     made.message());
      }
      caught = catch_up();
      if (!caught.ok()) {
        return PropertyOutcome::Fail(where + ": post-crash catch-up failed: " +
                                     caught.message());
      }
    }
    std::string want = primary->RenderStateText();
    std::string got = follower->RenderStateText();
    if (got != want) {
      return PropertyOutcome::Fail(
          where + " (fault " + std::to_string(fault) +
          "): caught-up follower differs from primary (follower " +
          got.substr(0, got.find('\n')) + ", primary " +
          want.substr(0, want.find('\n')) + ")");
    }
    ReplicatorProgress progress = replicator->Progress();
    if (progress.lag_records != 0 || progress.quarantined) {
      return PropertyOutcome::Fail(
          where + ": progress after catch-up reports lag " +
          std::to_string(progress.lag_records) +
          (progress.quarantined ? " and quarantine" : ""));
    }
  }

  // Caught-up answers: byte-identical at the same epoch, and the ASOF
  // read-your-writes token honoured at the head / refused past it.
  std::string query_line = RenderQuery(c.query, *c.program.symbols);
  std::vector<std::string> primary_answers;
  std::vector<std::string> follower_answers;
  bool capped = false;
  std::string error;
  if (!ServiceQuery(*primary, query_line, &primary_answers, &capped, &error)) {
    return PropertyOutcome::Fail("primary query: " + error);
  }
  if (capped) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }
  if (!ServiceQuery(*follower, query_line, &follower_answers, &capped,
                    &error)) {
    return PropertyOutcome::Fail("follower query: " + error);
  }
  if (!capped && follower_answers != primary_answers) {
    return PropertyOutcome::Fail(
        "follower answers differ from the primary's at the same epoch: " +
        std::to_string(follower_answers.size()) + " vs " +
        std::to_string(primary_answers.size()));
  }
  auto asof_ok = follower->Execute(query_line, "", primary->epoch());
  if (!asof_ok.ok()) {
    return PropertyOutcome::Fail("ASOF at the caught-up epoch refused: " +
                                 asof_ok.status().message());
  }
  auto asof_ahead = follower->Execute(query_line, "", primary->epoch() + 1);
  if (asof_ahead.ok() ||
      asof_ahead.status().code() != StatusCode::kUnavailable) {
    return PropertyOutcome::Fail(
        "ASOF past the head should be typed UNAVAILABLE, got " +
        (asof_ahead.ok() ? std::string("OK")
                         : asof_ahead.status().ToString()));
  }

  // Failover: one more acknowledged write the follower never pulls, then
  // the primary dies. PROMOTE drains the dead WAL's unconsumed suffix —
  // the promoted node must land on the dead primary's exact final state
  // (epoch, clock, facts, and TTL deadlines; batch 0 was retracted above,
  // so re-ingesting it burns a real epoch and a real record).
  Status lag_write = ApplyWalOp(*primary, ops.front());
  if (!lag_write.ok()) {
    return PropertyOutcome::Fail("lag write failed: " + lag_write.message());
  }
  std::string dead_state = primary->RenderStateText();
  std::vector<std::string> dead_answers;
  if (!ServiceQuery(*primary, query_line, &dead_answers, &capped, &error)) {
    return PropertyOutcome::Fail("pre-failover query: " + error);
  }
  primary.reset();
  Status promoted = follower->Promote(p_dir.path);
  if (!promoted.ok()) {
    return PropertyOutcome::Fail("PROMOTE failed: " + promoted.message());
  }
  if (follower->role() != NodeRole::kPrimary) {
    return PropertyOutcome::Fail("promoted node still reports role " +
                                 std::string(NodeRoleName(follower->role())));
  }
  if (follower->RenderStateText() != dead_state) {
    std::string got = follower->RenderStateText();
    return PropertyOutcome::Fail(
        "promoted state differs from the dead primary's final state "
        "(promoted " +
        got.substr(0, got.find('\n')) + ", dead " +
        dead_state.substr(0, dead_state.find('\n')) +
        ") — an acknowledged write was lost or resurrected");
  }
  std::vector<std::string> promoted_answers;
  if (!ServiceQuery(*follower, query_line, &promoted_answers, &capped,
                    &error)) {
    return PropertyOutcome::Fail("post-promote query: " + error);
  }
  if (!capped && promoted_answers != dead_answers) {
    return PropertyOutcome::Fail(
        "post-promote answers differ from the dead primary's: " +
        std::to_string(promoted_answers.size()) + " vs " +
        std::to_string(dead_answers.size()));
  }
  Status again = follower->Promote("");
  if (!again.ok()) {
    return PropertyOutcome::Fail("PROMOTE on a primary should be a no-op: " +
                                 again.message());
  }

  // Divergence detection: a second follower replicates from the promoted
  // node, is deliberately tampered with (a local clock tick the primary
  // never saw), and the very next level fetch must quarantine it — reads
  // fail typed DATA_LOSS, promotion is refused, pulls stay dead.
  std::unique_ptr<QueryService> tampered;
  {
    ServiceOptions plain;
    plain.eval = EngineOptions(fo, EvalStrategy::kStratified);
    auto made = QueryService::FromParts(c.program, Database(), plain);
    if (!made.ok()) {
      return PropertyOutcome::Fail("tamper follower FromParts failed: " +
                                   made.status().message());
    }
    tampered = std::move(*made);
  }
  Replicator tamper_rep(tampered.get(),
                        std::make_unique<SlotReplicationSource>(&follower));
  tamper_rep.AttachHooks();
  for (int i = 0; i < 64; ++i) {
    Result<int> stepped = tamper_rep.Step();
    if (!stepped.ok()) {
      return PropertyOutcome::Fail("tamper follower catch-up failed: " +
                                   stepped.status().message());
    }
    if (*stepped == 0) break;
  }
  auto tampered_tick = tampered->AdvanceClock(1);
  if (!tampered_tick.ok()) {
    return PropertyOutcome::Fail("tamper tick failed: " +
                                 tampered_tick.status().message());
  }
  Result<int> caught_diverging = tamper_rep.Step();
  if (caught_diverging.ok() ||
      caught_diverging.status().code() != StatusCode::kDataLoss) {
    return PropertyOutcome::Fail(
        "divergence went undetected: Step after tampering returned " +
        (caught_diverging.ok() ? std::string("OK")
                               : caught_diverging.status().ToString()));
  }
  if (!tampered->quarantined() || !tamper_rep.Progress().quarantined) {
    return PropertyOutcome::Fail(
        "diverged follower is not quarantined everywhere");
  }
  auto refused_read = tampered->Execute(query_line, "");
  if (refused_read.ok() ||
      refused_read.status().code() != StatusCode::kDataLoss) {
    return PropertyOutcome::Fail(
        "quarantined follower should refuse reads with DATA_LOSS, got " +
        (refused_read.ok() ? std::string("OK")
                           : refused_read.status().ToString()));
  }
  Status refused_promote = tampered->Promote("");
  if (refused_promote.ok() ||
      refused_promote.code() != StatusCode::kFailedPrecondition) {
    return PropertyOutcome::Fail(
        "quarantined follower should refuse PROMOTE with "
        "FAILED_PRECONDITION, got " +
        (refused_promote.ok() ? std::string("OK")
                              : refused_promote.ToString()));
  }
  Result<int> dead_pull = tamper_rep.Step();
  if (dead_pull.ok() ||
      dead_pull.status().code() != StatusCode::kDataLoss) {
    return PropertyOutcome::Fail(
        "quarantined follower should never pull again");
  }
  return PropertyOutcome::Ok();
}

// ---------------------------------------------------------------------------
// interval_equiv: an access path that must never change an answer.

/// interval_equiv: interval-indexed probe pruning on vs off. A pruned row
/// is one whose column value (or propagated bound summary) is disjoint from
/// a sound over-approximation of the accumulated join state (DESIGN.md
/// §12), so the per-tuple satisfiability check would have rejected it
/// anyway — *any* divergence is a soundness bug in the index maintenance
/// or the AdmittedRange binary search in relation.cc.
///
/// Evaluates the case twice — index on, then off — and demands byte
/// identity: same storage fingerprint (fact keys, order, births), same
/// rendered trace, same core counters. Both arms run from a cold
/// DecisionCache so neither coasts on the other's memo entries. The off
/// arm may record no index activity.
PropertyOutcome IntervalEquiv(const FuzzCase& c, const FuzzOptions& fo) {
  Database db = BuildDatabase(c);
  EvalOptions opts = EngineOptions(fo, EvalStrategy::kStratified);
  opts.record_trace = true;

  DecisionCache::Instance().Clear();
  opts.interval_index = true;
  auto on = Evaluate(c.program, db, opts);
  if (!on.ok()) {
    return PropertyOutcome::Fail("interval-on evaluation failed: " +
                                 on.status().message());
  }

  DecisionCache::Instance().Clear();
  opts.interval_index = false;
  auto off = Evaluate(c.program, db, opts);
  if (!off.ok()) {
    return PropertyOutcome::Fail("interval-off evaluation failed: " +
                                 off.status().message());
  }

  if (StorageFingerprint(*on) != StorageFingerprint(*off)) {
    return PropertyOutcome::Fail(
        "interval-on storage differs from interval-off: " +
        CountsByPred(EvalToMap(*on)) + " vs " +
        CountsByPred(EvalToMap(*off)));
  }
  if (RenderTrace(on->trace) != RenderTrace(off->trace)) {
    return PropertyOutcome::Fail(
        "interval-on derivation trace differs from interval-off");
  }
  const EvalStats& a = on->stats;
  const EvalStats& b = off->stats;
  if (a.derivations != b.derivations || a.inserted != b.inserted ||
      a.subsumed != b.subsumed || a.duplicates != b.duplicates ||
      a.iterations != b.iterations ||
      a.reached_fixpoint != b.reached_fixpoint ||
      a.all_ground != b.all_ground) {
    return PropertyOutcome::Fail(
        "interval-on stats differ from interval-off: " +
        std::to_string(a.derivations) + "/" + std::to_string(a.inserted) +
        "/" + std::to_string(a.subsumed) + " vs " +
        std::to_string(b.derivations) + "/" + std::to_string(b.inserted) +
        "/" + std::to_string(b.subsumed));
  }
  if (b.interval_probes != 0 || b.interval_candidates != 0) {
    return PropertyOutcome::Fail("interval-off arm recorded interval activity");
  }
  if (!on->stats.reached_fixpoint) {
    return PropertyOutcome::Skip("iteration cap hit before fixpoint");
  }
  return PropertyOutcome::Ok();
}

}  // namespace

const char* PlantedBugName(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kNone:
      return "none";
    case PlantedBug::kDropConstraintAtom:
      return "drop-constraint-atom";
    case PlantedBug::kDropRule:
      return "drop-rule";
  }
  return "none";
}

bool ParsePlantedBug(const std::string& name, PlantedBug* out) {
  for (PlantedBug bug : {PlantedBug::kNone, PlantedBug::kDropConstraintAtom,
                         PlantedBug::kDropRule}) {
    if (name == PlantedBugName(bug)) {
      *out = bug;
      return true;
    }
  }
  return false;
}

const std::vector<PropertyInfo>& AllProperties() {
  static const std::vector<PropertyInfo>* properties =
      new std::vector<PropertyInfo>{
          {"oracle_equiv",
           "semi-naive engine matches the naive reference oracle",
           &OracleEquiv},
          {"strategy_confluence",
           "semi-naive and stratified both match the naive reference "
           "oracle",
           &StrategyConfluence},
          {"rewrite_equiv",
           "pred / qrp / magic / balbin pipelines preserve query answers",
           &RewriteEquiv},
          {"fm_projection",
           "Fourier-Motzkin projection matches pointwise existential checks",
           &FmProjection},
          {"resume_scratch",
           "ResumeEvaluate over a split EDB matches a from-scratch run",
           &ResumeScratch},
          {"retract_vs_scratch",
           "RetractEvaluate matches a from-scratch run on the surviving "
           "EDB, byte-identically, and RETRACT over the protocol agrees",
           &RetractVsScratch},
          {"service_roundtrip",
           "cqld protocol answers match direct evaluation across an ingest",
           &ServiceRoundtrip},
          {"crash_recovery",
           "WAL recovery after an injected crash at every fail-point site "
           "reproduces the never-crashed run",
           &CrashRecovery},
          {"replica_vs_primary",
           "a caught-up follower is byte-identical to the primary under any "
           "fault schedule, failover loses no acknowledged write, and "
           "divergence is always quarantined",
           &ReplicaVsPrimary},
          {"interval_equiv",
           "interval-indexed probe pruning on vs off: byte-identical facts, "
           "births, traces, and core stats",
           &IntervalEquiv},
          {"scheduler_equiv",
           "random concurrent client schedules through the worker pool "
           "match a serial replay (answers and epoch count)",
           &SchedulerEquiv},
      };
  return *properties;
}

const PropertyInfo* FindProperty(const std::string& name) {
  for (const PropertyInfo& info : AllProperties()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

Database BuildDatabase(const FuzzCase& c) {
  Database db;
  for (const Fact& fact : c.edb) db.AddFact(fact);
  return db;
}

std::map<PredId, std::vector<Fact>> EvalToMap(const EvalResult& result) {
  std::map<PredId, std::vector<Fact>> out;
  for (const auto& [pred, rel] : result.db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) {
      out[pred].push_back(rel.fact(i));
    }
  }
  return out;
}

}  // namespace testing
}  // namespace cqlopt
