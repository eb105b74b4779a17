#include "ast/parser.h"

#include <utility>

#include "ast/lexer.h"
#include "ast/term.h"

namespace cqlopt {
namespace {

/// Recursive-descent parser over the token stream. One instance parses one
/// text; variable scoping is per-rule (the same name in two rules denotes
/// two different variables), while ids are unique program-wide.
class Parser {
 public:
  Parser(std::vector<Token> tokens, std::shared_ptr<SymbolTable> symbols)
      : tokens_(std::move(tokens)),
        symbols_(std::move(symbols)),
        alloc_(1024) {}

  Result<ParseResult> Parse() {
    ParseResult out;
    out.program = Program(symbols_);
    while (!At(TokenKind::kEof)) {
      if (At(TokenKind::kQuery)) {
        CQLOPT_ASSIGN_OR_RETURN(Query q, ParseQuery(&out.program));
        out.queries.push_back(std::move(q));
      } else {
        CQLOPT_ASSIGN_OR_RETURN(Rule r, ParseRule(&out.program));
        out.program.rules.push_back(std::move(r));
      }
    }
    return out;
  }

  Result<Query> ParseOneQuery(Program* program) {
    if (!At(TokenKind::kQuery)) {
      return Error("expected '?-'");
    }
    CQLOPT_ASSIGN_OR_RETURN(Query q, ParseQuery(program));
    if (!At(TokenKind::kEof)) return Error("trailing input after query");
    return q;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Next() const {
    return tokens_[pos_ + 1 < tokens_.size() ? pos_ + 1 : pos_];
  }
  bool At(TokenKind kind) const { return Cur().kind == kind; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Accept(TokenKind kind) {
    if (!At(kind)) return false;
    Advance();
    return true;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at line " +
                              std::to_string(Cur().line) + " near '" +
                              Cur().text + "'");
  }
  Status Expect(TokenKind kind, const std::string& what) {
    if (!Accept(kind)) return Error("expected " + what);
    return Status::OK();
  }

  /// Bound on the nesting of parentheses and unary minus signs within one
  /// expression. Each level costs several stack frames of the recursive
  /// descent, so unbounded nesting from a client line would overflow the
  /// stack of the thread parsing it.
  static constexpr int kMaxExprNesting = 256;

  /// Enters one nesting level; the caller leaves it with `--nesting_` once
  /// the nested term parsed. A failed parse abandons the Parser, so error
  /// returns need not rebalance the counter.
  Status EnterNesting() {
    if (++nesting_ > kMaxExprNesting) {
      return Error("expression nested deeper than " +
                   std::to_string(kMaxExprNesting) + " levels");
    }
    return Status::OK();
  }

  VarId InternVar(const std::string& name) {
    auto [it, inserted] = rule_vars_.emplace(name, kNoVar);
    if (inserted) {
      it->second = alloc_.Fresh();
      rule_var_names_[it->second] = name;
    }
    return it->second;
  }
  VarId FreshVar() {
    VarId v = alloc_.Fresh();
    rule_var_names_[v] = "_g" + std::to_string(v);
    return v;
  }

  /// primary := number | variable | ident | '(' expr ')'
  Result<ParsedTerm> ParsePrimary() {
    if (At(TokenKind::kNumber)) {
      Rational value;
      if (!Rational::FromString(Cur().text, &value)) {
        return Error("malformed number");
      }
      Advance();
      return ParsedTerm::Linear(LinearExpr::Constant(value));
    }
    if (At(TokenKind::kVariable)) {
      VarId v = InternVar(Cur().text);
      Advance();
      return ParsedTerm::Linear(LinearExpr::Var(v));
    }
    if (At(TokenKind::kIdent)) {
      SymbolId sym = symbols_->InternSymbol(Cur().text);
      Advance();
      return ParsedTerm::Symbol(sym);
    }
    if (Accept(TokenKind::kLParen)) {
      CQLOPT_RETURN_IF_ERROR(EnterNesting());
      CQLOPT_ASSIGN_OR_RETURN(ParsedTerm t, ParseExpr());
      --nesting_;
      CQLOPT_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return t;
    }
    return Error("expected term");
  }

  /// unary := ['-'] primary
  Result<ParsedTerm> ParseUnary() {
    if (Accept(TokenKind::kMinus)) {
      CQLOPT_RETURN_IF_ERROR(EnterNesting());
      CQLOPT_ASSIGN_OR_RETURN(ParsedTerm t, ParseUnary());
      --nesting_;
      if (t.kind != ParsedTerm::Kind::kLinear) {
        return Error("cannot negate a symbolic constant");
      }
      return ParsedTerm::Linear(-t.linear);
    }
    return ParsePrimary();
  }

  /// multerm := unary ('*' unary)*, with linearity enforced.
  Result<ParsedTerm> ParseMulTerm() {
    CQLOPT_ASSIGN_OR_RETURN(ParsedTerm t, ParseUnary());
    while (Accept(TokenKind::kStar)) {
      CQLOPT_ASSIGN_OR_RETURN(ParsedTerm rhs, ParseUnary());
      if (t.kind != ParsedTerm::Kind::kLinear ||
          rhs.kind != ParsedTerm::Kind::kLinear) {
        return Error("cannot multiply symbolic constants");
      }
      if (!t.linear.is_constant() && !rhs.linear.is_constant()) {
        return Error("nonlinear product of variables");
      }
      if (rhs.linear.is_constant()) {
        t = ParsedTerm::Linear(t.linear.Scale(rhs.linear.constant()));
      } else {
        t = ParsedTerm::Linear(rhs.linear.Scale(t.linear.constant()));
      }
    }
    return t;
  }

  /// expr := multerm (('+'|'-') multerm)*
  Result<ParsedTerm> ParseExpr() {
    CQLOPT_ASSIGN_OR_RETURN(ParsedTerm t, ParseMulTerm());
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      bool plus = At(TokenKind::kPlus);
      Advance();
      CQLOPT_ASSIGN_OR_RETURN(ParsedTerm rhs, ParseMulTerm());
      if (t.kind != ParsedTerm::Kind::kLinear ||
          rhs.kind != ParsedTerm::Kind::kLinear) {
        return Error("arithmetic over symbolic constants");
      }
      t = ParsedTerm::Linear(plus ? t.linear + rhs.linear
                                  : t.linear - rhs.linear);
    }
    return t;
  }

  /// Converts a parsed argument term into a bare variable, pushing any
  /// binding into `constraints`.
  Result<VarId> TermToVar(const ParsedTerm& t, Conjunction* constraints) {
    if (t.kind == ParsedTerm::Kind::kSymbol) {
      VarId v = FreshVar();
      CQLOPT_RETURN_IF_ERROR(constraints->BindSymbol(v, t.symbol));
      return v;
    }
    VarId plain = t.AsPlainVar();
    if (plain != kNoVar) return plain;
    VarId v = FreshVar();
    LinearExpr diff = LinearExpr::Var(v) - t.linear;
    CQLOPT_RETURN_IF_ERROR(
        constraints->AddLinear(LinearConstraint(diff, CmpOp::kEq)));
    return v;
  }

  /// literal := ident '(' term (',' term)* ')'
  Result<Literal> ParseLiteral(Program* program, Conjunction* constraints) {
    if (!At(TokenKind::kIdent)) return Error("expected predicate");
    PredId pred = symbols_->InternPredicate(Cur().text);
    Advance();
    CQLOPT_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    std::vector<VarId> args;
    if (!At(TokenKind::kRParen)) {
      do {
        CQLOPT_ASSIGN_OR_RETURN(ParsedTerm t, ParseExpr());
        CQLOPT_ASSIGN_OR_RETURN(VarId v, TermToVar(t, constraints));
        args.push_back(v);
      } while (Accept(TokenKind::kComma));
    }
    CQLOPT_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    CQLOPT_RETURN_IF_ERROR(
        program->DeclareArity(pred, static_cast<int>(args.size())));
    return Literal(pred, std::move(args));
  }

  /// constraint := expr cmpop expr (the leading expr is already parsed).
  Status FinishConstraint(const ParsedTerm& lhs, Conjunction* constraints) {
    std::string op;
    switch (Cur().kind) {
      case TokenKind::kLe:
        op = "<=";
        break;
      case TokenKind::kLt:
        op = "<";
        break;
      case TokenKind::kGe:
        op = ">=";
        break;
      case TokenKind::kGt:
        op = ">";
        break;
      case TokenKind::kEq:
        op = "=";
        break;
      default:
        return Error("expected comparison operator");
    }
    Advance();
    CQLOPT_ASSIGN_OR_RETURN(ParsedTerm rhs, ParseExpr());
    // Symbolic sides are only meaningful under `=` against a variable side.
    if (lhs.kind == ParsedTerm::Kind::kSymbol ||
        rhs.kind == ParsedTerm::Kind::kSymbol) {
      if (op != "=") return Error("symbolic constants admit only '='");
      const ParsedTerm& sym_side =
          lhs.kind == ParsedTerm::Kind::kSymbol ? lhs : rhs;
      const ParsedTerm& var_side =
          lhs.kind == ParsedTerm::Kind::kSymbol ? rhs : lhs;
      if (var_side.kind == ParsedTerm::Kind::kSymbol) {
        // symbol = symbol: satisfiable iff identical.
        if (var_side.symbol != sym_side.symbol) {
          return constraints->AddLinear(LinearConstraint(
              LinearExpr::Constant(Rational(1)), CmpOp::kLe));  // false
        }
        return Status::OK();
      }
      VarId v = var_side.AsPlainVar();
      if (v == kNoVar) return Error("symbolic constant equated to arithmetic");
      return constraints->BindSymbol(v, sym_side.symbol);
    }
    return constraints->AddLinear(
        LinearConstraint::Make(lhs.linear, op, rhs.linear));
  }

  /// bodyitem := literal | constraint
  Status ParseBodyItem(Program* program, std::vector<Literal>* body,
                       Conjunction* constraints) {
    if (At(TokenKind::kIdent) && Next().kind == TokenKind::kLParen) {
      CQLOPT_ASSIGN_OR_RETURN(Literal lit, ParseLiteral(program, constraints));
      body->push_back(std::move(lit));
      return Status::OK();
    }
    CQLOPT_ASSIGN_OR_RETURN(ParsedTerm lhs, ParseExpr());
    return FinishConstraint(lhs, constraints);
  }

  Result<Rule> ParseRule(Program* program) {
    rule_vars_.clear();
    rule_var_names_.clear();
    Rule rule;
    rule.source_line = Cur().line;
    // Optional label: ident ':' (but not ':-').
    if (At(TokenKind::kIdent) && Next().kind == TokenKind::kColon) {
      rule.label = Cur().text;
      Advance();
      Advance();
    }
    CQLOPT_ASSIGN_OR_RETURN(Literal head,
                            ParseLiteral(program, &rule.constraints));
    rule.head = std::move(head);
    if (Accept(TokenKind::kImplies)) {
      do {
        CQLOPT_RETURN_IF_ERROR(
            ParseBodyItem(program, &rule.body, &rule.constraints));
      } while (Accept(TokenKind::kComma));
    }
    CQLOPT_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
    rule.var_names = rule_var_names_;
    return rule;
  }

  Result<Query> ParseQuery(Program* program) {
    rule_vars_.clear();
    rule_var_names_.clear();
    int line = Cur().line;
    CQLOPT_RETURN_IF_ERROR(Expect(TokenKind::kQuery, "'?-'"));
    Query query;
    query.source_line = line;
    std::vector<Literal> body;
    do {
      CQLOPT_RETURN_IF_ERROR(ParseBodyItem(program, &body, &query.constraints));
    } while (Accept(TokenKind::kComma));
    CQLOPT_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
    if (body.size() != 1) {
      return Error("a query must contain exactly one literal");
    }
    query.literal = std::move(body[0]);
    return query;
  }

  std::vector<Token> tokens_;
  std::shared_ptr<SymbolTable> symbols_;
  VarAllocator alloc_;
  size_t pos_ = 0;
  int nesting_ = 0;  // open parentheses and unary minus signs (EnterNesting)
  std::map<std::string, VarId> rule_vars_;
  std::map<VarId, std::string> rule_var_names_;
};

}  // namespace

Result<ParseResult> ParseProgram(const std::string& text,
                                 std::shared_ptr<SymbolTable> symbols) {
  CQLOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), std::move(symbols));
  return parser.Parse();
}

Result<ParseResult> ParseProgram(const std::string& text) {
  return ParseProgram(text, std::make_shared<SymbolTable>());
}

Result<Query> ParseQueryText(const std::string& text, Program* program) {
  CQLOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), program->symbols);
  return parser.ParseOneQuery(program);
}

}  // namespace cqlopt
