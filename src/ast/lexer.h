#ifndef CQLOPT_AST_LEXER_H_
#define CQLOPT_AST_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace cqlopt {

/// Token kinds of the rule language (see parser.h for the grammar).
enum class TokenKind {
  kIdent,     // lowercase-initial: predicate or symbolic constant
  kVariable,  // uppercase- or underscore-initial
  kNumber,    // decimal literal, possibly with a fractional part
  kLParen,
  kRParen,
  kComma,
  kDot,
  kColon,
  kImplies,   // :-
  kQuery,     // ?-
  kLe,        // <=
  kLt,        // <
  kGe,        // >=
  kGt,        // >
  kEq,        // =
  kPlus,
  kMinus,
  kStar,
  kEof,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

/// Longest numeral the lexer accepts, in characters (digits plus the
/// decimal point). Exact rational arithmetic on a numeral costs time
/// superlinear in its length, so one client line carrying a huge literal
/// could otherwise hold a server for minutes. Real programs write literals
/// of a few digits; the bound leaves them ample room.
inline constexpr size_t kMaxNumeralLength = 1000;

/// Tokenizes `input`. `%` and `//` start line comments. A numeral longer
/// than kMaxNumeralLength is a ParseError.
Result<std::vector<Token>> Tokenize(const std::string& input);

}  // namespace cqlopt

#endif  // CQLOPT_AST_LEXER_H_
