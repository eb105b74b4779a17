#include "ast/lexer.h"

#include <cctype>

namespace cqlopt {

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  int line = 1;
  int column = 1;
  size_t i = 0;
  auto push = [&](TokenKind kind, std::string text) {
    tokens.push_back(Token{kind, std::move(text), line, column});
  };
  while (i < input.size()) {
    char c = input[i];
    if (c == '\n') {
      ++line;
      column = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++column;
      ++i;
      continue;
    }
    if (c == '%' || (c == '/' && i + 1 < input.size() && input[i + 1] == '/')) {
      while (i < input.size() && input[i] != '\n') ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[i]))) {
        ++i;
      }
      if (i + 1 < input.size() && input[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        ++i;
        while (i < input.size() &&
               std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      if (i - start > kMaxNumeralLength) {
        return Status::ParseError(
            "numeral of " + std::to_string(i - start) +
            " characters exceeds the limit of " +
            std::to_string(kMaxNumeralLength) + " at line " +
            std::to_string(line) + ", column " + std::to_string(column));
      }
      push(TokenKind::kNumber, input.substr(start, i - start));
      column += static_cast<int>(i - start);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[i])) ||
              input[i] == '_' || input[i] == '\'')) {
        ++i;
      }
      std::string text = input.substr(start, i - start);
      bool is_var = std::isupper(static_cast<unsigned char>(text[0])) ||
                    text[0] == '_';
      push(is_var ? TokenKind::kVariable : TokenKind::kIdent, std::move(text));
      column += static_cast<int>(i - start);
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < input.size() && input[i + 1] == b;
    };
    if (two(':', '-')) {
      push(TokenKind::kImplies, ":-");
      i += 2;
      column += 2;
      continue;
    }
    if (two('?', '-')) {
      push(TokenKind::kQuery, "?-");
      i += 2;
      column += 2;
      continue;
    }
    if (two('<', '=') || two('=', '<')) {
      push(TokenKind::kLe, "<=");
      i += 2;
      column += 2;
      continue;
    }
    if (two('>', '=') || two('=', '>')) {
      push(TokenKind::kGe, ">=");
      i += 2;
      column += 2;
      continue;
    }
    TokenKind kind;
    switch (c) {
      case '(':
        kind = TokenKind::kLParen;
        break;
      case ')':
        kind = TokenKind::kRParen;
        break;
      case ',':
        kind = TokenKind::kComma;
        break;
      case '.':
        kind = TokenKind::kDot;
        break;
      case ':':
        kind = TokenKind::kColon;
        break;
      case '<':
        kind = TokenKind::kLt;
        break;
      case '>':
        kind = TokenKind::kGt;
        break;
      case '=':
        kind = TokenKind::kEq;
        break;
      case '+':
        kind = TokenKind::kPlus;
        break;
      case '-':
        kind = TokenKind::kMinus;
        break;
      case '*':
        kind = TokenKind::kStar;
        break;
      default:
        return Status::ParseError("unexpected character '" +
                                  std::string(1, c) + "' at line " +
                                  std::to_string(line) + ", column " +
                                  std::to_string(column));
    }
    push(kind, std::string(1, c));
    ++i;
    ++column;
  }
  push(TokenKind::kEof, "");
  return tokens;
}

}  // namespace cqlopt
