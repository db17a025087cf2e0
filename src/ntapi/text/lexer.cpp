#include "ntapi/text/lexer.hpp"

#include <cctype>
#include <stdexcept>

namespace ht::ntapi::text {

LexError::LexError(const std::string& message, int line, int column)
    : std::runtime_error("lex error at " + std::to_string(line) + ":" + std::to_string(column) +
                         ": " + message),
      line_(line),
      column_(column) {}

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1, col = 1;

  const auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  const auto peek = [&](std::size_t off = 0) -> char {
    return i + off < src.size() ? src[i + off] : '\0';
  };
  while (i < src.size()) {
    const char c = peek();
    // Whitespace.
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    // Comments: '#' or '//' to end of line.
    if (c == '#' || (c == '/' && peek(1) == '/')) {
      while (i < src.size() && peek() != '\n') advance();
      continue;
    }
    // Strings.
    if (c == '"') {
      const int start_line = line, start_col = col;
      advance();
      std::string text;
      while (i < src.size() && peek() != '"') {
        if (peek() == '\\' && i + 1 < src.size()) {
          advance();
          switch (peek()) {
            case 'n':
              text.push_back('\n');
              break;
            case 'r':
              text.push_back('\r');
              break;
            case 't':
              text.push_back('\t');
              break;
            case '0':
              text.push_back('\0');
              break;
            default:
              text.push_back(peek());
          }
          advance();
          continue;
        }
        text.push_back(peek());
        advance();
      }
      if (i >= src.size()) throw LexError("unterminated string", start_line, start_col);
      advance();  // closing quote
      out.push_back(Token{TokKind::kString, std::move(text), 0, start_line, start_col});
      continue;
    }
    // Numbers (and IPv4 literals, which start with a digit).
    if (digit(c)) {
      const int start_line = line, start_col = col;
      std::string text;
      while (digit(peek())) {
        text.push_back(peek());
        advance();
      }
      // Dotted quad? Collect up to 3 more groups.
      if (peek() == '.' && digit(peek(1))) {
        int groups = 1;
        std::string ip = text;
        while (peek() == '.' && digit(peek(1)) && groups < 4) {
          ip.push_back('.');
          advance();
          while (digit(peek())) {
            ip.push_back(peek());
            advance();
          }
          ++groups;
        }
        if (groups != 4) throw LexError("malformed IPv4 literal", start_line, start_col);
        out.push_back(Token{TokKind::kIpAddr, std::move(ip), 0, start_line, start_col});
        continue;
      }
      // Time suffix: ns, us, ms, s (value normalized to nanoseconds).
      std::uint64_t value = std::stoull(text);
      if (ident_start(peek())) {
        std::string suffix;
        while (ident_char(peek()) && suffix.size() < 2) {
          suffix.push_back(peek());
          advance();
        }
        if (suffix == "ns") {
        } else if (suffix == "us") {
          value *= 1'000;
        } else if (suffix == "ms") {
          value *= 1'000'000;
        } else if (suffix == "s") {
          value *= 1'000'000'000;
        } else if (suffix == "K") {
          value *= 1'000;
        } else if (suffix == "M") {
          value *= 1'000'000;
        } else {
          throw LexError("unknown numeric suffix '" + suffix + "'", start_line, start_col);
        }
      }
      out.push_back(Token{TokKind::kNumber, std::move(text), value, start_line, start_col});
      continue;
    }
    // Identifiers (dotted names allowed: tcp.flags, Q1.sip).
    if (ident_start(c)) {
      const int start_line = line, start_col = col;
      std::string text;
      while (ident_char(peek())) {
        text.push_back(peek());
        advance();
      }
      if (!text.empty() && text.back() == '.') {
        throw LexError("identifier ends with '.'", start_line, start_col);
      }
      out.push_back(Token{TokKind::kIdent, std::move(text), 0, start_line, start_col});
      continue;
    }
    // Operators and punctuation.
    const int tl = line, tc = col;
    const auto push_at = [&](TokKind kind, std::string text) {
      out.push_back(Token{kind, std::move(text), 0, tl, tc});
    };
    switch (c) {
      case '=':
        if (peek(1) == '=') {
          push_at(TokKind::kEqEq, "==");
          advance(2);
        } else {
          push_at(TokKind::kEquals, "=");
          advance();
        }
        break;
      case '!':
        if (peek(1) != '=') throw LexError("expected '=' after '!'", line, col);
        push_at(TokKind::kNotEq, "!=");
        advance(2);
        break;
      case '<':
        if (peek(1) == '=') {
          push_at(TokKind::kLessEq, "<=");
          advance(2);
        } else {
          push_at(TokKind::kLess, "<");
          advance();
        }
        break;
      case '>':
        if (peek(1) == '=') {
          push_at(TokKind::kGreaterEq, ">=");
          advance(2);
        } else {
          push_at(TokKind::kGreater, ">");
          advance();
        }
        break;
      case '+':
        push_at(TokKind::kPlus, "+");
        advance();
        break;
      case '-':
        push_at(TokKind::kMinus, "-");
        advance();
        break;
      case '.':
        push_at(TokKind::kDot, ".");
        advance();
        break;
      case ',':
        push_at(TokKind::kComma, ",");
        advance();
        break;
      case '(':
        push_at(TokKind::kLParen, "(");
        advance();
        break;
      case ')':
        push_at(TokKind::kRParen, ")");
        advance();
        break;
      case '[':
        push_at(TokKind::kLBracket, "[");
        advance();
        break;
      case ']':
        push_at(TokKind::kRBracket, "]");
        advance();
        break;
      case '\'':
        // random('N', ...) — treat a quoted char as a one-letter ident.
        if (i + 2 < src.size() && src[i + 2] == '\'') {
          out.push_back(Token{TokKind::kIdent, std::string(1, src[i + 1]), 0, tl, tc});
          advance(3);
          break;
        }
        throw LexError("malformed character literal", line, col);
      default:
        throw LexError(std::string("unexpected character '") + c + "'", line, col);
    }
  }
  out.push_back(Token{TokKind::kEnd, "", 0, line, col});
  return out;
}

std::string_view token_kind_name(TokKind kind) {
  switch (kind) {
    case TokKind::kIdent:
      return "identifier";
    case TokKind::kNumber:
      return "number";
    case TokKind::kIpAddr:
      return "IPv4 address";
    case TokKind::kString:
      return "string";
    case TokKind::kEquals:
      return "'='";
    case TokKind::kEqEq:
      return "'=='";
    case TokKind::kNotEq:
      return "'!='";
    case TokKind::kLess:
      return "'<'";
    case TokKind::kLessEq:
      return "'<='";
    case TokKind::kGreater:
      return "'>'";
    case TokKind::kGreaterEq:
      return "'>='";
    case TokKind::kPlus:
      return "'+'";
    case TokKind::kMinus:
      return "'-'";
    case TokKind::kDot:
      return "'.'";
    case TokKind::kComma:
      return "','";
    case TokKind::kLParen:
      return "'('";
    case TokKind::kRParen:
      return "')'";
    case TokKind::kLBracket:
      return "'['";
    case TokKind::kRBracket:
      return "']'";
    case TokKind::kEnd:
      return "end of input";
  }
  return "?";
}

}  // namespace ht::ntapi::text
