#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>
#include <vector>

namespace chunkcache::sql {

using backend::NonGroupByPredicate;
using backend::StarJoinQuery;
using schema::OrdinalRange;

namespace {

// ----------------------------------- Lexer ----------------------------------

enum class TokenType {
  kIdent,    // bare identifier
  kString,   // 'quoted member name'
  kSymbol,   // ( ) , . = < > <= >=
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;  // uppercased for idents? keep original; compare ci
  size_t pos;
};

bool IdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '\'') {
      const size_t start = ++i;
      while (i < text.size() && text[i] != '\'') ++i;
      if (i == text.size()) {
        return Status::InvalidArgument("SQL: unterminated string at offset " +
                                       std::to_string(start - 1));
      }
      tokens.push_back({TokenType::kString, text.substr(start, i - start),
                        start - 1});
      ++i;
      continue;
    }
    if (IdentChar(c)) {
      const size_t start = i;
      while (i < text.size() && IdentChar(text[i])) ++i;
      tokens.push_back({TokenType::kIdent, text.substr(start, i - start),
                        start});
      continue;
    }
    if (c == '<' || c == '>') {
      if (i + 1 < text.size() && text[i + 1] == '=') {
        tokens.push_back({TokenType::kSymbol, text.substr(i, 2), i});
        i += 2;
        continue;
      }
      tokens.push_back({TokenType::kSymbol, std::string(1, c), i});
      ++i;
      continue;
    }
    if (c == '(' || c == ')' || c == ',' || c == '.' || c == '=' ||
        c == '*') {
      tokens.push_back({TokenType::kSymbol, std::string(1, c), i});
      ++i;
      continue;
    }
    return Status::InvalidArgument("SQL: unexpected character '" +
                                   std::string(1, c) + "' at offset " +
                                   std::to_string(i));
  }
  tokens.push_back({TokenType::kEnd, "", text.size()});
  return tokens;
}

bool EqualsCi(const std::string& a, const char* b) {
  size_t n = 0;
  while (b[n] != '\0') ++n;
  if (a.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

// ---------------------------------- Parser ----------------------------------

struct Attr {
  uint32_t dim;
  uint32_t level;
};

/// Accumulated constraint on one attribute: the intersection of the
/// ranges its predicates select ( =, BETWEEN, comparisons ). An empty
/// intersection has begin > end, and stays so under further predicates.
struct RangeConstraint {
  Attr attr;
  OrdinalRange range;
};

class ParserImpl {
 public:
  ParserImpl(const schema::StarSchema* schema, std::vector<Token> tokens)
      : schema_(schema), tokens_(std::move(tokens)) {}

  Result<StarJoinQuery> Run() {
    CHUNKCACHE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    CHUNKCACHE_RETURN_IF_ERROR(ParseSelectList());
    CHUNKCACHE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    CHUNKCACHE_RETURN_IF_ERROR(ParseFromList());
    if (PeekKeyword("WHERE")) {
      Advance();
      CHUNKCACHE_RETURN_IF_ERROR(ParsePredicates());
    }
    CHUNKCACHE_RETURN_IF_ERROR(ExpectKeyword("GROUP"));
    CHUNKCACHE_RETURN_IF_ERROR(ExpectKeyword("BY"));
    CHUNKCACHE_RETURN_IF_ERROR(ParseGroupBy());
    if (Peek().type != TokenType::kEnd) {
      return Status::InvalidArgument("SQL: trailing input at offset " +
                                     std::to_string(Peek().pos));
    }
    return Bind();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const char* kw) const {
    return Peek().type == TokenType::kIdent && EqualsCi(Peek().text, kw);
  }

  Status ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      return Status::InvalidArgument("SQL: expected '" + std::string(kw) +
                                     "' at offset " +
                                     std::to_string(Peek().pos));
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(const char* sym) {
    if (Peek().type != TokenType::kSymbol || Peek().text != sym) {
      return Status::InvalidArgument("SQL: expected '" + std::string(sym) +
                                     "' at offset " +
                                     std::to_string(Peek().pos));
    }
    Advance();
    return Status::OK();
  }

  /// Parses `<dim> . <level>` and binds it against the schema.
  Result<Attr> ParseAttr() {
    if (Peek().type != TokenType::kIdent) {
      return Status::InvalidArgument("SQL: expected attribute at offset " +
                                     std::to_string(Peek().pos));
    }
    const std::string dim_name = Advance().text;
    CHUNKCACHE_RETURN_IF_ERROR(ExpectSymbol("."));
    if (Peek().type != TokenType::kIdent) {
      return Status::InvalidArgument("SQL: expected level name at offset " +
                                     std::to_string(Peek().pos));
    }
    const std::string level_name = Advance().text;
    CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t dim,
                                schema_->DimensionIndex(dim_name));
    const auto& h = schema_->dimension(dim).hierarchy;
    for (uint32_t l = 1; l <= h.depth(); ++l) {
      if (EqualsCi(level_name, h.LevelName(l).c_str())) return Attr{dim, l};
    }
    return Status::NotFound("SQL: dimension '" + dim_name +
                            "' has no level '" + level_name + "'");
  }

  Status ParseSelectList() {
    while (true) {
      if (PeekKeyword("SUM") || PeekKeyword("MIN") || PeekKeyword("MAX") ||
          PeekKeyword("AVG") || PeekKeyword("COUNT")) {
        const bool is_count = PeekKeyword("COUNT");
        const std::string agg_name = Peek().text;
        Advance();
        CHUNKCACHE_RETURN_IF_ERROR(ExpectSymbol("("));
        if (is_count) {
          // COUNT(*) or COUNT(measure) — same value for a fact table.
          if (Peek().type == TokenType::kSymbol && Peek().text == "*") {
            Advance();
          } else if (Peek().type == TokenType::kIdent &&
                     Peek().text == schema_->measure_name()) {
            Advance();
          } else {
            return Status::InvalidArgument(
                "SQL: COUNT takes * or the measure");
          }
        } else {
          if (Peek().type != TokenType::kIdent ||
              Peek().text != schema_->measure_name()) {
            return Status::InvalidArgument(
                "SQL: " + agg_name + " argument must be the measure '" +
                schema_->measure_name() + "'");
          }
          Advance();
        }
        CHUNKCACHE_RETURN_IF_ERROR(ExpectSymbol(")"));
        has_aggregate_ = true;
      } else {
        CHUNKCACHE_ASSIGN_OR_RETURN(Attr attr, ParseAttr());
        select_attrs_.push_back(attr);
      }
      if (Peek().type == TokenType::kSymbol && Peek().text == ",") {
        Advance();
        continue;
      }
      break;
    }
    if (!has_aggregate_) {
      return Status::InvalidArgument(
          "SQL: star-join template requires SUM(" + schema_->measure_name() +
          ") or COUNT(*) in the select list");
    }
    return Status::OK();
  }

  Status ParseFromList() {
    bool saw_fact = false;
    while (Peek().type == TokenType::kIdent) {
      const std::string name = Advance().text;
      if (name == schema_->fact_name()) {
        saw_fact = true;
      } else if (!schema_->DimensionIndex(name).ok()) {
        return Status::NotFound("SQL: unknown table '" + name + "'");
      }
      if (Peek().type == TokenType::kSymbol && Peek().text == ",") {
        Advance();
        continue;
      }
      break;
    }
    if (!saw_fact) {
      return Status::InvalidArgument("SQL: FROM must include the fact table '" +
                                     schema_->fact_name() + "'");
    }
    return Status::OK();
  }

  Result<uint32_t> ResolveMember(const Attr& attr, const Token& tok) {
    if (tok.type != TokenType::kString) {
      return Status::InvalidArgument(
          "SQL: expected quoted member name at offset " +
          std::to_string(tok.pos));
    }
    return schema_->dimension(attr.dim).hierarchy.OrdinalOf(attr.level,
                                                            tok.text);
  }

  Status ParsePredicates() {
    while (true) {
      CHUNKCACHE_ASSIGN_OR_RETURN(Attr attr, ParseAttr());
      const uint32_t card =
          schema_->dimension(attr.dim).hierarchy.LevelCardinality(attr.level);
      OrdinalRange pred;
      if (PeekKeyword("BETWEEN")) {
        Advance();
        CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t lo,
                                    ResolveMember(attr, Advance()));
        CHUNKCACHE_RETURN_IF_ERROR(ExpectKeyword("AND"));
        CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t hi,
                                    ResolveMember(attr, Advance()));
        if (lo > hi) {
          return Status::InvalidArgument(
              "SQL: BETWEEN bounds select an empty range");
        }
        pred = OrdinalRange{lo, hi};
      } else if (Peek().type == TokenType::kSymbol) {
        const std::string op = Advance().text;
        CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t v,
                                    ResolveMember(attr, Advance()));
        if (op == "=") {
          pred = OrdinalRange{v, v};
        } else if (op == ">=") {
          pred = OrdinalRange{v, card - 1};
        } else if (op == "<=") {
          pred = OrdinalRange{0, v};
        } else if (op == ">") {
          if (v + 1 >= card) {
            return Status::InvalidArgument(
                "SQL: '> last-member' selects nothing");
          }
          pred = OrdinalRange{v + 1, card - 1};
        } else if (op == "<") {
          if (v == 0) {
            return Status::InvalidArgument(
                "SQL: '< first-member' selects nothing");
          }
          pred = OrdinalRange{0, v - 1};
        } else {
          return Status::InvalidArgument("SQL: unsupported operator '" + op +
                                         "'");
        }
      } else {
        return Status::InvalidArgument("SQL: expected operator at offset " +
                                       std::to_string(Peek().pos));
      }
      auto [it, first] = constraints_.try_emplace(
          attr.dim * 64 + attr.level, RangeConstraint{attr, pred});
      if (!first) {
        OrdinalRange& r = it->second.range;
        r = OrdinalRange{std::max(r.begin, pred.begin),
                         std::min(r.end, pred.end)};
      }
      if (PeekKeyword("AND")) {
        Advance();
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Status ParseGroupBy() {
    while (true) {
      CHUNKCACHE_ASSIGN_OR_RETURN(Attr attr, ParseAttr());
      group_by_.push_back(attr);
      if (Peek().type == TokenType::kSymbol && Peek().text == ",") {
        Advance();
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Result<StarJoinQuery> Bind() {
    StarJoinQuery q;
    q.group_by.num_dims = schema_->num_dims();
    for (const Attr& g : group_by_) {
      if (q.group_by.levels[g.dim] != 0 &&
          q.group_by.levels[g.dim] != g.level) {
        return Status::InvalidArgument(
            "SQL: dimension grouped at two levels");
      }
      q.group_by.levels[g.dim] = static_cast<uint8_t>(g.level);
    }
    // Every non-aggregate select item must be grouped.
    for (const Attr& s : select_attrs_) {
      if (q.group_by.levels[s.dim] != s.level) {
        return Status::InvalidArgument(
            "SQL: select item not in GROUP BY");
      }
    }
    // Default selections: the full level.
    for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      const uint32_t level = q.group_by.levels[d];
      q.selection[d] =
          OrdinalRange{0, level == 0 ? 0 : h.LevelCardinality(level) - 1};
    }
    // Distribute predicates: group-by level -> selection; otherwise ->
    // non-group-by predicate (the paper's pre-aggregation filter).
    for (const auto& [key, c] : constraints_) {
      if (c.range.begin > c.range.end) {
        return Status::InvalidArgument(
            "SQL: predicate selects an empty range");
      }
      if (c.attr.level == q.group_by.levels[c.attr.dim]) {
        q.selection[c.attr.dim] = c.range;
      } else {
        q.non_group_by.push_back(
            NonGroupByPredicate{c.attr.dim, c.attr.level, c.range});
      }
    }
    // Canonical order for deterministic filter hashing and comparison.
    std::sort(q.non_group_by.begin(), q.non_group_by.end(),
              [](const NonGroupByPredicate& a, const NonGroupByPredicate& b) {
                return a.dim != b.dim ? a.dim < b.dim : a.level < b.level;
              });
    return q;
  }

  const schema::StarSchema* schema_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  bool has_aggregate_ = false;
  std::vector<Attr> select_attrs_;
  std::vector<Attr> group_by_;
  // dim*64+level -> accumulated range constraint.
  std::unordered_map<uint32_t, RangeConstraint> constraints_;
};

}  // namespace

Result<StarJoinQuery> SqlParser::Parse(const std::string& text) const {
  CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  ParserImpl impl(schema_, std::move(tokens));
  return impl.Run();
}

std::string ToSql(const schema::StarSchema& schema,
                  const StarJoinQuery& query) {
  std::string sel, where, group;
  for (uint32_t d = 0; d < schema.num_dims(); ++d) {
    const uint32_t level = query.group_by.levels[d];
    if (level == 0) continue;
    const auto& dim = schema.dimension(d);
    const std::string attr = dim.name + "." + dim.hierarchy.LevelName(level);
    if (!sel.empty()) sel += ", ";
    sel += attr;
    if (!group.empty()) group += ", ";
    group += attr;
    const auto& r = query.selection[d];
    if (r.begin != 0 || r.end + 1 != dim.hierarchy.LevelCardinality(level)) {
      if (!where.empty()) where += " AND ";
      where += attr + " BETWEEN '" + dim.hierarchy.MemberName(level, r.begin) +
               "' AND '" + dim.hierarchy.MemberName(level, r.end) + "'";
    }
  }
  for (const auto& p : query.non_group_by) {
    const auto& dim = schema.dimension(p.dim);
    const std::string attr = dim.name + "." + dim.hierarchy.LevelName(p.level);
    if (!where.empty()) where += " AND ";
    where += attr + " BETWEEN '" +
             dim.hierarchy.MemberName(p.level, p.range.begin) + "' AND '" +
             dim.hierarchy.MemberName(p.level, p.range.end) + "'";
  }
  std::string out = "SELECT ";
  if (!sel.empty()) out += sel + ", ";
  out += "SUM(" + schema.measure_name() + ") FROM " + schema.fact_name();
  for (uint32_t d = 0; d < schema.num_dims(); ++d) {
    if (query.group_by.levels[d] != 0) out += ", " + schema.dimension(d).name;
  }
  if (!where.empty()) out += " WHERE " + where;
  out += " GROUP BY " + (group.empty() ? sel : group);
  return out;
}

}  // namespace chunkcache::sql
