#ifndef CHUNKCACHE_SQL_PARSER_H_
#define CHUNKCACHE_SQL_PARSER_H_

#include <string>

#include "backend/star_join_query.h"
#include "common/status.h"
#include "schema/star_schema.h"

namespace chunkcache::sql {

/// Parses the paper's star-join SQL template (Section 5.2.1) against a
/// StarSchema and produces a normalized StarJoinQuery:
///
///   SELECT D0.L2, D2.L1, SUM(dollar_sales)
///   FROM Sales, D0, D2
///   WHERE D0.L2 BETWEEN 'D0.2.7' AND 'D0.2.33'
///     AND D2.L1 = 'D2.1.3'
///     AND D3.L2 >= 'D3.2.0' AND D3.L2 <= 'D3.2.24'
///   GROUP BY D0.L2, D2.L1
///
/// Rules (mirroring the paper's analysis):
///  - attributes are written `<dimension>.<level-name>`;
///  - values are quoted member names, resolved through the Domain Index;
///  - a predicate on a dimension's group-by level becomes the query's
///    selection range on that dimension;
///  - a predicate on any other level becomes a non-group-by predicate
///    (which restricts cache reuse to exact matches);
///  - grouped dimensions without predicates select their full level;
///  - every non-aggregate SELECT item must appear in GROUP BY, and the
///    select list needs at least one aggregate: SUM, MIN, MAX or AVG of
///    the measure, or COUNT(*). Which ones it names does not change the
///    query: every result row carries its cell's sum, count, min and max,
///    and AVG is sum / count.
///
/// Supported predicate forms: `=`, `BETWEEN x AND y`, `>=`, `<=`, `>` and
/// `<`. Each selects one range, and the predicates on one attribute
/// intersect to one range: the paper's range and point selections
/// (Section 5.2.2).
class SqlParser {
 public:
  explicit SqlParser(const schema::StarSchema* schema) : schema_(schema) {}

  /// Parses `text` into a StarJoinQuery.
  Result<backend::StarJoinQuery> Parse(const std::string& text) const;

 private:
  const schema::StarSchema* schema_;
};

/// Renders a StarJoinQuery back to SQL text (useful for logging and for
/// round-trip tests). Member names come from the Domain Index.
std::string ToSql(const schema::StarSchema& schema,
                  const backend::StarJoinQuery& query);

}  // namespace chunkcache::sql

#endif  // CHUNKCACHE_SQL_PARSER_H_
