#ifndef ORQ_TPCH_TPCH_QUERIES_H_
#define ORQ_TPCH_TPCH_QUERIES_H_

#include <string>
#include <vector>

namespace orq {

/// One benchmark query, expressed in the SQL subset this library parses.
/// Queries follow the TPC-H definitions with small adaptations documented
/// in `notes` (e.g. Q22's substring() replaced by nation-key codes, date
/// intervals pre-computed).
struct TpchQuery {
  std::string id;      // "Q2", "Q17", ...
  std::string title;
  std::string sql;
  std::string notes;
  bool has_subquery = false;
};

/// The evaluation query set: every TPC-H query exercising subqueries
/// and/or aggregation that the paper's techniques apply to, plus Q1 as an
/// aggregation-only baseline.
const std::vector<TpchQuery>& TpchQuerySet();

/// Lookup by id ("Q17"); nullptr for an id outside TpchQuerySet().
const TpchQuery* GetTpchQuery(const std::string& id);

}  // namespace orq

#endif  // ORQ_TPCH_TPCH_QUERIES_H_
