#include "algebra/rel_expr.h"

namespace orq {

std::string JoinKindName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner: return "Join";
    case JoinKind::kLeftOuter: return "LeftOuterJoin";
    case JoinKind::kLeftSemi: return "SemiJoin";
    case JoinKind::kLeftAnti: return "AntiJoin";
    case JoinKind::kCross: return "CrossJoin";
  }
  return "?";
}

std::string ApplyKindName(ApplyKind kind) {
  switch (kind) {
    case ApplyKind::kCross: return "Apply";
    case ApplyKind::kOuter: return "OuterApply";
    case ApplyKind::kSemi: return "SemiApply";
    case ApplyKind::kAnti: return "AntiApply";
  }
  return "?";
}

std::string AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar: return "count(*)";
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kMax1Row: return "max1row";
  }
  return "?";
}

bool AggNullOnEmpty(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return false;
    default:
      return true;
  }
}

std::vector<ColumnId> RelExpr::OutputColumns() const {
  switch (kind) {
    case RelKind::kGet:
      return get_cols;
    case RelKind::kSelect:
    case RelKind::kMax1row:
    case RelKind::kSort:
      return children[0]->OutputColumns();
    case RelKind::kProject: {
      std::vector<ColumnId> out;
      for (ColumnId id : children[0]->OutputColumns()) {
        if (passthrough.Contains(id)) out.push_back(id);
      }
      for (const ProjectItem& item : proj_items) out.push_back(item.output);
      return out;
    }
    case RelKind::kJoin: {
      std::vector<ColumnId> out = children[0]->OutputColumns();
      if (join_kind != JoinKind::kLeftSemi &&
          join_kind != JoinKind::kLeftAnti) {
        std::vector<ColumnId> right = children[1]->OutputColumns();
        out.insert(out.end(), right.begin(), right.end());
      }
      return out;
    }
    case RelKind::kApply: {
      std::vector<ColumnId> out = children[0]->OutputColumns();
      if (apply_kind == ApplyKind::kCross || apply_kind == ApplyKind::kOuter) {
        std::vector<ColumnId> right = children[1]->OutputColumns();
        out.insert(out.end(), right.begin(), right.end());
      }
      return out;
    }
    case RelKind::kGroupBy:
    case RelKind::kLocalGroupBy: {
      std::vector<ColumnId> out;
      // Group columns in child output order for determinism.
      for (ColumnId id : children[0]->OutputColumns()) {
        if (group_cols.Contains(id)) out.push_back(id);
      }
      for (const AggItem& agg : aggs) out.push_back(agg.output);
      return out;
    }
    case RelKind::kSegmentApply: {
      // R SA_A E = ∪_a ({a} × E(σ_{A=a} R)): the segment key plus the
      // inner expression's columns.
      std::vector<ColumnId> out;
      for (ColumnId id : children[0]->OutputColumns()) {
        if (segment_cols.Contains(id)) out.push_back(id);
      }
      std::vector<ColumnId> inner = children[1]->OutputColumns();
      out.insert(out.end(), inner.begin(), inner.end());
      return out;
    }
    case RelKind::kSegmentRef:
      return segment_out_cols;
    case RelKind::kUnionAll:
    case RelKind::kExceptAll:
      return out_cols;
    case RelKind::kSingleRow:
      return {};
  }
  return {};
}

namespace {

RelExprPtr NewNode(RelKind kind, std::vector<RelExprPtr> children) {
  auto node = std::make_shared<RelExpr>();
  node->kind = kind;
  node->children = std::move(children);
  return node;
}

}  // namespace

RelExprPtr MakeGet(const Table* table, std::vector<ColumnId> cols) {
  auto node = NewNode(RelKind::kGet, {});
  node->table = table;
  node->get_ordinals.resize(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    node->get_ordinals[i] = static_cast<int>(i);
  }
  node->get_cols = std::move(cols);
  return node;
}

RelExprPtr MakeSelect(RelExprPtr child, ScalarExprPtr predicate) {
  auto node = NewNode(RelKind::kSelect, {std::move(child)});
  node->predicate = std::move(predicate);
  return node;
}

RelExprPtr MakeProject(RelExprPtr child, std::vector<ProjectItem> items,
                       ColumnSet passthrough) {
  auto node = NewNode(RelKind::kProject, {std::move(child)});
  node->proj_items = std::move(items);
  node->passthrough = std::move(passthrough);
  return node;
}

RelExprPtr MakeJoin(JoinKind kind, RelExprPtr left, RelExprPtr right,
                    ScalarExprPtr predicate) {
  auto node = NewNode(RelKind::kJoin, {std::move(left), std::move(right)});
  node->join_kind = kind;
  node->predicate = predicate ? std::move(predicate) : TrueLiteral();
  return node;
}

RelExprPtr MakeApply(ApplyKind kind, RelExprPtr left, RelExprPtr right) {
  auto node = NewNode(RelKind::kApply, {std::move(left), std::move(right)});
  node->apply_kind = kind;
  return node;
}

RelExprPtr MakeGroupBy(RelExprPtr child, ColumnSet group_cols,
                       std::vector<AggItem> aggs) {
  auto node = NewNode(RelKind::kGroupBy, {std::move(child)});
  node->group_cols = std::move(group_cols);
  node->aggs = std::move(aggs);
  node->scalar_agg = false;
  return node;
}

RelExprPtr MakeScalarGroupBy(RelExprPtr child, std::vector<AggItem> aggs) {
  auto node = NewNode(RelKind::kGroupBy, {std::move(child)});
  node->aggs = std::move(aggs);
  node->scalar_agg = true;
  return node;
}

RelExprPtr MakeLocalGroupBy(RelExprPtr child, ColumnSet group_cols,
                            std::vector<AggItem> aggs) {
  auto node = NewNode(RelKind::kLocalGroupBy, {std::move(child)});
  node->group_cols = std::move(group_cols);
  node->aggs = std::move(aggs);
  return node;
}

RelExprPtr MakeSegmentApply(RelExprPtr input, RelExprPtr inner,
                            ColumnSet segment_cols,
                            std::vector<ColumnId> segment_out_cols) {
  auto node =
      NewNode(RelKind::kSegmentApply, {std::move(input), std::move(inner)});
  node->segment_cols = std::move(segment_cols);
  node->segment_out_cols = std::move(segment_out_cols);
  return node;
}

RelExprPtr MakeSegmentRef(std::vector<ColumnId> cols) {
  auto node = NewNode(RelKind::kSegmentRef, {});
  node->segment_out_cols = std::move(cols);
  return node;
}

RelExprPtr MakeMax1row(RelExprPtr child) {
  return NewNode(RelKind::kMax1row, {std::move(child)});
}

RelExprPtr MakeUnionAll(std::vector<RelExprPtr> children,
                        std::vector<ColumnId> out_cols,
                        std::vector<std::vector<ColumnId>> input_maps) {
  auto node = NewNode(RelKind::kUnionAll, std::move(children));
  node->out_cols = std::move(out_cols);
  node->input_maps = std::move(input_maps);
  return node;
}

RelExprPtr MakeExceptAll(RelExprPtr left, RelExprPtr right,
                         std::vector<ColumnId> out_cols,
                         std::vector<std::vector<ColumnId>> input_maps) {
  auto node =
      NewNode(RelKind::kExceptAll, {std::move(left), std::move(right)});
  node->out_cols = std::move(out_cols);
  node->input_maps = std::move(input_maps);
  return node;
}

RelExprPtr MakeSort(RelExprPtr child, std::vector<SortKey> keys,
                    int64_t limit) {
  auto node = NewNode(RelKind::kSort, {std::move(child)});
  node->sort_keys = std::move(keys);
  node->limit = limit;
  return node;
}

RelExprPtr MakeSingleRow() { return NewNode(RelKind::kSingleRow, {}); }

RelExprPtr CloneWithChildren(const RelExpr& node,
                             std::vector<RelExprPtr> children) {
  auto clone = std::make_shared<RelExpr>(node);
  clone->children = std::move(children);
  return clone;
}

RelExprPtr WithChildren(const RelExprPtr& node,
                        std::vector<RelExprPtr> children) {
  if (children == node->children) return node;
  return CloneWithChildren(*node, std::move(children));
}

}  // namespace orq
