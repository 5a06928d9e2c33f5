#include "normalize/apply_removal.h"

#include <map>

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "obs/trace.h"

namespace orq {

namespace {

JoinKind ApplyToJoinKind(ApplyKind kind) {
  switch (kind) {
    case ApplyKind::kCross: return JoinKind::kInner;
    case ApplyKind::kOuter: return JoinKind::kLeftOuter;
    case ApplyKind::kSemi: return JoinKind::kLeftSemi;
    case ApplyKind::kAnti: return JoinKind::kLeftAnti;
  }
  return JoinKind::kInner;
}

/// Exactly one row, statically (scalar aggregates and friends).
bool ExactlyOneRow(const RelExpr& expr) {
  switch (expr.kind) {
    case RelKind::kGroupBy: return expr.scalar_agg;
    case RelKind::kSingleRow: return true;
    case RelKind::kProject: return ExactlyOneRow(*expr.children[0]);
    default: return false;
  }
}

class ApplyRemover {
 public:
  ApplyRemover(ColumnManager* columns, const NormalizerOptions& options)
      : columns_(columns), options_(options) {}

  Result<RelExprPtr> Rewrite(const RelExprPtr& node) {
    std::vector<RelExprPtr> children;
    for (const RelExprPtr& child : node->children) {
      ORQ_ASSIGN_OR_RETURN(RelExprPtr rewritten, Rewrite(child));
      children.push_back(std::move(rewritten));
    }
    RelExprPtr current = WithChildren(node, std::move(children));
    // Merge stacked selections so identity (2) sees one predicate.
    if (current->kind == RelKind::kSelect &&
        current->children[0]->kind == RelKind::kSelect) {
      const RelExprPtr& child = current->children[0];
      current = MakeSelect(child->children[0],
                           MakeAnd2(current->predicate, child->predicate));
    }
    if (current->kind == RelKind::kApply) {
      return RewriteApply(current);
    }
    return current;
  }

 private:
  /// Columns of `R` that `E` references as parameters.
  static ColumnSet Params(const RelExpr& outer, const RelExpr& inner) {
    return FreeVariables(inner).Intersect(outer.OutputSet());
  }

  /// Trace shim: records that `rule` rewrote the `before` subtree into the
  /// (successful) `after` subtree, then forwards the result. Every identity
  /// application funnels its return through here.
  Result<RelExprPtr> Fired(const char* rule, const RelExprPtr& before,
                           Result<RelExprPtr> after) {
    if (options_.trace != nullptr && after.ok()) {
      options_.trace->Record(TraceEvent{
          TraceEvent::Stage::kNormalize, TraceEvent::Kind::kRule, rule,
          CountRelNodes(*before), CountRelNodes(**after), -1.0, -1.0});
    }
    return after;
  }

  /// Applies one Fig. 4 identity at `apply` and recurses; returns the apply
  /// unchanged when no rule fits (it stays correlated at execution).
  Result<RelExprPtr> RewriteApply(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& inner = apply->children[1];
    ApplyKind kind = apply->apply_kind;

    if (!options_.remove_correlations) return apply;

    // ---- identities (1) and (2): inner no longer parameterized ----
    if (inner->kind == RelKind::kSelect &&
        Params(*outer, *inner->children[0]).empty()) {
      return Fired("identity(2)", apply,
                   MakeJoin(ApplyToJoinKind(kind), outer,
                            inner->children[0], inner->predicate));
    }
    if (Params(*outer, *inner).empty()) {
      return Fired(
          "identity(1)", apply,
          MakeJoin(ApplyToJoinKind(kind), outer, inner, TrueLiteral()));
    }

    switch (kind) {
      case ApplyKind::kCross:
        return RewriteCross(apply);
      case ApplyKind::kOuter:
        return RewriteOuter(apply);
      case ApplyKind::kSemi:
      case ApplyKind::kAnti:
        return RewriteExistential(apply);
    }
    return apply;
  }

  Result<RelExprPtr> RewriteCross(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& inner = apply->children[1];
    switch (inner->kind) {
      case RelKind::kSelect: {
        // (3): hoist the selection above the apply.
        ORQ_ASSIGN_OR_RETURN(
            RelExprPtr pushed,
            RewriteApply(
                MakeApply(ApplyKind::kCross, outer, inner->children[0])));
        return Fired("identity(3)", apply,
                     MakeSelect(std::move(pushed), inner->predicate));
      }
      case RelKind::kProject: {
        // (4): hoist the projection, forwarding outer columns.
        ORQ_ASSIGN_OR_RETURN(
            RelExprPtr pushed,
            RewriteApply(
                MakeApply(ApplyKind::kCross, outer, inner->children[0])));
        return Fired(
            "identity(4)", apply,
            MakeProject(std::move(pushed), inner->proj_items,
                        inner->passthrough.Union(outer->OutputSet())));
      }
      case RelKind::kGroupBy: {
        if (!HasKeyWithin(*outer, outer->OutputSet())) return apply;
        if (inner->scalar_agg) return RewriteIdentity9(apply);
        // (8): vector GroupBy — group additionally by all outer columns.
        ORQ_ASSIGN_OR_RETURN(
            RelExprPtr pushed,
            RewriteApply(
                MakeApply(ApplyKind::kCross, outer, inner->children[0])));
        return Fired(
            "identity(8)", apply,
            MakeGroupBy(std::move(pushed),
                        inner->group_cols.Union(outer->OutputSet()),
                        inner->aggs));
      }
      case RelKind::kJoin: {
        return RewriteCrossOverJoin(apply);
      }
      case RelKind::kUnionAll:
      case RelKind::kExceptAll: {
        // (5)/(6): distribute the apply over the set operation, duplicating
        // the outer input (Class-2 territory, section 2.5).
        if (!options_.decorrelate_class2) return apply;
        return RewriteOverSetOp(apply);
      }
      case RelKind::kSort: {
        if (inner->limit >= 0) return apply;  // correlated TOP: leave
        // Row order inside a subquery is immaterial: drop the sort.
        return Fired("drop-subquery-sort", apply,
                     RewriteApply(MakeApply(ApplyKind::kCross, outer,
                                            inner->children[0])));
      }
      case RelKind::kMax1row: {
        if (MaxOneRow(*inner->children[0])) {
          return Fired("max1row-elim", apply,
                       RewriteApply(MakeApply(ApplyKind::kCross, outer,
                                              inner->children[0])));
        }
        return apply;
      }
      default:
        return apply;
    }
  }

  /// (9): R A× (G{F1} E)  =  G{cols(R), F'} (R A^LOJ E), with count(*)
  /// rewritten to count over a non-nullable inner column.
  Result<RelExprPtr> RewriteIdentity9(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& inner = apply->children[1];  // scalar GroupBy
    RelExprPtr agg_input = inner->children[0];

    std::vector<AggItem> aggs = inner->aggs;
    bool needs_count_fix = false;
    for (const AggItem& agg : aggs) {
      needs_count_fix |= agg.func == AggFunc::kCountStar;
    }
    if (needs_count_fix) {
      ColumnSet not_null = NotNullColumns(*agg_input);
      ScalarExprPtr guard;
      if (!not_null.empty()) {
        guard = CRef(*columns_, not_null.ids()[0]);
      } else {
        // Manufacture a non-nullable column (paper, footnote to (9)).
        ColumnId one = columns_->NewColumn("one", DataType::kInt64, false);
        agg_input = MakeProject(agg_input, {ProjectItem{one, LitInt(1)}},
                                agg_input->OutputSet());
        guard = CRef(one, DataType::kInt64);
      }
      for (AggItem& agg : aggs) {
        if (agg.func == AggFunc::kCountStar) {
          agg.func = AggFunc::kCount;
          agg.arg = guard;
        }
      }
    }
    ORQ_ASSIGN_OR_RETURN(
        RelExprPtr pushed,
        RewriteApply(MakeApply(ApplyKind::kOuter, outer, agg_input)));
    return Fired("identity(9)", apply,
                 MakeGroupBy(std::move(pushed), outer->OutputSet(),
                             std::move(aggs)));
  }

  /// Cross apply over an inner join: route the apply into the parameterized
  /// side(s); with both sides parameterized use identity (7) through
  /// select-over-cross-product.
  Result<RelExprPtr> RewriteCrossOverJoin(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& join = apply->children[1];
    const RelExprPtr& left = join->children[0];
    const RelExprPtr& right = join->children[1];
    bool left_param = !Params(*outer, *left).empty();
    bool right_param = !Params(*outer, *right).empty();

    if (join->join_kind == JoinKind::kLeftOuter) {
      // A×(R, E1 LOJq E2) = A×(R,E1) LOJq E2 when E2 and q only reference
      // E1/E2 columns (q referencing R is fine for the inner side of the
      // LOJ? No: q on R columns changes padding per row — keep q free of R).
      ColumnSet qrefs;
      CollectColumnRefsDeep(join->predicate, &qrefs);
      if (!right_param && !qrefs.Intersects(outer->OutputSet())) {
        ORQ_ASSIGN_OR_RETURN(
            RelExprPtr pushed,
            RewriteApply(MakeApply(ApplyKind::kCross, outer, left)));
        return Fired("apply-over-outerjoin", apply,
                     MakeJoin(JoinKind::kLeftOuter, std::move(pushed), right,
                              join->predicate));
      }
      return apply;
    }
    if (join->join_kind != JoinKind::kInner &&
        join->join_kind != JoinKind::kCross) {
      return apply;  // semi/anti joins inside the inner: leave correlated
    }

    if (!right_param && !left_param) {
      // Only the predicate is parameterized.
      ORQ_ASSIGN_OR_RETURN(
          RelExprPtr pushed,
          RewriteApply(MakeApply(ApplyKind::kCross, outer, left)));
      return Fired("apply-over-join", apply,
                   MakeJoin(JoinKind::kInner, std::move(pushed), right,
                            join->predicate));
    }
    if (!right_param) {
      ORQ_ASSIGN_OR_RETURN(
          RelExprPtr pushed,
          RewriteApply(MakeApply(ApplyKind::kCross, outer, left)));
      return Fired("apply-over-join", apply,
                   MakeJoin(JoinKind::kInner, std::move(pushed), right,
                            join->predicate));
    }
    if (!left_param) {
      ORQ_ASSIGN_OR_RETURN(
          RelExprPtr pushed,
          RewriteApply(MakeApply(ApplyKind::kCross, outer, right)));
      return Fired("apply-over-join", apply,
                   MakeJoin(JoinKind::kInner, std::move(pushed), left,
                            join->predicate));
    }
    // (7): both sides parameterized — duplicate R, join on its key.
    if (!options_.decorrelate_class2) return apply;
    std::vector<ColumnSet> keys = DeriveKeys(*outer);
    if (keys.empty()) return apply;
    const ColumnSet& key = keys[0];
    std::map<ColumnId, ColumnId> clone_map;
    RelExprPtr outer_clone = CloneRelTree(outer, columns_, &clone_map);
    RelExprPtr right_remapped = RemapRelTree(right, clone_map);
    ORQ_ASSIGN_OR_RETURN(
        RelExprPtr branch1,
        RewriteApply(MakeApply(ApplyKind::kCross, outer, left)));
    ORQ_ASSIGN_OR_RETURN(
        RelExprPtr branch2,
        RewriteApply(
            MakeApply(ApplyKind::kCross, outer_clone, right_remapped)));
    std::vector<ScalarExprPtr> key_eq;
    for (ColumnId id : key) {
      key_eq.push_back(Eq(CRef(*columns_, id),
                          CRef(*columns_, clone_map.at(id))));
    }
    RelExprPtr joined =
        MakeJoin(JoinKind::kInner, std::move(branch1), std::move(branch2),
                 MakeAnd(std::move(key_eq)));
    ScalarExprPtr join_pred = join->predicate;
    if (!IsTrueLiteral(join_pred)) {
      joined = MakeSelect(std::move(joined), join_pred);
    }
    // Drop the duplicated outer columns.
    ColumnSet keep = outer->OutputSet()
                         .Union(left->OutputSet())
                         .Union(right->OutputSet());
    return Fired("identity(7)", apply,
                 MakeProject(std::move(joined), {}, keep));
  }

  /// (5)/(6): distribute over UnionAll / ExceptAll.
  Result<RelExprPtr> RewriteOverSetOp(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& setop = apply->children[1];
    std::vector<ColumnId> outer_cols = outer->OutputColumns();

    std::vector<RelExprPtr> branches;
    std::vector<std::vector<ColumnId>> maps;
    for (size_t i = 0; i < setop->children.size(); ++i) {
      RelExprPtr branch_outer = outer;
      std::vector<ColumnId> branch_outer_cols = outer_cols;
      std::vector<ColumnId> child_map = setop->input_maps[i];
      RelExprPtr child = setop->children[i];
      if (i > 0) {
        std::map<ColumnId, ColumnId> clone_map;
        branch_outer = CloneRelTree(outer, columns_, &clone_map);
        child = RemapRelTree(child, clone_map);
        for (ColumnId& id : branch_outer_cols) id = clone_map.at(id);
        // Note: child's own defined ids are untouched (clone_map only maps
        // outer-defined ids), so child_map stays valid.
      }
      ORQ_ASSIGN_OR_RETURN(
          RelExprPtr branch,
          RewriteApply(MakeApply(ApplyKind::kCross, branch_outer, child)));
      branches.push_back(std::move(branch));
      std::vector<ColumnId> map = branch_outer_cols;
      map.insert(map.end(), child_map.begin(), child_map.end());
      maps.push_back(std::move(map));
    }
    std::vector<ColumnId> out_cols = outer_cols;  // reuse outer ids
    out_cols.insert(out_cols.end(), setop->out_cols.begin(),
                    setop->out_cols.end());
    if (setop->kind == RelKind::kUnionAll) {
      return Fired("identity(5)", apply,
                   MakeUnionAll(std::move(branches), std::move(out_cols),
                                std::move(maps)));
    }
    return Fired("identity(6)", apply,
                 MakeExceptAll(branches[0], branches[1],
                               std::move(out_cols), std::move(maps)));
  }

  Result<RelExprPtr> RewriteOuter(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& inner = apply->children[1];
    if (ExactlyOneRow(*inner)) {
      return Fired("outer-to-cross", apply,
                   RewriteApply(MakeApply(ApplyKind::kCross, outer, inner)));
    }
    if (inner->kind == RelKind::kMax1row) {
      RelExprPtr guarded = inner->children[0];
      if (MaxOneRow(*guarded)) {
        // Key information proves at most one row: drop the guard
        // (section 2.4) and keep the outer apply.
        return Fired(
            "max1row-elim", apply,
            RewriteApply(MakeApply(ApplyKind::kOuter, outer, guarded)));
      }
      // Absorb the guard into a scalar GroupBy of Max1Row aggregates so
      // identity (9) applies; the aggregate raises the run-time error when
      // a group holds more than one row.
      return Fired("max1row-absorb", apply,
                   RewriteApply(MakeApply(ApplyKind::kCross, outer,
                                          AbsorbIntoMax1RowAgg(guarded))));
    }
    if (inner->kind == RelKind::kProject) {
      // OuterApply commutes with a strict projection (NULL-padded inner
      // columns keep computing to NULL).
      ColumnSet inner_cols = inner->children[0]->OutputSet();
      bool all_strict = true;
      for (const ProjectItem& item : inner->proj_items) {
        all_strict &= ExprNullOnNull(item.expr, inner_cols);
      }
      if (all_strict) {
        ORQ_ASSIGN_OR_RETURN(
            RelExprPtr pushed,
            RewriteApply(
                MakeApply(ApplyKind::kOuter, outer, inner->children[0])));
        return Fired(
            "outerapply-project", apply,
            MakeProject(std::move(pushed), inner->proj_items,
                        inner->passthrough.Union(outer->OutputSet())));
      }
    }
    if (MaxOneRow(*inner)) {
      return Fired("max1row-absorb", apply,
                   RewriteApply(MakeApply(ApplyKind::kCross, outer,
                                          AbsorbIntoMax1RowAgg(inner))));
    }
    return apply;
  }

  /// Wraps `rel` in a scalar GroupBy computing Max1Row over each output
  /// column; output ids are reused so consumers are unaffected.
  RelExprPtr AbsorbIntoMax1RowAgg(const RelExprPtr& rel) {
    std::vector<AggItem> aggs;
    for (ColumnId id : rel->OutputColumns()) {
      aggs.push_back(
          AggItem{AggFunc::kMax1Row, CRef(*columns_, id), id, false});
    }
    return MakeScalarGroupBy(rel, std::move(aggs));
  }

  Result<RelExprPtr> RewriteExistential(const RelExprPtr& apply) {
    const RelExprPtr& outer = apply->children[0];
    const RelExprPtr& inner = apply->children[1];
    ApplyKind kind = apply->apply_kind;
    switch (inner->kind) {
      case RelKind::kProject:
      case RelKind::kMax1row:
        // Projection / guard do not affect existence.
        return Fired(
            "exists-strip-project", apply,
            RewriteApply(MakeApply(kind, outer, inner->children[0])));
      case RelKind::kGroupBy:
        if (inner->scalar_agg) {
          // Scalar aggregation always yields one row: EXISTS is TRUE.
          return Fired("exists-const", apply,
                       kind == ApplyKind::kSemi
                           ? Result<RelExprPtr>(outer)
                           : MakeSelect(outer, LitBool(false)));
        }
        // Vector GroupBy output is empty iff its input is empty.
        return Fired(
            "exists-strip-groupby", apply,
            RewriteApply(MakeApply(kind, outer, inner->children[0])));
      case RelKind::kSort: {
        if (inner->limit == 0) {
          return Fired("exists-const", apply,
                       kind == ApplyKind::kAnti
                           ? Result<RelExprPtr>(outer)
                           : MakeSelect(outer, LitBool(false)));
        }
        return Fired(
            "exists-strip-sort", apply,
            RewriteApply(MakeApply(kind, outer, inner->children[0])));
      }
      default: {
        // General fallback (section 2.4): rewrite the boolean subquery as
        // a scalar count aggregate and compare against zero.
        ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, false);
        RelExprPtr agg = MakeScalarGroupBy(
            inner, {AggItem{AggFunc::kCountStar, nullptr, cnt, false}});
        ORQ_ASSIGN_OR_RETURN(
            RelExprPtr pushed,
            RewriteApply(MakeApply(ApplyKind::kCross, outer, agg)));
        CompareOp op =
            kind == ApplyKind::kSemi ? CompareOp::kGt : CompareOp::kEq;
        RelExprPtr selected = MakeSelect(
            std::move(pushed),
            MakeCompare(op, CRef(cnt, DataType::kInt64), LitInt(0)));
        // Project away the count column to restore semijoin's output shape.
        return Fired(
            "exists-to-count", apply,
            MakeProject(std::move(selected), {}, outer->OutputSet()));
      }
    }
  }

  ColumnManager* columns_;
  const NormalizerOptions& options_;
};

}  // namespace

Result<RelExprPtr> RemoveApplies(RelExprPtr root, ColumnManager* columns,
                                 const NormalizerOptions& options) {
  ApplyRemover remover(columns, options);
  return remover.Rewrite(root);
}

}  // namespace orq
