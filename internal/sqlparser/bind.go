package sqlparser

import (
	"fmt"

	"dualtable/internal/datum"
)

// MapChildren returns a copy of e with f applied to each non-nil child
// expression, one level deep; e itself is never mutated. Leaves
// (Literal, ColumnRef, Star, Placeholder) and subqueries — whose select
// is a statement, not a child expression — are returned as they are.
// It is the one place that knows each node's children by field.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	m := func(c Expr) Expr {
		if c == nil {
			return nil
		}
		return f(c)
	}
	list := func(xs []Expr) []Expr {
		var out []Expr
		for _, x := range xs {
			out = append(out, m(x))
		}
		return out
	}
	switch v := e.(type) {
	case *BinaryExpr:
		return &BinaryExpr{Op: v.Op, L: m(v.L), R: m(v.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: v.Op, X: m(v.X)}
	case *FuncCall:
		return &FuncCall{Name: v.Name, Args: list(v.Args), Star: v.Star, Distinct: v.Distinct}
	case *CaseExpr:
		out := &CaseExpr{Operand: m(v.Operand), Else: m(v.Else)}
		for _, w := range v.Whens {
			out.Whens = append(out.Whens, WhenClause{Cond: m(w.Cond), Then: m(w.Then)})
		}
		return out
	case *IsNullExpr:
		return &IsNullExpr{X: m(v.X), Not: v.Not}
	case *InExpr:
		return &InExpr{X: m(v.X), List: list(v.List), Not: v.Not}
	case *BetweenExpr:
		return &BetweenExpr{X: m(v.X), Lo: m(v.Lo), Hi: m(v.Hi), Not: v.Not}
	case *LikeExpr:
		return &LikeExpr{X: m(v.X), Pattern: m(v.Pattern), Not: v.Not}
	case *CastExpr:
		return &CastExpr{X: m(v.X), Type: v.Type}
	default:
		return e
	}
}

// RewriteExpr rebuilds an expression bottom-up, applying fn to every
// node of the (new) tree. The input tree is never mutated, so a cached
// AST can be rewritten concurrently by many sessions. Subquery selects
// are rewritten too.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if sq, ok := e.(*SubqueryExpr); ok {
		return fn(&SubqueryExpr{Select: rewriteSelect(sq.Select, fn)})
	}
	if e == nil {
		return nil
	}
	return fn(MapChildren(e, func(c Expr) Expr { return RewriteExpr(c, fn) }))
}

func rewriteSelect(s *SelectStmt, fn func(Expr) Expr) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{Distinct: s.Distinct, Limit: s.Limit,
		LimitExpr: RewriteExpr(s.LimitExpr, fn)}
	for _, it := range s.Items {
		out.Items = append(out.Items, SelectItem{Expr: RewriteExpr(it.Expr, fn), Alias: it.Alias})
	}
	out.From = rewriteTableRef(s.From, fn)
	out.Where = RewriteExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, RewriteExpr(g, fn))
	}
	out.Having = RewriteExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: RewriteExpr(o.Expr, fn), Desc: o.Desc})
	}
	return out
}

func rewriteTableRef(t TableRef, fn func(Expr) Expr) TableRef {
	switch v := t.(type) {
	case nil:
		return nil
	case *TableName:
		cp := *v
		cp.AsOf = RewriteExpr(v.AsOf, fn)
		return &cp
	case *SubqueryRef:
		return &SubqueryRef{Select: rewriteSelect(v.Select, fn), Alias: v.Alias}
	case *JoinRef:
		return &JoinRef{Type: v.Type,
			Left:  rewriteTableRef(v.Left, fn),
			Right: rewriteTableRef(v.Right, fn),
			On:    RewriteExpr(v.On, fn)}
	default:
		return t
	}
}

// RewriteStatement rebuilds a statement with fn applied to every
// expression node, leaving the original untouched. Statements without
// expressions are returned as-is.
func RewriteStatement(stmt Statement, fn func(Expr) Expr) Statement {
	switch s := stmt.(type) {
	case *SelectStmt:
		return rewriteSelect(s, fn)
	case *InsertStmt:
		out := &InsertStmt{Overwrite: s.Overwrite, Table: s.Table, Select: rewriteSelect(s.Select, fn)}
		for _, row := range s.Rows {
			nr := make([]Expr, len(row))
			for i, x := range row {
				nr[i] = RewriteExpr(x, fn)
			}
			out.Rows = append(out.Rows, nr)
		}
		return out
	case *UpdateStmt:
		out := &UpdateStmt{Table: s.Table, Alias: s.Alias, Where: RewriteExpr(s.Where, fn)}
		for _, set := range s.Sets {
			out.Sets = append(out.Sets, SetClause{Column: set.Column, Value: RewriteExpr(set.Value, fn)})
		}
		return out
	case *DeleteStmt:
		return &DeleteStmt{Table: s.Table, Alias: s.Alias, Where: RewriteExpr(s.Where, fn)}
	case *ExplainStmt:
		return &ExplainStmt{Stmt: RewriteStatement(s.Stmt, fn)}
	default:
		return stmt
	}
}

// BindStatement returns a copy of a statement with every '?'
// placeholder replaced by its argument's literal; numParams is the
// statement's placeholder count, as ParseParams returns it. The input
// statement is not modified, so a cached plan can be bound by
// concurrent sessions. A statement without placeholders is returned
// as it is.
func BindStatement(stmt Statement, numParams int, args []datum.Datum) (Statement, error) {
	if numParams != len(args) {
		return nil, fmt.Errorf("sql: statement has %d placeholder(s), got %d argument(s)", numParams, len(args))
	}
	if numParams == 0 {
		return stmt, nil
	}
	return RewriteStatement(stmt, func(e Expr) Expr {
		if ph, ok := e.(*Placeholder); ok {
			return &Literal{Value: args[ph.Idx]}
		}
		return e
	}), nil
}
