package sqlparser

import (
	"fmt"
	"strings"

	"dualtable/internal/datum"
)

// Statement is any parsed SQL statement. String renders canonical SQL
// that re-parses to an equivalent statement (used by property tests
// and by the DualTable planner when it rewrites UPDATE/DELETE into
// INSERT OVERWRITE).
type Statement interface {
	String() string
	stmtNode()
}

// Expr is any scalar expression.
type Expr interface {
	String() string
	exprNode()
}

// ---- Expressions ----

// Literal is a constant value.
type Literal struct{ Value datum.Datum }

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Star is the * select item (optionally qualified: t.*).
type Star struct{ Table string }

// BinaryExpr applies an infix operator. Op is the upper-case lexeme:
// + - * / % = != < <= > >= AND OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies a prefix operator: - or NOT.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall invokes a builtin or aggregate: COUNT, SUM, AVG, MIN, MAX,
// IF, COALESCE, CONCAT, SUBSTR, ABS, ROUND, LENGTH, LOWER, UPPER.
type FuncCall struct {
	Name     string // upper-case
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// WhenClause is one WHEN cond THEN value arm of a CASE.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr // may be nil
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is x [NOT] IN (list...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

// SubqueryExpr is a scalar subquery: (SELECT ...). The engine
// evaluates it per row with correlation bindings.
type SubqueryExpr struct{ Select *SelectStmt }

// CastExpr is CAST(x AS TYPE).
type CastExpr struct {
	X    Expr
	Type string // upper-case SQL type name
}

// Placeholder is a positional '?' parameter of a prepared statement.
// Idx is the zero-based position assigned in parse order; Bind
// replaces the node with the corresponding argument literal.
type Placeholder struct{ Idx int }

func (*Literal) exprNode()      {}
func (*ColumnRef) exprNode()    {}
func (*Star) exprNode()         {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*CaseExpr) exprNode()     {}
func (*IsNullExpr) exprNode()   {}
func (*InExpr) exprNode()       {}
func (*BetweenExpr) exprNode()  {}
func (*LikeExpr) exprNode()     {}
func (*SubqueryExpr) exprNode() {}
func (*CastExpr) exprNode()     {}
func (*Placeholder) exprNode()  {}

func (e *Literal) String() string { return e.Value.SQLLiteral() }

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return ident(e.Table) + "." + ident(e.Name)
	}
	return ident(e.Name)
}

// ident prints a name so that it lexes back as one identifier: bare
// when it is a plain name and no keyword, in backquotes otherwise.
func ident(name string) string {
	plain := name != "" && keyword(name) == ""
	for i, r := range name {
		// An invalid byte ranges as utf8.RuneError, which is no letter.
		plain = plain && isIdentPart(r) && (i > 0 || isIdentStart(r))
	}
	if plain {
		return name
	}
	return "`" + name + "`"
}

func (e *Star) String() string {
	if e.Table != "" {
		return ident(e.Table) + ".*"
	}
	return "*"
}

func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", e.X)
	}
	return fmt.Sprintf("(%s%s)", e.Op, e.X)
}

func (e *FuncCall) String() string {
	name := e.Name
	if name != "IF" || len(e.Args) != 3 || e.Distinct { // IF(c, a, b) is the keyword form
		name = ident(name)
	}
	if e.Star {
		return name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", name, d, strings.Join(args, ", "))
}

func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteString(" " + e.Operand.String())
	}
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

func (e *IsNullExpr) String() string {
	if e.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	not := ""
	if e.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", e.X, not, strings.Join(items, ", "))
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", e.X, not, e.Lo, e.Hi)
}

func (e *LikeExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sLIKE %s)", e.X, not, e.Pattern)
}

func (e *SubqueryExpr) String() string { return "(" + e.Select.String() + ")" }

func (e *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", e.X, e.Type)
}

func (e *Placeholder) String() string { return "?" }

// ---- Table references ----

// TableRef is a FROM-clause source.
type TableRef interface {
	String() string
	tableRefNode()
}

// TableName references a named table with an optional alias and an
// optional time-travel clause (t [alias] AS OF EPOCH n): AsOf is nil
// for a current read, a *Literal (or a *Placeholder until bound) whose
// non-negative integer value names the manifest epoch to scan.
type TableName struct {
	Name  string
	Alias string
	AsOf  Expr
}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

// JoinType enumerates join kinds.
type JoinType uint8

// Join kinds.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

// String names the join type in SQL.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT OUTER JOIN"
	case JoinRight:
		return "RIGHT OUTER JOIN"
	case JoinFull:
		return "FULL OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinRef combines two table refs.
type JoinRef struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr // nil for CROSS
}

func (*TableName) tableRefNode()   {}
func (*SubqueryRef) tableRefNode() {}
func (*JoinRef) tableRefNode()     {}

func (t *TableName) String() string {
	s := ident(t.Name)
	if t.Alias != "" {
		s += " " + ident(t.Alias)
	}
	if t.AsOf != nil {
		s += " AS OF EPOCH " + t.AsOf.String()
	}
	return s
}

func (t *SubqueryRef) String() string {
	return "(" + t.Select.String() + ") " + ident(t.Alias)
}

func (t *JoinRef) String() string {
	s := fmt.Sprintf("%s %s %s", t.Left, t.Type, t.Right)
	if t.On != nil {
		s += " ON " + t.On.String()
	}
	return s
}

// ---- Statements ----

// SelectItem is one projection: expression with optional alias, or *.
type SelectItem struct {
	Expr  Expr // may be *Star
	Alias string
}

func (it SelectItem) String() string {
	if it.Alias != "" {
		return it.Expr.String() + " AS " + ident(it.Alias)
	}
	return it.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String() + " ASC"
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil: SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
	// LimitExpr carries a parameterized LIMIT: a Placeholder when the
	// statement text says LIMIT ?, the bound Literal after
	// BindStatement. nil when the LIMIT is a literal count (Limit) or
	// absent.
	LimitExpr Expr
}

// EffectiveLimit resolves the LIMIT clause to a row count: the
// literal count, the bound placeholder's value, or -1 when no LIMIT
// was given. An unbound placeholder or a bound value that is not a
// non-negative integer is an error.
func (s *SelectStmt) EffectiveLimit() (int64, error) {
	if s.LimitExpr == nil {
		return s.Limit, nil
	}
	lit, ok := s.LimitExpr.(*Literal)
	if !ok {
		return 0, fmt.Errorf("sql: LIMIT parameter is not bound")
	}
	if lit.Value.K != datum.KindInt || lit.Value.I < 0 {
		return 0, fmt.Errorf("sql: LIMIT must be a non-negative integer, got %s", lit.Value.SQLLiteral())
	}
	return lit.Value.I, nil
}

// InsertStmt is INSERT INTO/OVERWRITE TABLE t [SELECT ...|VALUES ...].
type InsertStmt struct {
	Overwrite bool
	Table     string
	Select    *SelectStmt // either Select or Rows
	Rows      [][]Expr    // VALUES lists
}

// SetClause is one col = expr assignment of an UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is the paper's UPDATE extension to HiveQL.
type UpdateStmt struct {
	Table string
	Alias string
	Sets  []SetClause
	Where Expr
}

// DeleteStmt is the paper's DELETE extension to HiveQL.
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string // upper-case SQL type
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	IfNotExists bool
	Name        string
	Columns     []ColumnDef
	StoredAs    string // ORC | DUALTABLE | HBASE | TEXTFILE (default ORC)
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	IfExists bool
	Name     string
}

// LoadStmt is LOAD DATA INPATH 'path' [OVERWRITE] INTO TABLE t.
type LoadStmt struct {
	Path      string
	Overwrite bool
	Table     string
}

// CompactStmt is the DualTable COMPACT TABLE t operation (§III-C).
type CompactStmt struct{ Table string }

// SetStmt is SET key = value (a session setting assignment) or a bare
// SET, which lists the session's current settings.
type SetStmt struct {
	Key   string // lower-cased dotted name; empty = list settings
	Value string
}

// ShowTablesStmt is SHOW TABLES.
type ShowTablesStmt struct{}

// DescribeStmt is DESCRIBE t.
type DescribeStmt struct{ Table string }

// ExplainStmt wraps another statement.
type ExplainStmt struct{ Stmt Statement }

func (*SelectStmt) stmtNode()      {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*CreateTableStmt) stmtNode() {}
func (*DropTableStmt) stmtNode()   {}
func (*LoadStmt) stmtNode()        {}
func (*CompactStmt) stmtNode()     {}
func (*SetStmt) stmtNode()         {}
func (*ShowTablesStmt) stmtNode()  {}
func (*DescribeStmt) stmtNode()    {}
func (*ExplainStmt) stmtNode()     {}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.String()
	}
	sb.WriteString(strings.Join(items, ", "))
	if s.From != nil {
		sb.WriteString(" FROM " + s.From.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(keys, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.String()
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if s.LimitExpr != nil {
		sb.WriteString(" LIMIT " + s.LimitExpr.String())
	} else if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

func (s *InsertStmt) String() string {
	kw := "INTO"
	if s.Overwrite {
		kw = "OVERWRITE"
	}
	if s.Select != nil {
		return fmt.Sprintf("INSERT %s TABLE %s %s", kw, ident(s.Table), s.Select)
	}
	rows := make([]string, len(s.Rows))
	for i, r := range s.Rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		rows[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	return fmt.Sprintf("INSERT %s TABLE %s VALUES %s", kw, ident(s.Table), strings.Join(rows, ", "))
}

func (s *UpdateStmt) String() string {
	sets := make([]string, len(s.Sets))
	for i, c := range s.Sets {
		sets[i] = fmt.Sprintf("%s = %s", ident(c.Column), c.Value)
	}
	out := "UPDATE " + ident(s.Table)
	if s.Alias != "" {
		out += " " + ident(s.Alias)
	}
	out += " SET " + strings.Join(sets, ", ")
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + ident(s.Table)
	if s.Alias != "" {
		out += " " + ident(s.Alias)
	}
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

func (s *CreateTableStmt) String() string {
	cols := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = ident(c.Name) + " " + ident(c.Type)
	}
	ine := ""
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	out := fmt.Sprintf("CREATE TABLE %s%s (%s)", ine, ident(s.Name), strings.Join(cols, ", "))
	if s.StoredAs != "" {
		out += " STORED AS " + ident(s.StoredAs)
	}
	return out
}

func (s *DropTableStmt) String() string {
	ie := ""
	if s.IfExists {
		ie = "IF EXISTS "
	}
	return "DROP TABLE " + ie + ident(s.Name)
}

func (s *LoadStmt) String() string {
	ow := ""
	if s.Overwrite {
		ow = "OVERWRITE "
	}
	return fmt.Sprintf("LOAD DATA INPATH %s %sINTO TABLE %s", datum.String_(s.Path).SQLLiteral(), ow, ident(s.Table))
}

func (s *CompactStmt) String() string { return "COMPACT TABLE " + ident(s.Table) }

func (s *SetStmt) String() string {
	if s.Key == "" {
		return "SET"
	}
	parts := strings.Split(s.Key, ".")
	for i, part := range parts {
		parts[i] = ident(part)
	}
	return "SET " + strings.Join(parts, ".") + " = " + datum.String_(s.Value).SQLLiteral()
}
func (s *ShowTablesStmt) String() string { return "SHOW TABLES" }
func (s *DescribeStmt) String() string   { return "DESCRIBE " + ident(s.Table) }
func (s *ExplainStmt) String() string    { return "EXPLAIN " + s.Stmt.String() }
