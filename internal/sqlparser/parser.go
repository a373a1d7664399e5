package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"dualtable/internal/datum"
)

// maxNesting bounds how deep one statement may nest, counted two ways.
// p.depth counts the parser's own recursion: one per parenthesis,
// expression argument, subquery clause, derived table and EXPLAIN.
// p.peak measures the height of the tree that the printers,
// BindStatement, the walkers and the engine's compiler recurse over:
// each of those constructs except a bare parenthesis is a level, and
// each NOT, unary minus, and operator or join that extends a left-deep
// chain puts its node one level above its operands. Go cannot recover
// from a stack overflow, so a statement past the bound in either count
// fails to parse. A bare parenthesis counts only toward the first
// because the printer wraps every operator node in one: a printed
// statement thus nests no deeper than the statement it prints.
const maxNesting = 1000

// parser is a recursive-descent parser that pulls its tokens from a
// lexer. It keeps the first error it meets (see fail): from then on the
// current token reads as the end of input, so every loop ends and every
// parse method returns at once with whatever node it holds.
type parser struct {
	lex    lexer
	tok    token    // the current token
	ahead  [2]token // ahead[:n] are the tokens after tok that isAt has read
	n      int
	params int // '?' placeholders seen so far (assigns Placeholder.Idx)
	err    error
	depth  int // recursions open at the current token (see nest)
	parens int // of which bare parentheses
	peak   int // highest tree level reached (see measure)
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	stmt, _, err := ParseParams(src)
	return stmt, err
}

// ParseParams is Parse that also returns the number of '?'
// placeholders, which the parser numbers 0, 1, ... as it meets them.
func ParseParams(src string) (Statement, int, error) {
	p := newParser(src)
	stmt := p.parseStatement()
	p.accept(tokOp, ";")
	if !p.atEOF() {
		p.fail("unexpected %s after statement", p.tok)
	}
	if p.err != nil {
		return nil, 0, p.err
	}
	return stmt, p.params, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p := newParser(src)
	var out []Statement
	for {
		for p.accept(tokOp, ";") {
		}
		if p.atEOF() {
			break
		}
		out = append(out, p.parseStatement())
		if !p.accept(tokOp, ";") && !p.atEOF() {
			p.fail("expected ';' between statements, got %s", p.tok)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return out, nil
}

// newParser returns a parser whose current token is src's first.
func newParser(src string) parser {
	p := parser{lex: lexer{src: src}}
	p.setCur(p.lex.next())
	return p
}

// setCur makes t the current token. An error token fails the
// statement there: a lexical error counts where the parser reaches it.
func (p *parser) setCur(t token) {
	p.tok = t
	if t.Kind == tokErr {
		p.fail("%s", t.Text)
	}
}

func (p *parser) atEOF() bool { return p.tok.Kind == tokEOF }

// next consumes the current token and returns its text.
func (p *parser) next() string {
	text := p.tok.Text
	switch {
	case p.tok.Kind == tokEOF:
	case p.n > 0:
		t := p.ahead[0]
		p.ahead[0] = p.ahead[1]
		p.n--
		p.setCur(t)
	default:
		p.setCur(p.lex.next())
	}
	return text
}

// fail records the error at the current token, unless an earlier one
// stands: a statement reports the first error in it. From then on
// every token is the end of input.
func (p *parser) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = errorAt(p.lex.src, p.tok.Pos, fmt.Sprintf(format, args...))
		p.lex.pos = len(p.lex.src)
		p.tok, p.n = token{Kind: tokEOF, Pos: p.lex.pos}, 0
	}
}

// is reports whether the current token matches kind and (optionally)
// text.
func (p *parser) is(kind tokenKind, text string) bool {
	return p.tok.Kind == kind && (text == "" || p.tok.Text == text)
}

// isAt is is for the token off places past the current one (1 or 2),
// which it reads from the lexer when no earlier look has: past the last
// token or after a failure, the end of input.
func (p *parser) isAt(off int, kind tokenKind, text string) bool {
	for ; p.n < off; p.n++ {
		p.ahead[p.n] = p.lex.next()
	}
	t := &p.ahead[off-1]
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) isKeyword(kw string) bool { return p.is(tokKeyword, kw) }

// peekKeyword reports whether the token off places past the current
// one is the given keyword.
func (p *parser) peekKeyword(off int, kw string) bool { return p.isAt(off, tokKeyword, kw) }

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.is(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a required token and returns its text.
func (p *parser) expect(kind tokenKind, text string) string {
	if p.is(kind, text) {
		return p.next()
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	p.fail("expected %q, got %s", want, p.tok)
	return ""
}

// expectKeywords consumes a required keyword sequence.
func (p *parser) expectKeywords(kws ...string) {
	for _, kw := range kws {
		p.expect(tokKeyword, kw)
	}
}

// acceptKeywords consumes the keyword sequence kws when its first
// keyword is next; the rest must follow.
func (p *parser) acceptKeywords(kws ...string) bool {
	if !p.accept(tokKeyword, kws[0]) {
		return false
	}
	p.expectKeywords(kws[1:]...)
	return true
}

// list parses item {sep item}.
func list[T any](p *parser, sep string, item func() T) []T {
	var out []T
	for {
		out = append(out, item())
		if !p.accept(tokOp, sep) {
			return out
		}
	}
}

// parenList parses ( expr {, expr} ).
func (p *parser) parenList() []Expr {
	p.expect(tokOp, "(")
	l := list(p, ",", p.parseExpr)
	p.expect(tokOp, ")")
	return l
}

// softKeywords are context-sensitive: the lexer tokenizes them as
// keywords (the AS OF EPOCH grammar needs them), but everywhere an
// identifier is expected they still read as plain identifiers, so
// pre-existing schemas with columns or aliases named "of"/"epoch"
// keep parsing.
var softKeywords = map[string]bool{"OF": true, "EPOCH": true}

// identLike reports whether the current token can serve as an
// identifier (a real identifier or a soft keyword).
func (p *parser) identLike() bool {
	return p.tok.Kind == tokIdent || (p.tok.Kind == tokKeyword && softKeywords[p.tok.Text])
}

// expectIdent consumes an identifier (soft keywords allowed, reserved
// keywords not).
func (p *parser) expectIdent() string {
	if !p.identLike() {
		p.fail("expected identifier, got %s", p.tok)
	}
	return p.next()
}

// alias parses an optional alias: a bare name, or AS name where as is
// set.
func (p *parser) alias(as bool) string {
	if as && p.accept(tokKeyword, "AS") {
		return p.expectIdent()
	}
	if p.identLike() {
		return p.next()
	}
	return ""
}

// parseWhere parses an optional WHERE clause.
func (p *parser) parseWhere() Expr {
	if p.accept(tokKeyword, "WHERE") {
		return p.parseExpr()
	}
	return nil
}

func (p *parser) placeholder() *Placeholder {
	p.params++
	return &Placeholder{Idx: p.params - 1}
}

// natural parses a '?' placeholder or a non-negative integer; bad is
// the error format for any other number.
func (p *parser) natural(bad string) (int64, *Placeholder) {
	if p.accept(tokOp, "?") {
		return 0, p.placeholder()
	}
	text := p.expect(tokNumber, "")
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil || n < 0 {
		p.fail(bad, text)
	}
	return n, nil
}

// nest opens one recursion; the caller closes it with p.depth--.
func (p *parser) nest() {
	p.depth++
	p.reach(p.depth - p.parens)
}

// reach records that the tree has grown to level at the current token,
// and fails the statement past the bound in either count.
func (p *parser) reach(level int) {
	p.peak = max(p.peak, level)
	if level > maxNesting || p.depth > maxNesting {
		p.fail("statement nests deeper than %d levels", maxNesting)
	}
}

// measure parses an operand of a node that is built in a loop rather
// than by recursion (a left-deep chain, a run of NOTs or minus signs),
// so nest cannot count the node's level. It returns the operand and
// the highest level the operand reached.
func measure[T any](p *parser, parse func() T) (T, int) {
	outer := p.peak
	p.peak = p.depth - p.parens
	x := parse()
	h := p.peak
	p.peak = max(outer, h)
	return x, h
}

func (p *parser) parseStatement() Statement {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.accept(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.accept(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.accept(tokKeyword, "DELETE"):
		p.expect(tokKeyword, "FROM")
		return &DeleteStmt{Table: p.expectIdent(), Alias: p.alias(false), Where: p.parseWhere()}
	case p.accept(tokKeyword, "CREATE"):
		return p.parseCreateTable()
	case p.accept(tokKeyword, "DROP"):
		p.expect(tokKeyword, "TABLE")
		return &DropTableStmt{IfExists: p.acceptKeywords("IF", "EXISTS"), Name: p.expectIdent()}
	case p.accept(tokKeyword, "LOAD"):
		p.expectKeywords("DATA", "INPATH")
		stmt := &LoadStmt{Path: p.expect(tokString, ""), Overwrite: p.accept(tokKeyword, "OVERWRITE")}
		p.expectKeywords("INTO", "TABLE")
		stmt.Table = p.expectIdent()
		return stmt
	case p.accept(tokKeyword, "COMPACT"):
		p.expect(tokKeyword, "TABLE")
		return &CompactStmt{Table: p.expectIdent()}
	case p.accept(tokKeyword, "SET"):
		return p.parseSet()
	case p.accept(tokKeyword, "SHOW"):
		p.expect(tokKeyword, "TABLES")
		return &ShowTablesStmt{}
	case p.accept(tokKeyword, "DESCRIBE"):
		return &DescribeStmt{Table: p.expectIdent()}
	case p.accept(tokKeyword, "EXPLAIN"):
		p.nest()
		stmt := &ExplainStmt{Stmt: p.parseStatement()}
		p.depth--
		return stmt
	}
	p.fail("expected a statement, got %s", p.tok)
	return nil
}

func (p *parser) parseSelect() *SelectStmt {
	p.expect(tokKeyword, "SELECT")
	s := &SelectStmt{Limit: -1, Distinct: p.accept(tokKeyword, "DISTINCT")}
	if !s.Distinct {
		p.accept(tokKeyword, "ALL")
	}
	s.Items = list(p, ",", p.parseSelectItem)
	if p.accept(tokKeyword, "FROM") {
		s.From = p.parseTableRef()
	}
	s.Where = p.parseWhere()
	if p.acceptKeywords("GROUP", "BY") {
		s.GroupBy = list(p, ",", p.parseExpr)
	}
	if p.accept(tokKeyword, "HAVING") {
		s.Having = p.parseExpr()
	}
	if p.acceptKeywords("ORDER", "BY") {
		s.OrderBy = list(p, ",", p.parseOrderItem)
	}
	if p.accept(tokKeyword, "LIMIT") {
		// LIMIT takes a literal count or a '?' parameter (bound to a
		// non-negative integer at execution time).
		if n, ph := p.natural("bad LIMIT %q"); ph != nil {
			s.LimitExpr = ph
		} else {
			s.Limit = n
		}
	}
	return s
}

func (p *parser) parseSelectItem() SelectItem {
	// Bare * or qualified t.*
	if p.accept(tokOp, "*") {
		return SelectItem{Expr: &Star{}}
	}
	if p.identLike() && p.isAt(1, tokOp, ".") && p.isAt(2, tokOp, "*") {
		tab := p.next()
		p.next()
		p.next()
		return SelectItem{Expr: &Star{Table: tab}}
	}
	return SelectItem{Expr: p.parseExpr(), Alias: p.alias(true)}
}

func (p *parser) parseOrderItem() OrderItem {
	item := OrderItem{Expr: p.parseExpr(), Desc: p.accept(tokKeyword, "DESC")}
	if !item.Desc {
		p.accept(tokKeyword, "ASC")
	}
	return item
}

// joinPrefixes are the keywords that open a join before its JOIN; the
// outer joins take an optional OUTER between the two.
var joinPrefixes = map[string]JoinType{
	"INNER": JoinInner, "LEFT": JoinLeft, "RIGHT": JoinRight, "FULL": JoinFull, "CROSS": JoinCross,
}

// joinType consumes a join operator, or reports that none is next.
func (p *parser) joinType() (JoinType, bool) {
	if p.accept(tokKeyword, "JOIN") {
		return JoinInner, true
	}
	if p.accept(tokOp, ",") { // implicit cross join
		return JoinCross, true
	}
	jt, ok := joinPrefixes[p.tok.Text]
	if !ok || !p.is(tokKeyword, "") {
		return 0, false
	}
	p.next()
	if jt != JoinInner && jt != JoinCross {
		p.accept(tokKeyword, "OUTER")
	}
	p.expect(tokKeyword, "JOIN")
	return jt, true
}

// parseTableRef parses a FROM clause with left-associative joins.
func (p *parser) parseTableRef() TableRef {
	left, h := measure(p, p.parsePrimaryTableRef)
	for {
		join, hr := measure(p, func() *JoinRef { return p.parseJoin(left) })
		if join == nil {
			return left
		}
		left, h = join, max(h, hr)+1
		p.reach(h)
	}
}

// parseJoin parses a join of left to the next table, or returns nil
// when no join operator is next.
func (p *parser) parseJoin(left TableRef) *JoinRef {
	jt, ok := p.joinType()
	if !ok {
		return nil
	}
	join := &JoinRef{Type: jt, Left: left, Right: p.parsePrimaryTableRef()}
	if jt != JoinCross {
		p.expect(tokKeyword, "ON")
		join.On = p.parseExpr()
	}
	return join
}

func (p *parser) parsePrimaryTableRef() TableRef {
	if p.accept(tokOp, "(") {
		p.nest()
		sel := p.parseSelect()
		p.expect(tokOp, ")")
		p.depth--
		p.accept(tokKeyword, "AS")
		if !p.identLike() {
			p.fail("derived table requires an alias")
		}
		return &SubqueryRef{Select: sel, Alias: p.expectIdent()}
	}
	ref := &TableName{Name: p.expectIdent()}
	// AS introduces either an alias or the AS OF EPOCH time-travel
	// clause; OF is a soft keyword, so before an alias the clause is
	// recognized only by the full AS OF EPOCH sequence — "t AS of"
	// aliases the table as "of" — and after one by AS OF: t x AS OF
	// EPOCH 3.
	if !(p.isKeyword("AS") && p.peekKeyword(1, "OF") && p.peekKeyword(2, "EPOCH")) {
		ref.Alias = p.alias(true)
	}
	if p.isKeyword("AS") && p.peekKeyword(1, "OF") {
		p.next()
		p.expectKeywords("OF", "EPOCH")
		if n, ph := p.natural("bad epoch %q (want a non-negative integer)"); ph != nil {
			ref.AsOf = ph
		} else {
			ref.AsOf = &Literal{Value: datum.Int(n)}
		}
	}
	return ref
}

func (p *parser) parseInsert() Statement {
	stmt := &InsertStmt{Overwrite: p.accept(tokKeyword, "OVERWRITE")}
	if !stmt.Overwrite && !p.accept(tokKeyword, "INTO") {
		p.fail("expected INTO or OVERWRITE after INSERT")
	}
	p.accept(tokKeyword, "TABLE")
	stmt.Table = p.expectIdent()
	if p.accept(tokKeyword, "VALUES") {
		stmt.Rows = list(p, ",", p.parenList)
	} else {
		stmt.Select = p.parseSelect()
	}
	return stmt
}

func (p *parser) parseUpdate() Statement {
	stmt := &UpdateStmt{Table: p.expectIdent(), Alias: p.alias(false)}
	p.expect(tokKeyword, "SET")
	stmt.Sets = list(p, ",", func() SetClause { return p.parseSetClause(stmt) })
	stmt.Where = p.parseWhere()
	return stmt
}

// parseSetClause parses col = expr, where col may carry the updated
// table's name or alias as a qualifier (UPDATE t SET t.col = ...).
func (p *parser) parseSetClause(stmt *UpdateStmt) SetClause {
	col := p.expectIdent()
	if p.accept(tokOp, ".") {
		qual := col
		col = p.expectIdent()
		if !strings.EqualFold(qual, stmt.Alias) && !strings.EqualFold(qual, stmt.Table) {
			p.fail("SET qualifier %q does not match updated table", qual)
		}
	}
	p.expect(tokOp, "=")
	return SetClause{Column: col, Value: p.parseExpr()}
}

func (p *parser) parseCreateTable() Statement {
	p.expect(tokKeyword, "TABLE")
	stmt := &CreateTableStmt{IfNotExists: p.acceptKeywords("IF", "NOT", "EXISTS"), Name: p.expectIdent()}
	p.expect(tokOp, "(")
	stmt.Columns = list(p, ",", p.parseColumnDef)
	p.expect(tokOp, ")")
	if p.acceptKeywords("STORED", "AS") {
		stmt.StoredAs = strings.ToUpper(p.expectIdent())
	}
	return stmt
}

func (p *parser) parseColumnDef() ColumnDef {
	col := p.expectIdent()
	if !p.is(tokIdent, "") {
		p.fail("expected column type, got %s", p.tok)
	}
	typ := strings.ToUpper(p.next())
	if _, err := datum.KindFromSQL(typ); err != nil {
		p.fail("unsupported column type %q", typ)
	}
	return ColumnDef{Name: col, Type: typ}
}

// parseSet parses SET key = value (session settings; keys are dotted
// identifier paths like dualtable.force.plan) or a bare SET that lists
// the session's settings.
func (p *parser) parseSet() Statement {
	if p.atEOF() || p.is(tokOp, ";") {
		return &SetStmt{}
	}
	parts := list(p, ".", func() string {
		if !p.is(tokIdent, "") && !p.is(tokKeyword, "") {
			p.fail("expected setting name, got %s", p.tok)
		}
		return p.next()
	})
	p.expect(tokOp, "=")
	if p.atEOF() || p.is(tokOp, "") {
		p.fail("expected setting value, got %s", p.tok)
	}
	return &SetStmt{Key: strings.ToLower(strings.Join(parts, ".")), Value: p.next()}
}

// ---- Expression parsing (precedence climbing) ----
//
// Precedence (loosest to tightest):
//	OR
//	AND
//	NOT
//	comparison (= != < <= > >=, IS NULL, IN, BETWEEN, LIKE)
//	+ -
//	* / %
//	unary -
//	primary

// Binary precedence levels, loosest first.
const (
	levelOr = iota
	levelAnd
	levelCmp
	levelAdd
	levelMul
)

func (p *parser) parseExpr() Expr {
	p.nest()
	e := p.parseBinary(levelOr)
	p.depth--
	return e
}

// parseBinary parses operands joined by binary operators of level
// lowest and tighter, by precedence climbing: each operator's right
// side is an operand of the next tighter level, so it takes every
// tighter operator, and operators of one level chain left-deep. After
// a link at level l only operators of level l or looser may follow:
// "a IS NULL + 1" stops before the "+", as the grammar requires.
func (p *parser) parseBinary(lowest int) Expr {
	first, limit := p.parseUnary, levelMul
	if lowest <= levelAnd {
		first, limit = p.parseNot, levelAnd
	}
	x, h := measure(p, first)
	for {
		level := p.opLevel()
		if level < lowest || level > limit {
			return x
		}
		y, hr := measure(p, func() Expr { return p.link(level, x) })
		x, h, limit = y, max(h, hr)+1, level
		p.reach(h)
	}
}

// operand parses an operand of level's operators: an expression of the
// next tighter level.
func (p *parser) operand(level int) Expr {
	switch level {
	case levelAnd:
		return p.parseNot()
	case levelMul:
		return p.parseUnary()
	}
	return p.parseBinary(level + 1)
}

// opLevel returns the level of the binary operator at the current
// token, or -1.
func (p *parser) opLevel() int {
	t := &p.tok
	switch t.Kind {
	case tokOp:
		switch t.Text {
		case "=", "!=", "<", "<=", ">", ">=":
			return levelCmp
		case "+", "-":
			return levelAdd
		case "*", "/", "%":
			return levelMul
		}
	case tokKeyword:
		switch t.Text {
		case "OR":
			return levelOr
		case "AND":
			return levelAnd
		case "IS", "IN", "BETWEEN", "LIKE":
			return levelCmp
		case "NOT":
			if p.peekKeyword(1, "IN") || p.peekKeyword(1, "BETWEEN") || p.peekKeyword(1, "LIKE") {
				return levelCmp
			}
		}
	}
	return -1
}

// link consumes an operator of level (opLevel found it) with its right
// side, and returns the node that joins it to l.
func (p *parser) link(level int, l Expr) Expr {
	if p.is(tokOp, "") || p.tok.Text == "OR" || p.tok.Text == "AND" {
		return &BinaryExpr{Op: p.next(), L: l, R: p.operand(level)}
	}
	if p.accept(tokKeyword, "IS") {
		not := p.accept(tokKeyword, "NOT")
		p.expect(tokKeyword, "NULL")
		return &IsNullExpr{X: l, Not: not}
	}
	// x [NOT] IN / BETWEEN / LIKE
	not := p.accept(tokKeyword, "NOT")
	switch {
	case p.accept(tokKeyword, "IN"):
		return &InExpr{X: l, List: p.parenList(), Not: not}
	case p.accept(tokKeyword, "BETWEEN"):
		lo := p.operand(levelCmp)
		p.expect(tokKeyword, "AND")
		return &BetweenExpr{X: l, Lo: lo, Hi: p.operand(levelCmp), Not: not}
	}
	p.expect(tokKeyword, "LIKE")
	return &LikeExpr{X: l, Pattern: p.operand(levelCmp), Not: not}
}

func (p *parser) parseNot() Expr {
	n := 0
	for p.accept(tokKeyword, "NOT") {
		n++
	}
	if n == 0 {
		return p.parseBinary(levelCmp)
	}
	x, h := measure(p, func() Expr { return p.parseBinary(levelCmp) })
	p.reach(h + n)
	for range n {
		x = &UnaryExpr{Op: "NOT", X: x}
	}
	return x
}

func (p *parser) parseUnary() Expr {
	n := 0
	for p.accept(tokOp, "-") {
		n++
	}
	p.accept(tokOp, "+")
	if n == 0 {
		return p.parsePrimary()
	}
	x, h := measure(p, p.parsePrimary)
	p.reach(h + n)
	for range n {
		// Fold negative numeric literals.
		lit, _ := x.(*Literal)
		switch {
		case lit != nil && lit.Value.K == datum.KindInt:
			x = &Literal{Value: datum.Int(-lit.Value.I)}
		case lit != nil && lit.Value.K == datum.KindFloat:
			x = &Literal{Value: datum.Float(-lit.Value.F)}
		default:
			x = &UnaryExpr{Op: "-", X: x}
		}
	}
	return x
}

func (p *parser) parsePrimary() Expr {
	switch {
	case p.accept(tokOp, "?"):
		return p.placeholder()
	case p.is(tokNumber, ""):
		text := p.next()
		if !strings.ContainsAny(text, ".eE") {
			if v, err := strconv.ParseInt(text, 10, 64); err == nil {
				return &Literal{Value: datum.Int(v)}
			}
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.fail("bad number %q", text)
		}
		return &Literal{Value: datum.Float(f)}
	case p.is(tokString, ""):
		return &Literal{Value: datum.String_(p.next())}
	case p.accept(tokKeyword, "TRUE"):
		return &Literal{Value: datum.Bool(true)}
	case p.accept(tokKeyword, "FALSE"):
		return &Literal{Value: datum.Bool(false)}
	case p.accept(tokKeyword, "NULL"):
		return &Literal{Value: datum.Null}
	case p.accept(tokKeyword, "CASE"):
		return p.parseCase()
	case p.accept(tokKeyword, "CAST"):
		p.expect(tokOp, "(")
		x := p.parseExpr()
		p.expect(tokKeyword, "AS")
		typ := p.expectIdent()
		if _, err := datum.KindFromSQL(typ); err != nil {
			p.fail("bad CAST type %q", typ)
		}
		p.expect(tokOp, ")")
		return &CastExpr{X: x, Type: strings.ToUpper(typ)}
	case p.accept(tokKeyword, "IF"):
		// IF(cond, then, else) — IF is also a keyword in DDL, so it is
		// handled here explicitly as a function call.
		args := p.parenList()
		if len(args) != 3 {
			p.fail("IF requires 3 arguments, got %d", len(args))
		}
		return &FuncCall{Name: "IF", Args: args}
	case p.accept(tokOp, "("):
		var e Expr
		if p.isKeyword("SELECT") {
			e = &SubqueryExpr{Select: p.parseSelect()}
		} else {
			p.parens++
			e = p.parseExpr()
			p.parens--
		}
		p.expect(tokOp, ")")
		return e
	case p.identLike():
		name := p.next()
		if p.accept(tokOp, "(") {
			return p.parseCall(name)
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			return &ColumnRef{Table: name, Name: p.expectIdent()}
		}
		return &ColumnRef{Name: name}
	}
	p.fail("expected expression, got %s", p.tok)
	return nil
}

// parseCall parses a function call's arguments after its '('.
func (p *parser) parseCall(name string) Expr {
	fc := &FuncCall{Name: strings.ToUpper(name)}
	if p.accept(tokOp, "*") {
		fc.Star = true
	} else {
		fc.Distinct = p.accept(tokKeyword, "DISTINCT")
		if p.accept(tokOp, ")") {
			return fc
		}
		fc.Args = list(p, ",", p.parseExpr)
	}
	p.expect(tokOp, ")")
	return fc
}

// parseCase parses a CASE expression after its CASE.
func (p *parser) parseCase() Expr {
	ce := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		ce.Operand = p.parseExpr()
	}
	for p.accept(tokKeyword, "WHEN") {
		cond := p.parseExpr()
		p.expect(tokKeyword, "THEN")
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: p.parseExpr()})
	}
	if len(ce.Whens) == 0 {
		p.fail("CASE requires at least one WHEN")
	}
	if p.accept(tokKeyword, "ELSE") {
		ce.Else = p.parseExpr()
	}
	p.expect(tokKeyword, "END")
	return ce
}
