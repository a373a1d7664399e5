package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"dualtable/internal/datum"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks   []Token
	pos    int
	params int // '?' placeholders seen so far (assigns Placeholder.Idx)
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	stmt, _, err := ParseParams(src)
	return stmt, err
}

// ParseParams is Parse that also returns the number of '?'
// placeholders, which the parser numbers 0, 1, ... as it meets them.
func ParseParams(src string) (Statement, int, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, 0, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(TokOp, ";")
	if !p.atEOF() {
		return nil, 0, p.errf("unexpected %s after statement", p.cur())
	}
	return stmt, p.params, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var out []Statement
	for {
		for p.accept(TokOp, ";") {
		}
		if p.atEOF() {
			return out, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.accept(TokOp, ";") && !p.atEOF() {
			return nil, p.errf("expected ';' between statements, got %s", p.cur())
		}
	}
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return fmt.Errorf("sql: line %d col %d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

// is reports whether the current token matches kind and (optionally)
// text.
func (p *Parser) is(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) isKeyword(kw string) bool { return p.is(TokKeyword, kw) }

// accept consumes the current token when it matches.
func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.is(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	if p.is(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errf("expected %q, got %s", want, p.cur())
}

// softKeywords are context-sensitive: the lexer tokenizes them as
// keywords (the AS OF EPOCH grammar needs them), but everywhere an
// identifier is expected they still read as plain identifiers, so
// pre-existing schemas with columns or aliases named "of"/"epoch"
// keep parsing.
var softKeywords = map[string]bool{"OF": true, "EPOCH": true}

// identLike reports whether the current token can serve as an
// identifier (a real identifier or a soft keyword).
func (p *Parser) identLike() bool {
	t := p.cur()
	return t.Kind == TokIdent || (t.Kind == TokKeyword && softKeywords[t.Text])
}

// peekKeyword reports whether the token at offset off from the
// current position is the given keyword.
func (p *Parser) peekKeyword(off int, kw string) bool {
	if p.pos+off >= len(p.toks) {
		return false
	}
	t := p.toks[p.pos+off]
	return t.Kind == TokKeyword && t.Text == kw
}

// expectIdent consumes an identifier (soft keywords allowed, reserved
// keywords not).
func (p *Parser) expectIdent() (string, error) {
	if p.identLike() {
		return p.next().Text, nil
	}
	return "", p.errf("expected identifier, got %s", p.cur())
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreateTable()
	case p.isKeyword("DROP"):
		return p.parseDropTable()
	case p.isKeyword("LOAD"):
		return p.parseLoad()
	case p.isKeyword("COMPACT"):
		return p.parseCompact()
	case p.isKeyword("SET"):
		return p.parseSet()
	case p.isKeyword("SHOW"):
		p.next()
		if _, err := p.expect(TokKeyword, "TABLES"); err != nil {
			return nil, err
		}
		return &ShowTablesStmt{}, nil
	case p.isKeyword("DESCRIBE"):
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: name}, nil
	case p.isKeyword("EXPLAIN"):
		p.next()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner}, nil
	default:
		return nil, p.errf("expected a statement, got %s", p.cur())
	}
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.accept(TokKeyword, "DISTINCT") {
		s.Distinct = true
	} else {
		p.accept(TokKeyword, "ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "FROM") {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		// LIMIT takes a literal count or a '?' parameter (bound to a
		// non-negative integer at execution time).
		if p.accept(TokOp, "?") {
			s.LimitExpr = &Placeholder{Idx: p.params}
			p.params++
			return s, nil
		}
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// Bare * or qualified t.*
	if p.accept(TokOp, "*") {
		return SelectItem{Expr: &Star{}}, nil
	}
	if p.identLike() && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		tab := p.next().Text
		p.next()
		p.next()
		return SelectItem{Expr: &Star{Table: tab}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.identLike() {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseTableRef parses a FROM clause with left-associative joins.
func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.accept(TokKeyword, "JOIN"):
			jt = JoinInner
		case p.isKeyword("INNER"):
			p.next()
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jt = JoinInner
		case p.isKeyword("LEFT"):
			p.next()
			p.accept(TokKeyword, "OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		case p.isKeyword("RIGHT"):
			p.next()
			p.accept(TokKeyword, "OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jt = JoinRight
		case p.isKeyword("FULL"):
			p.next()
			p.accept(TokKeyword, "OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jt = JoinFull
		case p.isKeyword("CROSS"):
			p.next()
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jt = JoinCross
		case p.accept(TokOp, ","): // implicit cross join
			jt = JoinCross
		default:
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		join := &JoinRef{Type: jt, Left: left, Right: right}
		if jt != JoinCross {
			if _, err := p.expect(TokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

func (p *Parser) parsePrimaryTableRef() (TableRef, error) {
	if p.accept(TokOp, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		p.accept(TokKeyword, "AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, p.errf("derived table requires an alias")
		}
		return &SubqueryRef{Select: sel, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableName{Name: name}
	if p.accept(TokKeyword, "AS") {
		// AS introduces either an alias or the AS OF EPOCH time-travel
		// clause; OF is a soft keyword, so the clause is recognized
		// only by the full AS OF EPOCH sequence — "t AS of" still
		// aliases the table as "of".
		if p.isKeyword("OF") && p.peekKeyword(1, "EPOCH") {
			if err := p.parseAsOf(ref); err != nil {
				return nil, err
			}
		} else {
			a, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = a
		}
	} else if p.identLike() {
		ref.Alias = p.next().Text
	}
	// AS OF EPOCH after an alias: t x AS OF EPOCH 3.
	if ref.AsOf == nil && p.isKeyword("AS") && p.peekKeyword(1, "OF") {
		p.next()
		if err := p.parseAsOf(ref); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// parseAsOf parses the OF EPOCH (n | ?) tail of a time-travel clause
// (the leading AS is already consumed).
func (p *Parser) parseAsOf(ref *TableName) error {
	if _, err := p.expect(TokKeyword, "OF"); err != nil {
		return err
	}
	if _, err := p.expect(TokKeyword, "EPOCH"); err != nil {
		return err
	}
	if p.accept(TokOp, "?") {
		ref.AsOf = &Placeholder{Idx: p.params}
		p.params++
		return nil
	}
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil || n < 0 {
		return p.errf("bad epoch %q (want a non-negative integer)", t.Text)
	}
	ref.AsOf = &Literal{Value: datum.Int(n)}
	return nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if _, err := p.expect(TokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{}
	switch {
	case p.accept(TokKeyword, "OVERWRITE"):
		stmt.Overwrite = true
	case p.accept(TokKeyword, "INTO"):
	default:
		return nil, p.errf("expected INTO or OVERWRITE after INSERT")
	}
	p.accept(TokKeyword, "TABLE")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if p.accept(TokKeyword, "VALUES") {
		for {
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			stmt.Rows = append(stmt.Rows, row)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		return stmt, nil
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Select = sel
	return stmt, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if _, err := p.expect(TokKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	if p.identLike() {
		stmt.Alias = p.next().Text
	}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseSetTarget(stmt)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Column: col, Value: val})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// parseSetTarget parses the column of a SET clause, accepting an
// optional alias qualifier (UPDATE t SET t.col = ...).
func (p *Parser) parseSetTarget(stmt *UpdateStmt) (string, error) {
	first, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.accept(TokOp, ".") {
		col, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		if !strings.EqualFold(first, stmt.Alias) && !strings.EqualFold(first, stmt.Table) {
			return "", p.errf("SET qualifier %q does not match updated table", first)
		}
		return col, nil
	}
	return first, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if _, err := p.expect(TokKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.identLike() {
		stmt.Alias = p.next().Text
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if _, err := p.expect(TokKeyword, "CREATE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if p.accept(TokKeyword, "IF") {
		if _, err := p.expect(TokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var typ string
		if p.cur().Kind == TokIdent {
			typ = strings.ToUpper(p.next().Text)
		} else {
			return nil, p.errf("expected column type, got %s", p.cur())
		}
		if _, err := datum.KindFromSQL(typ); err != nil {
			return nil, p.errf("unsupported column type %q", typ)
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: col, Type: typ})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if p.accept(TokKeyword, "STORED") {
		if _, err := p.expect(TokKeyword, "AS"); err != nil {
			return nil, err
		}
		fmtName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.StoredAs = strings.ToUpper(fmtName)
	}
	return stmt, nil
}

func (p *Parser) parseDropTable() (Statement, error) {
	if _, err := p.expect(TokKeyword, "DROP"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.accept(TokKeyword, "IF") {
		if _, err := p.expect(TokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

func (p *Parser) parseLoad() (Statement, error) {
	if _, err := p.expect(TokKeyword, "LOAD"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "DATA"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "INPATH"); err != nil {
		return nil, err
	}
	pathTok, err := p.expect(TokString, "")
	if err != nil {
		return nil, err
	}
	stmt := &LoadStmt{Path: pathTok.Text}
	if p.accept(TokKeyword, "OVERWRITE") {
		stmt.Overwrite = true
	}
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	return stmt, nil
}

// parseSet parses SET key = value (session settings; keys are dotted
// identifier paths like dualtable.force.plan) or a bare SET that lists
// the session's settings.
func (p *Parser) parseSet() (Statement, error) {
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	if p.atEOF() || p.is(TokOp, ";") {
		return &SetStmt{}, nil
	}
	var parts []string
	for {
		t := p.cur()
		if t.Kind != TokIdent && t.Kind != TokKeyword {
			return nil, p.errf("expected setting name, got %s", t)
		}
		p.next()
		parts = append(parts, t.Text)
		if !p.accept(TokOp, ".") {
			break
		}
	}
	if _, err := p.expect(TokOp, "="); err != nil {
		return nil, err
	}
	t := p.cur()
	var val string
	switch t.Kind {
	case TokString, TokNumber, TokIdent, TokKeyword:
		p.next()
		val = t.Text
	default:
		return nil, p.errf("expected setting value, got %s", t)
	}
	return &SetStmt{Key: strings.ToLower(strings.Join(parts, ".")), Value: val}, nil
}

func (p *Parser) parseCompact() (Statement, error) {
	if _, err := p.expect(TokKeyword, "COMPACT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &CompactStmt{Table: name}, nil
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

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.is(TokOp, "="), p.is(TokOp, "!="), p.is(TokOp, "<"),
			p.is(TokOp, "<="), p.is(TokOp, ">"), p.is(TokOp, ">="):
			op := p.next().Text
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case p.isKeyword("IS"):
			p.next()
			not := p.accept(TokKeyword, "NOT")
			if _, err := p.expect(TokKeyword, "NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		default:
			// x [NOT] IN / BETWEEN / LIKE
			not := p.isKeyword("NOT") && (p.peekKeyword(1, "IN") ||
				p.peekKeyword(1, "BETWEEN") || p.peekKeyword(1, "LIKE"))
			if not {
				p.next()
			}
			switch {
			case p.accept(TokKeyword, "IN"):
				if _, err := p.expect(TokOp, "("); err != nil {
					return nil, err
				}
				var list []Expr
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					list = append(list, e)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
				l = &InExpr{X: l, List: list, Not: not}
			case p.accept(TokKeyword, "BETWEEN"):
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokKeyword, "AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
			case p.accept(TokKeyword, "LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &LikeExpr{X: l, Pattern: pat, Not: not}
			default:
				return l, nil
			}
		}
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.is(TokOp, "+") || p.is(TokOp, "-") {
		op := p.next().Text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.is(TokOp, "*") || p.is(TokOp, "/") || p.is(TokOp, "%") {
		op := p.next().Text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals.
		if lit, ok := x.(*Literal); ok {
			switch lit.Value.K {
			case datum.KindInt:
				return &Literal{Value: datum.Int(-lit.Value.I)}, nil
			case datum.KindFloat:
				return &Literal{Value: datum.Float(-lit.Value.F)}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	p.accept(TokOp, "+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokOp && t.Text == "?":
		p.next()
		ph := &Placeholder{Idx: p.params}
		p.params++
		return ph, nil
	case t.Kind == TokNumber:
		p.next()
		if !strings.ContainsAny(t.Text, ".eE") {
			v, err := strconv.ParseInt(t.Text, 10, 64)
			if err == nil {
				return &Literal{Value: datum.Int(v)}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &Literal{Value: datum.Float(f)}, nil
	case t.Kind == TokString:
		p.next()
		return &Literal{Value: datum.String_(t.Text)}, nil
	case p.isKeyword("TRUE"):
		p.next()
		return &Literal{Value: datum.Bool(true)}, nil
	case p.isKeyword("FALSE"):
		p.next()
		return &Literal{Value: datum.Bool(false)}, nil
	case p.isKeyword("NULL"):
		p.next()
		return &Literal{Value: datum.Null}, nil
	case p.isKeyword("CASE"):
		return p.parseCase()
	case p.isKeyword("CAST"):
		p.next()
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AS"); err != nil {
			return nil, err
		}
		typ, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := datum.KindFromSQL(typ); err != nil {
			return nil, p.errf("bad CAST type %q", typ)
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &CastExpr{X: x, Type: strings.ToUpper(typ)}, nil
	case p.isKeyword("IF"):
		// IF(cond, then, else) — IF is also a keyword in DDL, so it is
		// handled here explicitly as a function call.
		p.next()
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var args []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		if len(args) != 3 {
			return nil, p.errf("IF requires 3 arguments, got %d", len(args))
		}
		return &FuncCall{Name: "IF", Args: args}, nil
	case t.Kind == TokOp && t.Text == "(":
		p.next()
		if p.isKeyword("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent || (t.Kind == TokKeyword && softKeywords[t.Text]):
		name := p.next().Text
		// Function call?
		if p.accept(TokOp, "(") {
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.accept(TokOp, "*") {
				fc.Star = true
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.accept(TokKeyword, "DISTINCT") {
				fc.Distinct = true
			}
			if !p.accept(TokOp, ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.accept(TokOp, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	default:
		return nil, p.errf("expected expression, got %s", t)
	}
}

func (p *Parser) parseCase() (Expr, error) {
	if _, err := p.expect(TokKeyword, "CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.accept(TokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept(TokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}
