package sqlparser

import (
	"reflect"
	"strings"
	"testing"

	"dualtable/internal/datum"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

// drain reads src with the lexer to the end of input: its tokens, the
// end of input last, or the lexical error it meets.
func drain(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		t := l.next()
		if t.Kind == tokErr {
			return toks, errorAt(src, t.Pos, t.Text)
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := drain("SELECT a, 'it''s', 3.5e2 FROM t -- comment\n WHERE x >= 10 /* block */ ;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == tokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "3.5e2", "FROM", "t", "WHERE", "x", ">=", "10", ";"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "`unterminated", "/* unterminated", "SELECT @"} {
		if _, err := drain(src); err == nil {
			t.Errorf("drain(%q) should fail", src)
		}
	}
}

// TestLexerUTF8Identifiers: an identifier is read rune by rune, so a
// UTF-8 letter is one identifier, and a byte that is not UTF-8 is a lex
// error, not a letter of some other encoding.
func TestLexerUTF8Identifiers(t *testing.T) {
	toks, err := drain("SELECT é FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != tokIdent || toks[1].Text != "é" || toks[2].Text != "FROM" {
		t.Errorf("tokens = %+v", toks[:3])
	}
	for _, src := range []string{"SET \xe1=''", "SELECT a\xff FROM t"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	if got := (&ColumnRef{Name: "é"}).String(); got != "é" {
		t.Errorf("ColumnRef é prints %s", got)
	}
	if got := (&ColumnRef{Name: "a\xff"}).String(); got != "`a\xff`" {
		t.Errorf("ColumnRef a\\xff prints %s", got)
	}
}

// TestLexerOperatorTextAllocatesNothing: an operator's token text is a
// substring of the source, one character or two, so a thousand '(' cost
// no more allocations than a thousand "<=".
func TestLexerOperatorTextAllocatesNothing(t *testing.T) {
	allocs := func(op string) float64 {
		src := strings.Repeat(op+" ", 1000)
		return testing.AllocsPerRun(10, func() {
			if _, err := drain(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, two := allocs("("), allocs("<="); one > two {
		t.Errorf("1 000 '(' allocate %v times, 1 000 '<=' %v", one, two)
	}
}

func TestLexerBackquotedIdent(t *testing.T) {
	toks, err := drain("`select` x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != tokIdent || toks[0].Text != "select" {
		t.Errorf("backquoted = %+v", toks[0])
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b AS x, COUNT(*) FROM t WHERE a > 5 GROUP BY a, b HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 10")
	sel := stmt.(*SelectStmt)
	if len(sel.Items) != 3 || sel.Items[1].Alias != "x" {
		t.Errorf("items = %v", sel.Items)
	}
	if sel.Limit != 10 || !sel.OrderBy[0].Desc {
		t.Errorf("order/limit wrong: %v %d", sel.OrderBy, sel.Limit)
	}
	if len(sel.GroupBy) != 2 || sel.Having == nil {
		t.Errorf("group/having wrong")
	}
	fc := sel.Items[2].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Errorf("count(*) = %v", fc)
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM a JOIN b ON a.id = b.id LEFT OUTER JOIN c ON b.id = c.id")
	sel := stmt.(*SelectStmt)
	j := sel.From.(*JoinRef)
	if j.Type != JoinLeft {
		t.Errorf("outer join type = %v", j.Type)
	}
	inner := j.Left.(*JoinRef)
	if inner.Type != JoinInner {
		t.Errorf("inner join type = %v", inner.Type)
	}
	if inner.Left.(*TableName).Name != "a" || inner.Right.(*TableName).Name != "b" {
		t.Errorf("join operands wrong: %v", inner)
	}
}

func TestParseDerivedTable(t *testing.T) {
	stmt := mustParse(t, "SELECT g.cnt FROM (SELECT COUNT(*) cnt FROM t GROUP BY k) g")
	sel := stmt.(*SelectStmt)
	sub := sel.From.(*SubqueryRef)
	if sub.Alias != "g" || len(sub.Select.GroupBy) != 1 {
		t.Errorf("derived table = %v", sub)
	}
	if _, err := Parse("SELECT * FROM (SELECT 1)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParsePaperUpdateListing1(t *testing.T) {
	// The motivating statement from the paper (Listing 1), lightly
	// reformatted.
	src := `UPDATE tj_tqxsqk_r t
	SET t.QRYHS = (SELECT SUM(k.tqyhs)
	  FROM tj_tqxs_r k
	  WHERE t.rq = k.tjrq AND k.glfs = t.glfs
	    AND k.zjfs = t.cjfs AND k.dwdm = t.dwdm
	    AND k.sfqr = 1)
	WHERE t.rq = '2014-04-01'`
	stmt := mustParse(t, src)
	up := stmt.(*UpdateStmt)
	if up.Table != "tj_tqxsqk_r" || up.Alias != "t" {
		t.Errorf("update target = %q %q", up.Table, up.Alias)
	}
	if len(up.Sets) != 1 || !strings.EqualFold(up.Sets[0].Column, "QRYHS") {
		t.Errorf("sets = %v", up.Sets)
	}
	if !ContainsSubquery(up.Sets[0].Value) {
		t.Error("SET value should contain a subquery")
	}
	sub := up.Sets[0].Value.(*SubqueryExpr)
	if !ContainsAggregate(sub.Select.Items[0].Expr) {
		t.Error("subquery should aggregate")
	}
	if up.Where == nil {
		t.Error("missing WHERE")
	}
}

func TestParseUpdateQualifierMismatch(t *testing.T) {
	const want = `sql: line 1 col 20: SET qualifier "b" does not match updated table`
	if _, err := Parse("UPDATE t a SET b.x = 1"); err == nil || err.Error() != want {
		t.Errorf("mismatched SET qualifier: %v, want %s", err, want)
	}
	// Qualifier matching the table name itself is fine.
	mustParse(t, "UPDATE t SET t.x = 1")
}

func TestParseDelete(t *testing.T) {
	stmt := mustParse(t, "DELETE FROM tj_tdjl WHERE qym = '330100'")
	del := stmt.(*DeleteStmt)
	if del.Table != "tj_tdjl" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	stmt = mustParse(t, "DELETE FROM t")
	if stmt.(*DeleteStmt).Where != nil {
		t.Error("whereless delete should have nil Where")
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, "INSERT OVERWRITE TABLE t SELECT * FROM s")
	ins := stmt.(*InsertStmt)
	if !ins.Overwrite || ins.Table != "t" || ins.Select == nil {
		t.Errorf("insert = %+v", ins)
	}
	stmt = mustParse(t, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	ins = stmt.(*InsertStmt)
	if ins.Overwrite || len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Errorf("values insert = %+v", ins)
	}
}

func TestParseCreateDrop(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE IF NOT EXISTS lineitem (l_orderkey BIGINT, l_price DOUBLE, l_flag STRING, l_ok BOOLEAN) STORED AS DUALTABLE")
	ct := stmt.(*CreateTableStmt)
	if !ct.IfNotExists || ct.Name != "lineitem" || len(ct.Columns) != 4 || ct.StoredAs != "DUALTABLE" {
		t.Errorf("create = %+v", ct)
	}
	if ct.Columns[1].Type != "DOUBLE" {
		t.Errorf("column type = %q", ct.Columns[1].Type)
	}
	if _, err := Parse("CREATE TABLE t (x BLOB)"); err == nil {
		t.Error("unknown type should fail")
	}
	stmt = mustParse(t, "DROP TABLE IF EXISTS t")
	if !stmt.(*DropTableStmt).IfExists {
		t.Error("IF EXISTS lost")
	}
}

func TestParseLoadCompact(t *testing.T) {
	stmt := mustParse(t, "LOAD DATA INPATH '/data/x.csv' OVERWRITE INTO TABLE t")
	ld := stmt.(*LoadStmt)
	if ld.Path != "/data/x.csv" || !ld.Overwrite || ld.Table != "t" {
		t.Errorf("load = %+v", ld)
	}
	stmt = mustParse(t, "COMPACT TABLE t")
	if stmt.(*CompactStmt).Table != "t" {
		t.Error("compact table name lost")
	}
}

func TestParseMiscStatements(t *testing.T) {
	mustParse(t, "SHOW TABLES")
	if mustParse(t, "DESCRIBE t").(*DescribeStmt).Table != "t" {
		t.Error("describe")
	}
	ex := mustParse(t, "EXPLAIN SELECT 1").(*ExplainStmt)
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Error("explain inner")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT 1 + 2 * 3").(*SelectStmt)
	b := sel.Items[0].Expr.(*BinaryExpr)
	if b.Op != "+" {
		t.Fatalf("top op = %s", b.Op)
	}
	if r := b.R.(*BinaryExpr); r.Op != "*" {
		t.Errorf("mul should bind tighter: %v", sel.Items[0].Expr)
	}
	sel = mustParse(t, "SELECT a OR b AND c").(*SelectStmt)
	ob := sel.Items[0].Expr.(*BinaryExpr)
	if ob.Op != "OR" {
		t.Errorf("OR should be loosest: %v", ob)
	}
	sel = mustParse(t, "SELECT NOT a = b").(*SelectStmt)
	if u := sel.Items[0].Expr.(*UnaryExpr); u.Op != "NOT" {
		t.Errorf("NOT binding: %v", sel.Items[0].Expr)
	} else if _, ok := u.X.(*BinaryExpr); !ok {
		t.Errorf("NOT should wrap comparison: %v", u.X)
	}
}

func TestExpressionForms(t *testing.T) {
	cases := []string{
		"SELECT x IS NULL",
		"SELECT x IS NOT NULL",
		"SELECT x IN (1, 2, 3)",
		"SELECT x NOT IN (1)",
		"SELECT x BETWEEN 1 AND 10",
		"SELECT x NOT BETWEEN 1 AND 10",
		"SELECT x LIKE 'a%'",
		"SELECT x NOT LIKE '%b'",
		"SELECT CASE WHEN a THEN 1 ELSE 0 END",
		"SELECT CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END",
		"SELECT CAST(x AS DOUBLE)",
		"SELECT IF(a > 1, 'big', 'small')",
		"SELECT COALESCE(a, b, 0)",
		"SELECT -x + 3",
		"SELECT COUNT(DISTINCT x)",
		"SELECT (SELECT MAX(v) FROM s)",
		"SELECT t.*, u.* FROM t, u",
	}
	for _, src := range cases {
		mustParse(t, src)
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	sel := mustParse(t, "SELECT -5, -2.5").(*SelectStmt)
	if v := sel.Items[0].Expr.(*Literal).Value; v.K != datum.KindInt || v.I != -5 {
		t.Errorf("folded int = %v", v)
	}
	if v := sel.Items[1].Expr.(*Literal).Value; v.K != datum.KindFloat || v.F != -2.5 {
		t.Errorf("folded float = %v", v)
	}
}

// TestParseErrors pins each bad input's error: its text, line and
// column. The parser reports the first error it meets.
func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		// Inputs that fail at the first token they cannot take.
		{"", `sql: line 1 col 1: expected a statement, got end of input`},
		{`SELEC 1`, `sql: line 1 col 1: expected a statement, got "SELEC"`},
		{`SELECT`, `sql: line 1 col 7: expected expression, got end of input`},
		{`SELECT FROM t`, `sql: line 1 col 8: expected expression, got "FROM"`},
		{`SELECT * FROM`, `sql: line 1 col 14: expected identifier, got end of input`},
		{`SELECT * FROM t WHERE`, `sql: line 1 col 22: expected expression, got end of input`},
		{`SELECT * FROM t GROUP`, `sql: line 1 col 22: expected "BY", got end of input`},
		{`SELECT * FROM t LIMIT -1`, `sql: line 1 col 23: expected "token kind 3", got "-"`},
		{`SELECT * FROM t LIMIT x`, `sql: line 1 col 23: expected "token kind 3", got "x"`},
		{`INSERT TABLE t SELECT 1`, `sql: line 1 col 8: expected INTO or OVERWRITE after INSERT`},
		{`UPDATE t`, `sql: line 1 col 9: expected "SET", got end of input`},
		{`UPDATE t SET`, `sql: line 1 col 13: expected identifier, got end of input`},
		{`UPDATE t SET x`, `sql: line 1 col 15: expected "=", got end of input`},
		{`DELETE t`, `sql: line 1 col 8: expected "FROM", got "t"`},
		{`CREATE TABLE t`, `sql: line 1 col 15: expected "(", got end of input`},
		{`CREATE TABLE t ()`, `sql: line 1 col 17: expected identifier, got ")"`},
		{`DROP t`, `sql: line 1 col 6: expected "TABLE", got "t"`},
		{`LOAD DATA 'x' INTO TABLE t`, `sql: line 1 col 11: expected "INPATH", got "x"`},
		{`COMPACT t`, `sql: line 1 col 9: expected "TABLE", got "t"`},
		{`SELECT CASE END`, `sql: line 1 col 13: expected expression, got "END"`},
		{`SELECT IF(a, b)`, `sql: line 1 col 16: IF requires 3 arguments, got 2`},
		{`SELECT 1 2`, `sql: line 1 col 10: unexpected "2" after statement`},
		{`SELECT (1`, `sql: line 1 col 10: expected ")", got end of input`},
		// One input per error message of the parser and the lexer.
		{`DESCRIBE 1`, `sql: line 1 col 10: expected identifier, got "1"`},
		{`SELECT * FROM t LIMIT 1.5`, `sql: line 1 col 26: bad LIMIT "1.5"`},
		{`SELECT * FROM t LIMIT 99999999999999999999`, `sql: line 1 col 43: bad LIMIT "99999999999999999999"`},
		{`SELECT * FROM (SELECT 1)`, `sql: line 1 col 25: derived table requires an alias`},
		{`SELECT * FROM t AS OF EPOCH 1.5`, `sql: line 1 col 32: bad epoch "1.5" (want a non-negative integer)`},
		{`UPDATE t a SET b.x = 1`, `sql: line 1 col 20: SET qualifier "b" does not match updated table`},
		{`CREATE TABLE t (a)`, `sql: line 1 col 18: expected column type, got ")"`},
		{`CREATE TABLE t (x BLOB)`, `sql: line 1 col 23: unsupported column type "BLOB"`},
		{`SET 1 = 2`, `sql: line 1 col 5: expected setting name, got "1"`},
		{`SET a = (`, `sql: line 1 col 9: expected setting value, got "("`},
		{`SELECT 1e999`, `sql: line 1 col 13: bad number "1e999"`},
		{`SELECT 1e+`, `sql: line 1 col 11: bad number "1e+"`},
		{`SELECT CAST(a AS BLOB)`, `sql: line 1 col 22: bad CAST type "BLOB"`},
		{`SELECT CASE a END`, `sql: line 1 col 15: CASE requires at least one WHEN`},
		{`SELECT @`, `sql: line 1 col 8: unexpected character "@"`},
		// Paths that clauses, lists and join prefixes share.
		{`SELECT * FROM t AS OF EPOCH 1 AS OF EPOCH 2`, `sql: line 1 col 31: unexpected "AS" after statement`},
		{`SELECT * FROM t x AS OF 3`, `sql: line 1 col 25: expected "EPOCH", got "3"`},
		{`SELECT * FROM t AS OF x`, `sql: line 1 col 23: unexpected "x" after statement`},
		{`SELECT IF()`, `sql: line 1 col 11: expected expression, got ")"`},
		{`SELECT IF(*)`, `sql: line 1 col 11: expected expression, got "*"`},
		{`SELECT IF(DISTINCT a, b, c)`, `sql: line 1 col 11: expected expression, got "DISTINCT"`},
		{`SELECT IF(a, b, c, d)`, `sql: line 1 col 22: IF requires 3 arguments, got 4`},
		{`SELECT IF a`, `sql: line 1 col 11: expected "(", got "a"`},
		{`SELECT * FROM a INNER OUTER JOIN b ON a.x = b.x`, `sql: line 1 col 23: expected "JOIN", got "OUTER"`},
		{`SELECT * FROM a CROSS JOIN b ON a.x = b.x`, `sql: line 1 col 30: unexpected "ON" after statement`},
		{`SELECT * FROM a CROSS OUTER JOIN b`, `sql: line 1 col 23: expected "JOIN", got "OUTER"`},
		{`SELECT * FROM a LEFT b`, `sql: line 1 col 22: expected "JOIN", got "b"`},
		{`SELECT * FROM a FULL OUTER b`, `sql: line 1 col 28: expected "JOIN", got "b"`},
		{`SELECT * FROM a JOIN b`, `sql: line 1 col 23: expected "ON", got end of input`},
		{`SELECT * FROM a JOIN b ON`, `sql: line 1 col 26: expected expression, got end of input`},
		{`SELECT * FROM a, (SELECT 1) AS`, `sql: line 1 col 31: derived table requires an alias`},
		{`UPDATE t AS x SET a = 1`, `sql: line 1 col 10: expected "SET", got "AS"`},
		{`DELETE FROM t AS x`, `sql: line 1 col 15: unexpected "AS" after statement`},
		{`DELETE FROM t WHERE`, `sql: line 1 col 20: expected expression, got end of input`},
		{`CREATE TABLE IF EXISTS t (a INT)`, `sql: line 1 col 17: expected "NOT", got "EXISTS"`},
		{`DROP TABLE IF NOT EXISTS t`, `sql: line 1 col 15: expected "EXISTS", got "NOT"`},
		{`LOAD DATA INPATH x INTO TABLE t`, `sql: line 1 col 18: expected "token kind 4", got "x"`},
		{`LOAD DATA INPATH 'x' INTO t`, `sql: line 1 col 27: expected "TABLE", got "t"`},
		{`LOAD DATA INPATH 'x' OVERWRITE TABLE t`, `sql: line 1 col 32: expected "INTO", got "TABLE"`},
		{`SELECT a FROM t GROUP a`, `sql: line 1 col 23: expected "BY", got "a"`},
		{`SELECT a FROM t ORDER a`, `sql: line 1 col 23: expected "BY", got "a"`},
		{`SELECT a FROM t ORDER BY a DESC,`, `sql: line 1 col 33: expected expression, got end of input`},
		{`SELECT a FROM t HAVING`, `sql: line 1 col 23: expected expression, got end of input`},
		{`SELECT a AS 1`, `sql: line 1 col 13: expected identifier, got "1"`},
		{`SELECT a AS FROM t`, `sql: line 1 col 13: expected identifier, got "FROM"`},
		{`SELECT t.* x FROM t`, `sql: line 1 col 12: unexpected "x" after statement`},
		{`SELECT COUNT(* FROM t`, `sql: line 1 col 16: expected ")", got "FROM"`},
		{`SELECT f(a,`, `sql: line 1 col 12: expected expression, got end of input`},
		{`SELECT f(a b)`, `sql: line 1 col 12: expected ")", got "b"`},
		{`SELECT x IN 1`, `sql: line 1 col 13: expected "(", got "1"`},
		{`SELECT x IN ()`, `sql: line 1 col 14: expected expression, got ")"`},
		{`SELECT x NOT IN (1`, `sql: line 1 col 19: expected ")", got end of input`},
		{`SELECT x BETWEEN 1 OR 2`, `sql: line 1 col 20: expected "AND", got "OR"`},
		{`SELECT x IS 1`, `sql: line 1 col 13: expected "NULL", got "1"`},
		{`SELECT x IS NOT 1`, `sql: line 1 col 17: expected "NULL", got "1"`},
		{`SELECT x LIKE`, `sql: line 1 col 14: expected expression, got end of input`},
		{`SELECT CASE WHEN a 1 END`, `sql: line 1 col 20: expected "THEN", got "1"`},
		{`SELECT CASE WHEN a THEN 1`, `sql: line 1 col 26: expected "END", got end of input`},
		{`SELECT CASE WHEN a THEN 1 ELSE END`, `sql: line 1 col 32: expected expression, got "END"`},
		{`SELECT CAST(a DOUBLE)`, `sql: line 1 col 15: expected "AS", got "DOUBLE"`},
		{`SELECT CAST(a AS DOUBLE`, `sql: line 1 col 24: expected ")", got end of input`},
		{`SELECT a.1`, `sql: line 1 col 9: unexpected ".1" after statement`},
		{`SELECT (SELECT 1`, `sql: line 1 col 17: expected ")", got end of input`},
		{`SELECT 1 +`, `sql: line 1 col 11: expected expression, got end of input`},
		{`SELECT 1 * `, `sql: line 1 col 12: expected expression, got end of input`},
		{`SELECT NOT`, `sql: line 1 col 11: expected expression, got end of input`},
		{`SELECT - `, `sql: line 1 col 10: expected expression, got end of input`},
		{`SELECT a OR`, `sql: line 1 col 12: expected expression, got end of input`},
		{`SELECT a AND`, `sql: line 1 col 13: expected expression, got end of input`},
		{`INSERT INTO t VALUES 1`, `sql: line 1 col 22: expected "(", got "1"`},
		{`INSERT INTO t VALUES (1`, `sql: line 1 col 24: expected ")", got end of input`},
		{`INSERT INTO t VALUES (1),`, `sql: line 1 col 26: expected "(", got end of input`},
		{`INSERT INTO t`, `sql: line 1 col 14: expected "SELECT", got end of input`},
		{`UPDATE t SET a = 1,`, `sql: line 1 col 20: expected identifier, got end of input`},
		{`UPDATE t SET a = 1 WHERE`, `sql: line 1 col 25: expected expression, got end of input`},
		{`UPDATE t SET t.1 = 2`, `sql: line 1 col 15: expected "=", got ".1"`},
		{`UPDATE 1 SET a = 2`, `sql: line 1 col 8: expected identifier, got "1"`},
		{`UPDATE t x y SET a = 1`, `sql: line 1 col 12: expected "SET", got "y"`},
		{`CREATE TABLE t (a BIGINT`, `sql: line 1 col 25: expected ")", got end of input`},
		{`CREATE TABLE t (a BIGINT,)`, `sql: line 1 col 26: expected identifier, got ")"`},
		{`CREATE TABLE t (a BIGINT) STORED DUALTABLE`, `sql: line 1 col 34: expected "AS", got "DUALTABLE"`},
		{`CREATE TABLE t (a BIGINT) STORED AS 1`, `sql: line 1 col 37: expected identifier, got "1"`},
		{`CREATE t (a BIGINT)`, `sql: line 1 col 8: expected "TABLE", got "t"`},
		{`SHOW TABLE`, `sql: line 1 col 6: expected "TABLES", got "TABLE"`},
		{`DESCRIBE`, `sql: line 1 col 9: expected identifier, got end of input`},
		{`EXPLAIN`, `sql: line 1 col 8: expected a statement, got end of input`},
		{`EXPLAIN EXPLAIN`, `sql: line 1 col 16: expected a statement, got end of input`},
		{`SET a.`, `sql: line 1 col 7: expected setting name, got end of input`},
		{`SET a = `, `sql: line 1 col 9: expected setting value, got end of input`},
		{`SET a b`, `sql: line 1 col 7: expected "=", got "b"`},
		{`COMPACT TABLE`, `sql: line 1 col 14: expected identifier, got end of input`},
		{`SELECT ?, ? FROM t LIMIT ? 1`, `sql: line 1 col 28: unexpected "1" after statement`},
		{`SELECT 1;;`, `sql: line 1 col 10: unexpected ";" after statement`},
		{`SELECT 1; SELECT 2`, `sql: line 1 col 11: unexpected "SELECT" after statement`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestParseErrorPositions pins the line and column of errors in
// multi-line, tabbed, CRLF and multi-byte input, of lexical errors at
// the end of input, and which error wins when a lexical error follows
// a parse error: a statement reports the first error in its text.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		script    bool
		src, want string
	}{
		// Multi-line input, tabs and CRLF: a line ends at \n, and a tab or a \r is one column.
		{false, "SELECT a\nFROM t\nWHERE", "sql: line 3 col 6: expected expression, got end of input"},
		{false, "SELECT a,\n\n  FROM t", "sql: line 3 col 3: expected expression, got \"FROM\""},
		{false, "SELECT a\n  FROM t\n  WHERE b =\n  ORDER BY a", "sql: line 4 col 3: expected expression, got \"ORDER\""},
		{false, "SELECT\ta\tFROM\tt\tWHERE\t@", "sql: line 1 col 23: unexpected character \"@\""},
		{false, "SELECT\ta,\n\t\tb\n\tFROM\tt\tLIMIT\tx", "sql: line 3 col 15: expected \"token kind 3\", got \"x\""},
		{false, "SELECT a\r\nFROM t\r\nWHERE x =\r\n", "sql: line 4 col 1: expected expression, got end of input"},
		{false, "UPDATE t\r\nSET\r\n1 = 2", "sql: line 3 col 1: expected identifier, got \"1\""},
		{false, "SELECT a\r\nFROM t\r\nWHERE a = #", "sql: line 3 col 11: unexpected character \"#\""},
		// Multi-byte identifiers and invalid UTF-8: a column counts bytes.
		{false, "SELECT é, ü FROM t WHERE", "sql: line 1 col 27: expected expression, got end of input"},
		{false, "SELECT é\nFROM 日本 WHERE é = @", "sql: line 2 col 24: unexpected character \"@\""},
		{false, "SELECT 日本 日本 日本", "sql: line 1 col 22: unexpected \"日本\" after statement"},
		{false, "SELECT a\xff FROM t", "sql: line 1 col 9: invalid UTF-8 byte 0xff"},
		{false, "SELECT é,\n\xe1 FROM t", "sql: line 2 col 1: invalid UTF-8 byte 0xe1"},
		{false, "SET \xe1=''", "sql: line 1 col 5: invalid UTF-8 byte 0xe1"},
		// An unterminated string, comment or back-quoted name at the end fails at the end of input.
		{false, "SELECT 'abc", "sql: line 1 col 12: unterminated string literal"},
		{false, "SELECT a\nFROM t WHERE b = 'x\ny", "sql: line 3 col 2: unterminated string literal"},
		{false, "SELECT 'it''s", "sql: line 1 col 14: unterminated string literal"},
		{false, "SELECT 'a\\'", "sql: line 1 col 12: unterminated string literal"},
		{false, "SELECT 1 /* no end", "sql: line 1 col 19: unterminated block comment"},
		{false, "SELECT 1\n/* a\n b", "sql: line 3 col 3: unterminated block comment"},
		{false, "SELECT 1 -- a comment\n+", "sql: line 2 col 2: expected expression, got end of input"},
		{false, "SELECT `a", "sql: line 1 col 10: unterminated quoted identifier"},
		{false, "SELECT a FROM\n`t", "sql: line 2 col 3: unterminated quoted identifier"},
		// What a comment or a string holds is no token; a lexical error before a parse error wins.
		{false, "SELECT a\n-- @ in a comment\nFROM", "sql: line 3 col 5: expected identifier, got end of input"},
		{false, "SELECT '@' FROM", "sql: line 1 col 16: expected identifier, got end of input"},
		{false, "SELECT @ FROM", "sql: line 1 col 8: unexpected character \"@\""},
		{false, "SELECT t.@", "sql: line 1 col 10: unexpected character \"@\""},
		{false, "SELECT * FROM t LIMIT 1.5 @", "sql: line 1 col 27: unexpected character \"@\""},
		// A lexical error after an earlier parse error: the parse error wins.
		{false, "SELECT FROM t WHERE @", "sql: line 1 col 8: expected expression, got \"FROM\""},
		{false, "SELEC 'abc", "sql: line 1 col 1: expected a statement, got \"SELEC\""},
		{false, "SELECT 1 2 /* open", "sql: line 1 col 10: unexpected \"2\" after statement"},
		{false, "UPDATE t x y SET a = `b", "sql: line 1 col 12: expected \"SET\", got \"y\""},
		{false, "DELETE t WHERE a = '", "sql: line 1 col 8: expected \"FROM\", got \"t\""},
		{false, "SELECT a\nFROM\nWHERE \xff", "sql: line 3 col 1: expected identifier, got \"WHERE\""},
		// Scripts: the same rules across statements.
		{true, "SET a = 1;\nSELECT 'x", "sql: line 2 col 10: unterminated string literal"},
		{true, "SET a = 1;\r\nSELECT\t@", "sql: line 2 col 8: unexpected character \"@\""},
		{true, "SELECT 1 SELECT 2; SELECT @", "sql: line 1 col 10: expected ';' between statements, got \"SELECT\""},
		{true, "SET a = 1;\nSET b =;\nSELECT `x", "sql: line 2 col 8: expected setting value, got \";\""},
		{true, "SELECT é;\n\nDELETE FROM 日本 WHERE", "sql: line 3 col 25: expected expression, got end of input"},
	}
	for _, c := range cases {
		var err error
		if c.script {
			_, err = ParseScript(c.src)
		} else {
			_, err = Parse(c.src)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("script %v %q: %v, want %s", c.script, c.src, err, c.want)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a BIGINT);
		INSERT INTO t VALUES (1);;
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
	for _, c := range []struct{ src, want string }{
		{`SELECT 1 SELECT 2`, `sql: line 1 col 10: expected ';' between statements, got "SELECT"`},
		{`SELECT 1; SELEC 2`, `sql: line 1 col 11: expected a statement, got "SELEC"`},
		{`;;SELECT (;`, `sql: line 1 col 11: expected expression, got ";"`},
		{`SELECT 1; @`, `sql: line 1 col 11: unexpected character "@"`},
	} {
		if _, err := ParseScript(c.src); err == nil || err.Error() != c.want {
			t.Errorf("ParseScript(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// fixpointStatements cover every statement kind and expression form,
// and one left-deep chain per binary precedence level; they seed the
// round-trip test and the fuzz target. Each carries its first print,
// so a parser that re-associated a chain would fail even though its
// print would still be a fixpoint.
var fixpointStatements = []struct{ src, print string }{
	{"SELECT a, b AS x, COUNT(*) FROM t WHERE a > 5 AND b < 3 GROUP BY a, b HAVING COUNT(*) > 1 ORDER BY a DESC, b ASC LIMIT 10",
		"SELECT a, b AS x, COUNT(*) FROM t WHERE ((a > 5) AND (b < 3)) GROUP BY a, b HAVING (COUNT(*) > 1) ORDER BY a DESC, b ASC LIMIT 10"},
	{"SELECT DISTINCT l_returnflag FROM lineitem",
		"SELECT DISTINCT l_returnflag FROM lineitem"},
	{"SELECT * FROM a JOIN b ON a.id = b.id LEFT OUTER JOIN c ON b.x = c.x",
		"SELECT * FROM a JOIN b ON (a.id = b.id) LEFT OUTER JOIN c ON (b.x = c.x)"},
	{"SELECT * FROM (SELECT k, SUM(v) s FROM t GROUP BY k) g WHERE g.s > 0",
		"SELECT * FROM (SELECT k, SUM(v) AS s FROM t GROUP BY k) g WHERE (g.s > 0)"},
	{"INSERT OVERWRITE TABLE t SELECT a + 1, IF(b = 2, 'y', 'n') FROM s",
		"INSERT OVERWRITE TABLE t SELECT (a + 1), IF((b = 2), 'y', 'n') FROM s"},
	{"INSERT INTO TABLE t VALUES (1, 'a'), (2, NULL)",
		"INSERT INTO TABLE t VALUES (1, 'a'), (2, NULL)"},
	{"UPDATE t SET a = a + 1, b = 'x' WHERE c IS NOT NULL",
		"UPDATE t SET a = (a + 1), b = 'x' WHERE (c IS NOT NULL)"},
	{"DELETE FROM t WHERE k IN (1, 2) OR v BETWEEN 3 AND 4",
		"DELETE FROM t WHERE ((k IN (1, 2)) OR (v BETWEEN 3 AND 4))"},
	{"CREATE TABLE IF NOT EXISTS t (a BIGINT, b DOUBLE, c STRING, d BOOLEAN) STORED AS DUALTABLE",
		"CREATE TABLE IF NOT EXISTS t (a BIGINT, b DOUBLE, c STRING, d BOOLEAN) STORED AS DUALTABLE"},
	{"DROP TABLE IF EXISTS t",
		"DROP TABLE IF EXISTS t"},
	{"LOAD DATA INPATH '/x' OVERWRITE INTO TABLE t",
		"LOAD DATA INPATH '/x' OVERWRITE INTO TABLE t"},
	{"COMPACT TABLE t",
		"COMPACT TABLE t"},
	{"SELECT CASE WHEN a THEN 1 ELSE 0 END FROM t",
		"SELECT CASE WHEN a THEN 1 ELSE 0 END FROM t"},
	{"SELECT x FROM t WHERE s LIKE 'ab%' AND u NOT LIKE '%z'",
		"SELECT x FROM t WHERE ((s LIKE 'ab%') AND (u NOT LIKE '%z'))"},
	{"SELECT (SELECT SUM(k.v) FROM k WHERE k.id = t.id) FROM t",
		"SELECT (SELECT SUM(k.v) FROM k WHERE (k.id = t.id)) FROM t"},
	{"EXPLAIN SELECT 1",
		"EXPLAIN SELECT 1"},
	{"SELECT v FROM t AS OF EPOCH ? WHERE id NOT IN (?, -2) AND w NOT BETWEEN -1.5 AND 2e3 LIMIT ?",
		"SELECT v FROM t AS OF EPOCH ? WHERE ((id NOT IN (?, -2)) AND (w NOT BETWEEN -1.5 AND 2000)) LIMIT ?"},
	{"SELECT CAST(a AS DOUBLE), -b, NOT c FROM t WHERE d IS NULL ORDER BY 1",
		"SELECT CAST(a AS DOUBLE), (-b), (NOT c) FROM t WHERE (d IS NULL) ORDER BY 1 ASC"},
	{"SET dualtable.force.plan = 'EDIT'",
		"SET dualtable.force.plan = 'EDIT'"},
	{"SELECT `select`, `a b`.c, `if`(1), `if`(DISTINCT 1, 2, 3) FROM `from` `a b` WHERE s = 'it''s a\\\\b' AND f = -0.0",
		"SELECT `select`, `a b`.c, `IF`(1), `IF`(DISTINCT 1, 2, 3) FROM `from` `a b` WHERE ((s = 'it''s a\\\\b') AND (f = -0.0))"},
	{"SELECT a OR b OR c, a AND b AND c FROM t",
		"SELECT ((a OR b) OR c), ((a AND b) AND c) FROM t"},
	{"SELECT a < b = c, a IS NULL IS NOT NULL, a LIKE b NOT LIKE c FROM t",
		"SELECT ((a < b) = c), ((a IS NULL) IS NOT NULL), ((a LIKE b) NOT LIKE c) FROM t"},
	{"SELECT a - b - c + d, a / b * c % d, - - a, NOT NOT a FROM t",
		"SELECT (((a - b) - c) + d), (((a / b) * c) % d), (-(-a)), (NOT (NOT a)) FROM t"},
	{"SELECT a OR b AND NOT c = d + e * - f FROM t",
		"SELECT (a OR (b AND (NOT (c = (d + (e * (-f))))))) FROM t"},
	{"SELECT * FROM a, b CROSS JOIN c INNER JOIN d ON a.k = d.k RIGHT JOIN e ON e.k = d.k FULL OUTER JOIN f ON f.k = e.k",
		"SELECT * FROM a CROSS JOIN b CROSS JOIN c JOIN d ON (a.k = d.k) RIGHT OUTER JOIN e ON (e.k = d.k) FULL OUTER JOIN f ON (f.k = e.k)"},
}

// Round-trip: parse → String → parse → String must be a fixpoint, and
// the first String is the recorded print.
func TestStringRoundtripFixpoint(t *testing.T) {
	for _, c := range fixpointStatements {
		r1 := mustParse(t, c.src).String()
		if r1 != c.print {
			t.Errorf("%q prints\n  %s\nwant\n  %s", c.src, r1, c.print)
		}
		s2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", c.src, r1, err)
		}
		r2 := s2.String()
		if r1 != r2 {
			t.Errorf("not a fixpoint:\n  src: %s\n  r1:  %s\n  r2:  %s", c.src, r1, r2)
		}
	}
}

// FuzzParseStringFixpoint: any text that parses prints a statement
// that parses again and prints the same text, and no text makes the
// lexer or parser panic. Seeds include every nesting shape just under
// and just over the nesting bound: the print of a statement just under
// it must still be under it. Estimator keys (core.Handler.StatementKey)
// are printed statements, so a print that does not round-trip would
// key two statements alike or one statement two ways.
func FuzzParseStringFixpoint(f *testing.F) {
	for _, c := range fixpointStatements {
		f.Add(c.src)
	}
	for _, s := range nestShapes {
		f.Add(s.build(maxNesting - 1))
		f.Add(s.build(maxNesting + 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		r1 := stmt.String()
		again, err := Parse(r1)
		if err != nil {
			t.Fatalf("%q prints %q, which does not parse: %v", src, r1, err)
		}
		if r2 := again.String(); r2 != r1 {
			t.Fatalf("%q prints %q, which prints %q", src, r1, r2)
		}
	})
}

func TestWalkHelpers(t *testing.T) {
	sel := mustParse(t, "SELECT SUM(a) + 1 FROM t WHERE b = 1 AND c = 2 AND (d = 3 OR e = 4)").(*SelectStmt)
	if !ContainsAggregate(sel.Items[0].Expr) {
		t.Error("ContainsAggregate false negative")
	}
	if ContainsAggregate(sel.Where) {
		t.Error("ContainsAggregate false positive")
	}
	conj := SplitConjuncts(sel.Where)
	if len(conj) != 3 {
		t.Errorf("SplitConjuncts = %d parts", len(conj))
	}
	recombined := CombineConjuncts(conj)
	if len(SplitConjuncts(recombined)) != 3 {
		t.Error("CombineConjuncts lost parts")
	}
	refs := ColumnRefs(sel.Where)
	if len(refs) != 4 {
		t.Errorf("ColumnRefs = %d", len(refs))
	}
	// Subquery columns are not collected.
	up := mustParse(t, "UPDATE t SET x = (SELECT MAX(y) FROM s WHERE s.k = t.k)").(*UpdateStmt)
	if n := len(ColumnRefs(up.Sets[0].Value)); n != 0 {
		t.Errorf("subquery refs leaked: %d", n)
	}
	if !ContainsSubquery(up.Sets[0].Value) {
		t.Error("ContainsSubquery false negative")
	}
}

func TestIsAggregateFunc(t *testing.T) {
	for _, f := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		if !IsAggregateFunc(f) {
			t.Errorf("%s should be aggregate", f)
		}
	}
	if IsAggregateFunc("CONCAT") {
		t.Error("CONCAT is not aggregate")
	}
}
