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

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, 'it''s', 3.5e2 FROM t -- comment\n WHERE x >= 10 /* block */ ;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
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
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

// TestLexerUTF8Identifiers: an identifier is read rune by rune, so a
// UTF-8 letter is one identifier, and a byte that is not UTF-8 is a lex
// error, not a letter of some other encoding.
func TestLexerUTF8Identifiers(t *testing.T) {
	toks, err := Tokenize("SELECT é FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokIdent || toks[1].Text != "é" || toks[2].Text != "FROM" {
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

func TestLexerBackquotedIdent(t *testing.T) {
	toks, err := Tokenize("`select` x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "select" {
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
	if _, err := Parse("UPDATE t a SET b.x = 1"); err == nil {
		t.Error("mismatched SET qualifier should fail")
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

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t LIMIT x",
		"INSERT TABLE t SELECT 1",
		"UPDATE t",
		"UPDATE t SET",
		"UPDATE t SET x",
		"DELETE t",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"DROP t",
		"LOAD DATA 'x' INTO TABLE t",
		"COMPACT t",
		"SELECT CASE END",
		"SELECT IF(a, b)",
		"SELECT 1 2",
		"SELECT (1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
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
	if _, err := ParseScript("SELECT 1 SELECT 2"); err == nil {
		t.Error("missing semicolon should fail")
	}
}

// fixpointStatements cover every statement kind and expression form;
// they seed the round-trip test and the fuzz target.
var fixpointStatements = []string{
	"SELECT a, b AS x, COUNT(*) FROM t WHERE a > 5 AND b < 3 GROUP BY a, b HAVING COUNT(*) > 1 ORDER BY a DESC, b ASC LIMIT 10",
	"SELECT DISTINCT l_returnflag FROM lineitem",
	"SELECT * FROM a JOIN b ON a.id = b.id LEFT OUTER JOIN c ON b.x = c.x",
	"SELECT * FROM (SELECT k, SUM(v) s FROM t GROUP BY k) g WHERE g.s > 0",
	"INSERT OVERWRITE TABLE t SELECT a + 1, IF(b = 2, 'y', 'n') FROM s",
	"INSERT INTO TABLE t VALUES (1, 'a'), (2, NULL)",
	"UPDATE t SET a = a + 1, b = 'x' WHERE c IS NOT NULL",
	"DELETE FROM t WHERE k IN (1, 2) OR v BETWEEN 3 AND 4",
	"CREATE TABLE IF NOT EXISTS t (a BIGINT, b DOUBLE, c STRING, d BOOLEAN) STORED AS DUALTABLE",
	"DROP TABLE IF EXISTS t",
	"LOAD DATA INPATH '/x' OVERWRITE INTO TABLE t",
	"COMPACT TABLE t",
	"SELECT CASE WHEN a THEN 1 ELSE 0 END FROM t",
	"SELECT x FROM t WHERE s LIKE 'ab%' AND u NOT LIKE '%z'",
	"SELECT (SELECT SUM(k.v) FROM k WHERE k.id = t.id) FROM t",
	"EXPLAIN SELECT 1",
	"SELECT v FROM t AS OF EPOCH ? WHERE id NOT IN (?, -2) AND w NOT BETWEEN -1.5 AND 2e3 LIMIT ?",
	"SELECT CAST(a AS DOUBLE), -b, NOT c FROM t WHERE d IS NULL ORDER BY 1",
	"SET dualtable.force.plan = 'EDIT'",
	"SELECT `select`, `a b`.c, `if`(1), `if`(DISTINCT 1, 2, 3) FROM `from` `a b` WHERE s = 'it''s a\\\\b' AND f = -0.0",
}

// Round-trip: parse → String → parse → String must be a fixpoint.
func TestStringRoundtripFixpoint(t *testing.T) {
	for _, src := range fixpointStatements {
		s1 := mustParse(t, src)
		r1 := s1.String()
		s2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", src, r1, err)
		}
		r2 := s2.String()
		if r1 != r2 {
			t.Errorf("not a fixpoint:\n  src: %s\n  r1:  %s\n  r2:  %s", src, r1, r2)
		}
	}
}

// FuzzParseStringFixpoint: any text that parses prints a statement
// that parses again and prints the same text, and no text makes the
// lexer or parser panic. Estimator keys (core.Handler.StatementKey)
// are printed statements, so a print that does not round-trip would
// key two statements alike or one statement two ways.
func FuzzParseStringFixpoint(f *testing.F) {
	for _, src := range fixpointStatements {
		f.Add(src)
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
