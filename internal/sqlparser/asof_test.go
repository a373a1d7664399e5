package sqlparser

import (
	"strings"
	"testing"

	"dualtable/internal/datum"
)

func asOfTable(t *testing.T, sql string) *TableName {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%s): %v", sql, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("not a SELECT: %T", stmt)
	}
	tn, ok := sel.From.(*TableName)
	if !ok {
		t.Fatalf("FROM is %T, want *TableName", sel.From)
	}
	return tn
}

func TestParseAsOfEpoch(t *testing.T) {
	tn := asOfTable(t, "SELECT * FROM t AS OF EPOCH 7")
	lit, ok := tn.AsOf.(*Literal)
	if !ok || lit.Value.K != datum.KindInt || lit.Value.I != 7 {
		t.Fatalf("AsOf = %#v, want literal 7", tn.AsOf)
	}
	if tn.Alias != "" {
		t.Errorf("alias = %q, want none", tn.Alias)
	}
}

func TestParseAsOfEpochWithAlias(t *testing.T) {
	for _, sql := range []string{
		"SELECT x.id FROM t x AS OF EPOCH 3",
		"SELECT x.id FROM t AS x AS OF EPOCH 3",
	} {
		tn := asOfTable(t, sql)
		if tn.Alias != "x" {
			t.Errorf("%s: alias = %q, want x", sql, tn.Alias)
		}
		lit, ok := tn.AsOf.(*Literal)
		if !ok || lit.Value.I != 3 {
			t.Errorf("%s: AsOf = %#v, want literal 3", sql, tn.AsOf)
		}
	}
	// Plain aliases keep working.
	tn := asOfTable(t, "SELECT x.id FROM t AS x")
	if tn.Alias != "x" || tn.AsOf != nil {
		t.Errorf("plain alias parse: alias=%q asOf=%v", tn.Alias, tn.AsOf)
	}
}

func TestParseAsOfEpochErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`SELECT * FROM t AS OF 3`, `sql: line 1 col 23: unexpected "3" after statement`},                        // missing EPOCH
		{`SELECT * FROM t AS OF EPOCH`, `sql: line 1 col 28: expected "token kind 3", got end of input`},         // missing operand
		{`SELECT * FROM t AS OF EPOCH -1`, `sql: line 1 col 29: expected "token kind 3", got "-"`},               // negative
		{`SELECT * FROM t AS OF EPOCH 'x'`, `sql: line 1 col 29: expected "token kind 3", got "x"`},              // wrong type
		{`SELECT * FROM t AS OF EPOCH 1.5`, `sql: line 1 col 32: bad epoch "1.5" (want a non-negative integer)`}, // fractional
		{`SELECT * FROM t AS OF EPOCH WHEN`, `sql: line 1 col 29: expected "token kind 3", got "WHEN"`},          // keyword
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%s) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestSoftKeywordsStayIdentifiers: OF and EPOCH drive the AS OF EPOCH
// grammar but must keep working as column names and aliases, so
// pre-existing schemas don't break.
func TestSoftKeywordsStayIdentifiers(t *testing.T) {
	for _, sql := range []string{
		"CREATE TABLE e (epoch BIGINT, of STRING)",
		"SELECT epoch FROM events WHERE epoch = 1",
		"SELECT t.epoch FROM events t ORDER BY epoch",
		"SELECT v AS epoch FROM t",
		"SELECT v epoch FROM t",
		"SELECT * FROM t epoch",
		"SELECT epoch.* FROM t epoch",
		"SELECT of.* FROM t of",
		"SELECT * FROM t AS of",
		"UPDATE t epoch SET v = 1 WHERE epoch.id = 2",
		"DELETE FROM t of WHERE of.id = 3",
		"SELECT EPOCH(v) FROM t",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Errorf("Parse(%s): %v", sql, err)
			continue
		}
		// Canonical text re-parses (fixpoint).
		r1 := stmt.String()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Errorf("re-parse %q: %v", r1, err)
			continue
		}
		if r2 := stmt2.String(); r1 != r2 {
			t.Errorf("not a fixpoint:\n%s\n%s", r1, r2)
		}
	}
	// "t AS of" aliases; only the full AS OF EPOCH sequence is the
	// time-travel clause.
	tn := asOfTable(t, "SELECT * FROM t AS of")
	if tn.Alias != "OF" && tn.Alias != "of" {
		t.Errorf("AS of alias = %q", tn.Alias)
	}
	if tn.AsOf != nil {
		t.Errorf("AS of parsed as time travel: %v", tn.AsOf)
	}
}

func TestAsOfEpochStringRoundTrip(t *testing.T) {
	for _, sql := range []string{
		"SELECT * FROM t AS OF EPOCH 4",
		"SELECT x.id FROM t x AS OF EPOCH 0 WHERE (x.id = 1)",
		"SELECT a.id FROM t a AS OF EPOCH 2 JOIN s b ON (a.id = b.id)",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%s): %v", sql, err)
		}
		r1 := stmt.String()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", r1, err)
		}
		if r2 := stmt2.String(); r1 != r2 {
			t.Fatalf("not a fixpoint:\n%s\n%s", r1, r2)
		}
		if !strings.Contains(r1, "AS OF EPOCH") {
			t.Fatalf("String lost the clause: %q", r1)
		}
	}
}

func TestAsOfEpochPlaceholderBinds(t *testing.T) {
	stmt, n, err := ParseParams("SELECT * FROM t AS OF EPOCH ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("placeholders = %d, want 2", n)
	}
	bound, err := BindStatement(stmt, n, []datum.Datum{datum.Int(9), datum.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	tn := bound.(*SelectStmt).From.(*TableName)
	lit, ok := tn.AsOf.(*Literal)
	if !ok || lit.Value.I != 9 {
		t.Fatalf("bound AsOf = %#v, want literal 9", tn.AsOf)
	}
	// The original (cached) AST keeps its placeholder.
	orig := stmt.(*SelectStmt).From.(*TableName)
	if _, ok := orig.AsOf.(*Placeholder); !ok {
		t.Fatalf("binding mutated the cached AST: %#v", orig.AsOf)
	}
}
