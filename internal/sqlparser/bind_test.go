package sqlparser

import (
	"strings"
	"testing"

	"dualtable/internal/datum"
)

func TestPlaceholderParsing(t *testing.T) {
	stmt, n, err := ParseParams("SELECT a FROM t WHERE b = ? AND c IN (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("placeholders = %d, want 3", n)
	}
	// Canonical SQL keeps the placeholders and round-trips.
	s := stmt.String()
	if strings.Count(s, "?") != 3 {
		t.Errorf("String() = %q", s)
	}
	again, n, err := ParseParams(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if n != 3 {
		t.Errorf("reparse lost placeholders: %q", again)
	}
}

func TestPlaceholderInSubquery(t *testing.T) {
	_, n, err := ParseParams("SELECT (SELECT MAX(x) FROM u WHERE u.k = ?) FROM t WHERE y = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("placeholders = %d, want 2", n)
	}
}

func TestBindStatement(t *testing.T) {
	stmt, n, err := ParseParams("UPDATE t SET v = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindStatement(stmt, n, []datum.Datum{datum.Float(2.5), datum.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	want := "UPDATE t SET v = 2.5 WHERE (id = 7)"
	if bound.String() != want {
		t.Errorf("bound = %q, want %q", bound.String(), want)
	}
	// The original statement still carries its placeholders (the
	// cached AST must not be mutated by binding).
	if stmt.String() != "UPDATE t SET v = ? WHERE (id = ?)" {
		t.Errorf("bind mutated the source statement: %q", stmt)
	}
	// Arity mismatch.
	if _, err := BindStatement(stmt, n, []datum.Datum{datum.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Zero placeholders binds to the identical statement.
	plain, _ := Parse("SELECT 1")
	same, err := BindStatement(plain, 0, nil)
	if err != nil || same != plain {
		t.Errorf("zero-arg bind = (%v, %v)", same, err)
	}
}

func TestLimitPlaceholderParseAndBind(t *testing.T) {
	stmt, n, err := ParseParams("SELECT v FROM t WHERE a = ? LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("placeholders = %d, want 2", n)
	}
	if s := stmt.String(); s != "SELECT v FROM t WHERE (a = ?) LIMIT ?" {
		t.Fatalf("String = %q", s)
	}
	// Unbound LIMIT parameter refuses to resolve.
	if _, err := stmt.(*SelectStmt).EffectiveLimit(); err == nil {
		t.Fatal("EffectiveLimit on unbound placeholder should error")
	}
	bound, err := BindStatement(stmt, n, []datum.Datum{datum.Int(7), datum.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	limit, err := bound.(*SelectStmt).EffectiveLimit()
	if err != nil || limit != 3 {
		t.Fatalf("EffectiveLimit = %d, %v; want 3", limit, err)
	}
	// The original cached AST is untouched by binding.
	if _, ok := stmt.(*SelectStmt).LimitExpr.(*Placeholder); !ok {
		t.Fatal("binding mutated the cached statement's LimitExpr")
	}
	// Negative and non-integer bindings are rejected at resolution.
	for _, bad := range []datum.Datum{datum.Int(-1), datum.Float(1.5), datum.String_("x")} {
		b, err := BindStatement(stmt, n, []datum.Datum{datum.Int(7), bad})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.(*SelectStmt).EffectiveLimit(); err == nil {
			t.Fatalf("EffectiveLimit(%v) should error", bad)
		}
	}
}

func TestParseSet(t *testing.T) {
	stmt, err := Parse("SET dualtable.force.plan = EDIT")
	if err != nil {
		t.Fatal(err)
	}
	set, ok := stmt.(*SetStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if set.Key != "dualtable.force.plan" || set.Value != "EDIT" {
		t.Errorf("parsed %+v", set)
	}
	// String round-trips.
	again, err := Parse(set.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := again.(*SetStmt); got.Key != set.Key || got.Value != set.Value {
		t.Errorf("round trip %+v", got)
	}
	// Quoted values keep spaces; numbers work; bare SET lists.
	cases := map[string]SetStmt{
		"SET a.b = 'x y'": {Key: "a.b", Value: "x y"},
		"SET k = 2.5":     {Key: "k", Value: "2.5"},
		"SET":             {},
	}
	for sql, want := range cases {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got := stmt.(*SetStmt)
		if got.Key != want.Key || got.Value != want.Value {
			t.Errorf("%s → %+v, want %+v", sql, got, want)
		}
	}
	if _, err := Parse("SET a.b"); err == nil {
		t.Error("SET without '=' should fail")
	}
}
