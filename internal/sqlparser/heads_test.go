package sqlparser

import (
	"reflect"
	"slices"
	"testing"
)

// heads collects what StatementHeads reports for src.
func heads(src string) ([]string, error) {
	var out []string
	err := StatementHeads(src, func(h string) bool {
		out = append(out, h)
		return true
	})
	return out, err
}

// headOf names the keyword a parsed statement starts with.
func headOf(s Statement) string {
	switch s.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *UpdateStmt:
		return "UPDATE"
	case *DeleteStmt:
		return "DELETE"
	case *CreateTableStmt:
		return "CREATE"
	case *DropTableStmt:
		return "DROP"
	case *LoadStmt:
		return "LOAD"
	case *CompactStmt:
		return "COMPACT"
	case *SetStmt:
		return "SET"
	case *ShowTablesStmt:
		return "SHOW"
	case *DescribeStmt:
		return "DESCRIBE"
	case *ExplainStmt:
		return "EXPLAIN"
	}
	return "?"
}

// TestStatementHeads: each statement's first keyword, past comments,
// and never a keyword or a ';' inside a string or a back-quoted name.
func TestStatementHeads(t *testing.T) {
	cases := []struct {
		src   string
		want  []string
		lexes bool
	}{
		{"SET a = 1", []string{"SET"}, true},
		{"-- note\nSET a = 1", []string{"SET"}, true},
		{"/* note */ SET a = 1", []string{"SET"}, true},
		{"set a = 1; select 1", []string{"SET", "SELECT"}, true},
		{";; SELECT 1 ;; \n;", []string{"SELECT"}, true},
		{"SELECT ';SET a = 1'", []string{"SELECT"}, true},
		{"SELECT 1 -- ;SET a = 1", []string{"SELECT"}, true},
		{"SELECT 1 /* ;SET a = 1 */", []string{"SELECT"}, true},
		{"SELECT `;SET` FROM t", []string{"SELECT"}, true},
		{"`SET` a = 1", []string{""}, true},
		{"(SELECT 1); x", []string{"", ""}, true},
		{"", nil, true},
		{"-- only a comment", nil, true},
		{"SELECT 1; SET a = 'open", []string{"SELECT", "SET"}, false},
		{"SELECT 1; /* open", []string{"SELECT"}, false},
		{"SELECT @; SET a = 1", []string{"SELECT"}, false},
	}
	for _, c := range cases {
		got, err := heads(c.src)
		if !reflect.DeepEqual(got, c.want) || (err == nil) != c.lexes {
			t.Errorf("heads(%q) = %q, %v; want %q, lexes %v", c.src, got, err, c.want, c.lexes)
		}
	}
	var seen []string
	StatementHeads("SELECT 1; SET a = 1; SELECT @", func(h string) bool {
		seen = append(seen, h)
		return h != "SET"
	})
	if !reflect.DeepEqual(seen, []string{"SELECT", "SET"}) {
		t.Errorf("a scan stopped at SET saw %q", seen)
	}
}

// FuzzStatementHeads: for every script ParseScript accepts, the scan
// reports one head per statement, the keyword of the statement's kind;
// a script the scan cannot lex does not parse; and no input panics.
func FuzzStatementHeads(f *testing.F) {
	for _, c := range fixpointStatements {
		f.Add(c.src)
	}
	for _, s := range nestShapes {
		f.Add(s.build(3))
	}
	f.Add("CREATE TABLE t (a BIGINT);\nINSERT INTO t VALUES (1);;\nSELECT * FROM t;")
	f.Add("-- pin\nSET dualtable.force.plan = 'EDIT'; /* ; */ UPDATE t SET a = ';SET' WHERE `;` = 1")
	f.Add("SHOW TABLES; DESCRIBE t; EXPLAIN SELECT 1; COMPACT TABLE t; DROP TABLE t; LOAD DATA INPATH 'p' INTO TABLE t")
	f.Fuzz(func(t *testing.T, src string) {
		got, err := heads(src)
		stmts, perr := ParseScript(src)
		if err != nil && perr == nil {
			t.Fatalf("%q parses, but its scan fails: %v", src, err)
		}
		if perr != nil {
			return
		}
		want := make([]string, len(stmts))
		for i, s := range stmts {
			want[i] = headOf(s)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q: heads %q, statements %q", src, got, want)
		}
	})
}
