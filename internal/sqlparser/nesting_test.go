package sqlparser

import (
	"fmt"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
)

// nestShapes build statements that nest n levels of one kind. Each is
// a shape the parser or something walking its tree recurses on once
// per level.
var nestShapes = []struct {
	name  string
	build func(n int) string
}{
	{"parentheses", func(n int) string {
		return "SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
	}},
	{"NOT", func(n int) string { return "SELECT " + strings.Repeat("NOT ", n) + "a" }},
	{"unary minus", func(n int) string { return "SELECT " + strings.Repeat("- ", n) + "a" }},
	{"sum", func(n int) string { return "SELECT 1" + strings.Repeat("+1", n) }},
	{"OR", func(n int) string { return "SELECT a" + strings.Repeat(" OR a", n) }},
	{"parenthesized chains", func(n int) string {
		return "SELECT " + strings.Repeat("(", n) + "a" + strings.Repeat(" OR a)", n)
	}},
	{"scalar subquery", func(n int) string {
		return strings.Repeat("SELECT (", n) + "SELECT 1" + strings.Repeat(")", n)
	}},
	{"derived table", func(n int) string {
		return strings.Repeat("SELECT * FROM (", n) + "SELECT 1" + strings.Repeat(") d", n)
	}},
	{"joins", func(n int) string { return "SELECT * FROM t" + strings.Repeat(", t", n) }},
	{"EXPLAIN", func(n int) string { return strings.Repeat("EXPLAIN ", n) + "SELECT 1" }},
}

var nestingErr = regexp.MustCompile(fmt.Sprintf(`^sql: line 1 col \d+: statement nests deeper than %d levels$`, maxNesting))

// TestNestingBound: a statement nested far past maxNesting fails with
// an ordinary error, where it used to overflow the stack of the parser
// or of what walks the tree; a statement at half the bound parses, and
// so does one just under it, whose print parses again. The stack is
// capped at 64 MiB, so a parser without the bound dies here instead of
// passing on a machine with memory to spare. The bound counts height,
// not size: flat lists of 10 000 items parse.
func TestNestingBound(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	for _, s := range nestShapes {
		if _, err := Parse(s.build(100_000)); err == nil || !nestingErr.MatchString(err.Error()) {
			t.Errorf("%s, 100 000 deep: %v, want the nesting error", s.name, err)
		}
		if _, err := ParseScript("SET a = 1; " + s.build(100_000)); err == nil || !nestingErr.MatchString(err.Error()) {
			t.Errorf("%s, 100 000 deep in a script: %v, want the nesting error", s.name, err)
		}
		if _, err := Parse(s.build(maxNesting + 1)); err == nil || !nestingErr.MatchString(err.Error()) {
			t.Errorf("%s, just over the bound: %v, want the nesting error", s.name, err)
		}
		mustParse(t, s.build(500))
		r1 := mustParse(t, s.build(maxNesting-1)).String()
		if r2 := mustParse(t, r1).String(); r2 != r1 {
			t.Errorf("%s, just under the bound: not a fixpoint", s.name)
		}
	}
	items := strings.Repeat("1, ", 9_999) + "1"
	mustParse(t, "SELECT a FROM t WHERE a IN ("+items+")")
	mustParse(t, "INSERT INTO t VALUES "+strings.Repeat("(1), ", 9_999)+"(1)")
	mustParse(t, "SELECT "+items)
}
