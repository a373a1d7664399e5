package sqlparser_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dualtable/internal/sqlparser"
	"dualtable/internal/workload"
)

// parseShapes are the statement texts the benchmark's workloads send
// to the parser: dml_churn's literal OVERWRITE UPDATE and its 200-row
// INSERT (parsed on every execution), serve_point's prepared texts
// (parsed once per prepare) and analytic_union's q1 and q12.
var parseShapes = []struct{ name, src string }{
	{"churn_update", `UPDATE t SET tag = 'c17' WHERE grp < 80`},
	{"churn_insert", churnInsert(200)},
	{"point_update", `UPDATE bench SET v = v + 1 WHERE id = ?`},
	{"group_scan", `SELECT id, v FROM bench WHERE grp = ? AND v >= ?`},
	{"q1", workload.QueryA},
	{"q12", workload.QueryB},
}

// churnInsert builds dml_churn's INSERT of n literal rows.
func churnInsert(n int) string {
	var sb strings.Builder
	sb.WriteString(`INSERT INTO t VALUES `)
	for i := range n {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.0, 'new')", 40000+i, i, 40000+i)
	}
	return sb.String()
}

// TestParseMemoryFollowsTree: the parser pulls tokens from the lexer
// instead of lexing a statement into a slice first, so what a parse
// allocates follows the tree it builds. Two million parentheses that
// fail at the nesting bound cost no more than their first thousand
// levels, and a warm parse of dml_churn's 200-row INSERT costs no more
// than the 78 192 B it cost when it was lexed into a pooled slice.
func TestParseMemoryFollowsTree(t *testing.T) {
	perParse := func(src string, runs int) uint64 {
		sqlparser.Parse(src)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			sqlparser.Parse(src)
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
	}
	const levels = 1_000_000
	probe := "SELECT " + strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels)
	if _, err := sqlparser.Parse(probe); err == nil || !strings.Contains(err.Error(), "statement nests deeper than 1000 levels") {
		t.Fatalf("the probe parses to %v, want the nesting error", err)
	}
	if got := perParse(probe, 5); got >= 1<<20 {
		t.Errorf("parsing %d nested parentheses allocates %d B, want under 1 MiB", levels, got)
	}
	insert := churnInsert(200)
	if _, err := sqlparser.Parse(insert); err != nil {
		t.Fatal(err)
	}
	if got := perParse(insert, 20); got > 78192 {
		t.Errorf("a warm parse of a 200-row INSERT allocates %d B, more than 78 192 B", got)
	}
}

func BenchmarkParse(b *testing.B) {
	for _, s := range parseShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := sqlparser.ParseParams(s.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
