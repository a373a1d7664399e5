package hive

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sqlparser"
)

// vexprTestScope mirrors the vx test table for direct compiler tests.
func vexprTestScope() *scope {
	return &scope{cols: []scopeCol{
		{qual: "vx", name: "id", kind: datum.KindInt},
		{qual: "vx", name: "a", kind: datum.KindInt},
		{qual: "vx", name: "b", kind: datum.KindInt},
		{qual: "vx", name: "f", kind: datum.KindFloat},
		{qual: "vx", name: "g", kind: datum.KindFloat},
		{qual: "vx", name: "s", kind: datum.KindString},
	}}
}

func parseSelectExpr(t *testing.T, exprSQL string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT " + exprSQL + " FROM vx")
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	return stmt.(*sqlparser.SelectStmt).Items[0].Expr
}

// adaptorsOf lists the subtrees a program runs as adaptors, in
// instruction order.
func adaptorsOf(p *vexprProg) []string {
	var out []string
	for _, in := range p.insts {
		if in.op == vopAdapt {
			out = append(out, in.ad.x.String())
		}
	}
	return out
}

// TestCompileVexprCoverage pins which nodes of an expression compile to
// typed instructions and which run as adaptors, so the equivalence suite
// below cannot silently pass with everything on the row closures; and
// that under the row oracle every program is one adaptor over its whole
// expression.
func TestCompileVexprCoverage(t *testing.T) {
	sc := vexprTestScope()
	e := testEngine(t)
	for _, c := range []struct {
		src      string
		adaptors []string // nil: typed throughout
	}{
		{"a", nil}, // a bare column aliases the batch's vector
		{"a + b", nil},
		{"a % b", nil},
		{"f * (1 - g)", nil},           // TPC-H Q1 disc_price shape
		{"f * (1 - g) * (1 + a)", nil}, // TPC-H Q1 charge shape
		{"-f + a", nil},
		{"CASE WHEN a < b THEN f ELSE g END", nil},                 // searched CASE
		{"CASE s WHEN 'x' THEN 1 WHEN 'y' THEN 2 ELSE 0 END", nil}, // operand CASE
		{"IF(a < b, 1, 0)", nil},
		{"(a < b) AND (f >= g)", nil},
		{"NOT (a = b) OR (f > 1.5)", nil},
		{"s + a", []string{"s + a"}}, // string arithmetic coerces per row
		{"a < s", []string{"a < s"}}, // cross-kind comparison orders by kind tag
		{"CASE WHEN a < b THEN f ELSE s END", []string{"CASE WHEN a < b THEN f ELSE s END"}}, // mixed-kind branches
		{"LENGTH(s)", []string{"LENGTH(s)"}},
		{"LENGTH(s) + a", []string{"LENGTH(s) + a"}}, // a function's kind is only known per row
		{"CAST(s AS DOUBLE)", []string{"CAST(s AS DOUBLE)"}},
		// A predicate adaptor is BOOLEAN: typed connectives consume it.
		{"a < 3 AND s LIKE 'x%'", []string{"s LIKE 'x%'"}},
		{"NOT (b IN (1, 2)) OR f BETWEEN 0 AND 1", []string{"b IN (1, 2)", "f BETWEEN 0 AND 1"}},
		{"CASE WHEN s IS NULL THEN a ELSE b END", []string{"s IS NULL"}},
		{"IF(s LIKE 'x%', f * 2, g)", []string{"s LIKE 'x%'"}},
		// A subquery makes the whole expression one adaptor.
		{"a + 1 < (SELECT 2)", []string{"a + 1 < (SELECT 2)"}},
	} {
		x := parseSelectExpr(t, c.src)
		var want []string
		for _, a := range c.adaptors {
			want = append(want, parseSelectExpr(t, a).String())
		}
		for _, oracle := range []bool{false, true} {
			e.MR.DisableBatchScan = oracle
			p, err := e.compileVexpr(nil, x, sc)
			if err != nil {
				t.Fatalf("compileVexpr(%q): %v", c.src, err)
			}
			if oracle {
				want = []string{x.String()}
			}
			if got := adaptorsOf(p); !slices.Equal(got, want) {
				t.Errorf("compileVexpr(%q) oracle=%v: adaptors %q, want %q", c.src, oracle, got, want)
			}
		}
		e.MR.DisableBatchScan = false
	}
}

// TestScanFilterCoverage pins how WHERE splits into conjunct programs,
// which of them run typed (T) and which hold an adaptor (A), and that
// the typed ones run first.
func TestScanFilterCoverage(t *testing.T) {
	sc := vexprTestScope()
	e := testEngine(t)
	filterOf := func(src string) scanFilter {
		f, err := e.newScanFilter(nil, parseSelectExpr(t, src), sc)
		if err != nil {
			t.Fatalf("WHERE %s: %v", src, err)
		}
		return f
	}
	shape := func(src string) string {
		var sb strings.Builder
		for _, p := range filterOf(src).where {
			if p.typed() {
				sb.WriteByte('T')
			} else {
				sb.WriteByte('A')
			}
		}
		return sb.String()
	}
	for src, want := range map[string]string{
		"a < 5": "T", "f >= 1.5": "T", "s = 'x'": "T", // col op lit per kind
		"5 > a":   "T",               // literal on the left
		"a < 2.5": "T", "f > 1": "T", // mixed numeric column and literal
		"a < b": "T", "f != g": "T", // column vs column
		"a % 20 = 0":                  "T", // arithmetic inside the comparison
		"a < 0 OR NOT (s = 'x')":      "T", // 3VL connectives
		"a = NULL":                    "T", // statically NULL: never TRUE
		"a + b":                       "T", // not boolean: never TRUE
		"a < 5 AND f > 0 AND s < 'y'": "TTT",
		"a < s":                       "A", // cross-kind comparison orders by kind tag
		"s = 1":                       "A",
		"s LIKE 'x%'":                 "A",
		"a IN (1, 2, 3)":              "A",
		"s LIKE 'x%' AND a < 5 AND b IN (1) AND f > 0": "TTAA", // adaptors run last
		"a < 0 OR s LIKE 'x%'":                         "A",
		"a < 5 AND b = (SELECT 1)":                     "A", // a subquery keeps WHERE whole
	} {
		if got := shape(src); got != want {
			t.Errorf("WHERE %s: conjuncts %s, want %s", src, got, want)
		}
	}

	// A vectorized filter sizes its selection vector to the survivors,
	// not to the batch: every scan and DML task carries one.
	const n = 1024
	cols := make([]datum.ColumnVector, len(sc.cols))
	for c := range cols {
		cols[c].Reset(sc.cols[c].kind, n)
		for i := 0; i < n; i++ {
			d := datum.Int(int64(i))
			switch sc.cols[c].kind {
			case datum.KindFloat:
				d = datum.Float(float64(i))
			case datum.KindString:
				d = datum.String_("x")
			}
			cols[c].SetDatum(i, d)
		}
	}
	f := filterOf("a < 3")
	for range 2 { // the second batch reuses the first's vector
		sel, err := f.begin(&mapred.RecordBatch{Len: n, Cols: cols})
		if err != nil || !slices.Equal(sel, []int32{0, 1, 2}) {
			t.Fatalf("WHERE a < 3 selected %v, %v", sel, err)
		}
		if cap(sel) >= 16 {
			t.Errorf("WHERE a < 3 over %d rows: cap(sel) = %d, want it sized to the 3 survivors", n, cap(sel))
		}
	}
}

// TestScanFilterVectorRowAgreement drives scanFilter.begin directly
// over hand-built batches — including an all-NULL (KindNull) vector as
// an unprojected or all-NULL column arrives, and a vector whose kind
// contradicts the schema (the runtime bail) — and requires the
// columnar selection to equal the row predicate's over the batch's
// live slots.
func TestScanFilterVectorRowAgreement(t *testing.T) {
	e := testEngine(t)
	sc := vexprTestScope()
	const n = 50
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i%7 - 3)), datum.Null,
			datum.Float(float64(i) / 4), datum.Float(float64(i%5) - 2), datum.String_(string(rune('w' + i%4)))}
		if i%6 == 0 {
			rows[i][1], rows[i][3] = datum.Null, datum.Null
		}
	}
	columnar := func(stringsAsInts bool) *mapred.RecordBatch {
		cols := make([]datum.ColumnVector, len(sc.cols))
		for c := range cols {
			kind := sc.cols[c].kind
			if c == 2 {
				kind = datum.KindNull // b: every row NULL, no typed storage
			}
			if c == 1 && stringsAsInts {
				kind = datum.KindString // a: data contradicts the schema
			}
			cols[c].Reset(kind, n)
			for i := range rows {
				d := rows[i][c]
				if c == 1 && stringsAsInts && !d.IsNull() {
					d = datum.String_(fmt.Sprint(d.I))
				}
				if !cols[c].SetDatum(i, d) {
					t.Fatalf("column %d row %d: vector rejected %v", c, i, d)
				}
			}
		}
		return &mapred.RecordBatch{Len: n, Cols: cols}
	}
	for _, src := range []string{
		"a < 1", "1 >= a", "a < 0.5", "f > 3", "s >= 'x'", "a < f", "a % 2 = 0",
		"b = 1", "b < a OR f > 10", "NOT (b = 1) OR a < 0", "a < 0 AND (b = 1 OR s = 'w')",
		"a = NULL", "s LIKE 'x%'", "a IN (1, 2)",
		"s LIKE 'x%' AND a > -2 AND f IS NOT NULL", "a BETWEEN -1 AND 1 OR s IN ('w', 'z')",
	} {
		vf, err := e.newScanFilter(nil, parseSelectExpr(t, src), sc)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		where, err := e.compileExpr(nil, parseSelectExpr(t, src), sc)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, bail := range []bool{false, true} {
			// Every fifth slot is deleted: the filter starts from the
			// batch's selection and never reports a deleted slot.
			cb := columnar(bail)
			var want []int32
			for i := 0; i < n; i++ {
				if i%5 == 0 {
					continue
				}
				cb.Sel = append(cb.Sel, int32(i))
				ok, err := where(cb.RowInto(nil, i))
				if err != nil {
					t.Fatalf("%s (row %d): %v", src, i, err)
				}
				if ok.Truthy() {
					want = append(want, int32(i))
				}
			}
			f := vf // an unused copy of the template
			got, err := f.begin(cb)
			if err != nil {
				t.Fatalf("%s (columnar): %v", src, err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("WHERE %s (kind bail=%v): columnar selection %v, row predicate's %v", src, bail, got, want)
			}
		}
	}
}

// seedVexprTable loads n rows (plus two) exercising the compiler's edge
// cases: NULLs scattered through every column on different strides,
// int64 overflow magnitudes, zero divisors and sign changes.
func seedVexprTable(t *testing.T, e *Engine, n int) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE vx (id BIGINT, a BIGINT, b BIGINT, f DOUBLE, g DOUBLE, s STRING) STORED AS ORC")
	var rows []datum.Row
	strs := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		r := datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i)*2654435761 - 900), // wraps through both signs
			datum.Int(int64(i%11) - 5),           // hits 0 (division/modulo by zero)
			datum.Float(float64(i-250) / 7),
			datum.Float(float64(i%13-6) / 3), // hits 0.0
			datum.String_(strs[i%len(strs)]),
		}
		if i%7 == 0 {
			r[1] = datum.Null
		}
		if i%5 == 0 {
			r[2] = datum.Null
		}
		if i%3 == 0 {
			r[3] = datum.Null
		}
		if i%17 == 0 {
			r[4] = datum.Null
		}
		if i%19 == 0 {
			r[5] = datum.Null
		}
		rows = append(rows, r)
	}
	// Overflow edges: a*b and a+b must wrap identically on both paths.
	rows = append(rows,
		datum.Row{datum.Int(int64(n)), datum.Int(math.MaxInt64), datum.Int(2), datum.Float(1e308), datum.Float(-1e308), datum.String_("x")},
		datum.Row{datum.Int(int64(n) + 1), datum.Int(math.MinInt64), datum.Int(-1), datum.Float(0.1), datum.Float(0), datum.String_("y")},
	)
	if _, err := e.BulkLoad("vx", rows); err != nil {
		t.Fatal(err)
	}
}

// TestVexprBatchRowEquivalence runs expression-heavy queries across
// {1, 4 workers} x {batch scan, row scan} and requires byte-identical
// rows and identical SimSeconds everywhere. Under row scan every program
// is one adaptor over its expression's row closure, so row evaluation is
// an independent oracle for the typed instructions. The table is one
// file of three batches read through the production ORC reader: an
// overlay scatters updates into the first (one of them into a column
// most of the queries do not project, one a string into the BIGINT
// column b, turning it mixed), leaves a deleted record out of the
// second's selection, and leaves the third clean, so every mapper meets
// whole, selected and mixed batches, and the switch between them,
// inside one task.
func TestVexprBatchRowEquivalence(t *testing.T) {
	queries := []string{
		// Arithmetic incl. wraparound, div/mod by zero, unary minus.
		"SELECT id, a + b, a - b, a * b, a / b, a % b, -a, f / g, f % g, f * (1 - g) FROM vx ORDER BY id",
		// Column-column comparisons and 3VL logic.
		"SELECT id, a < b, f >= g, (a < b) AND (f >= g), (a = b) OR (f != g), NOT (a < b) FROM vx ORDER BY id",
		// Boolean operands: register vs register and vs a fused literal.
		"SELECT id, (a < b) = (f >= g), (a < b) != TRUE, FALSE < (f > g) FROM vx WHERE (a < b) >= (s = 'x') ORDER BY id",
		// CASE: searched with no-ELSE fallthrough, operand form, IF.
		"SELECT id, CASE WHEN a < 0 THEN 'neg' WHEN a = 0 THEN 'zero' ELSE 'pos' END, " +
			"CASE WHEN f > g THEN a + 1 WHEN f < g THEN a - 1 END, " +
			"CASE s WHEN 'x' THEN 1 WHEN 'y' THEN 2 ELSE 0 END, IF(a < b, f, g) FROM vx ORDER BY id",
		// Aggregation over computed arguments (TPC-H Q1 shape).
		"SELECT s, COUNT(*), SUM(f * (1 - g)), SUM(f * (1 - g) * (1 + a)), AVG(a + b), " +
			"MIN(a * 2), MAX(f - g), SUM(a / b), SUM(a % b) FROM vx GROUP BY s ORDER BY s",
		// Arithmetic filter over program projections.
		"SELECT id, f * (1 - g) FROM vx WHERE a + b > 0 ORDER BY id",
		// WHERE shapes: col op lit per kind, literal on the left, int
		// column vs float literal, col-vs-col, arithmetic inside the
		// comparison, OR/NOT, a NULL literal.
		"SELECT id, s FROM vx WHERE b < 2 AND f >= -3.5 AND s != 'w' ORDER BY id",
		"SELECT id FROM vx WHERE 250 <= id AND 1 > g ORDER BY id",
		"SELECT id, a FROM vx WHERE b < 0.5 AND f > 3 ORDER BY id",
		"SELECT id FROM vx WHERE a < b OR f = g ORDER BY id",
		"SELECT id, COUNT(*) FROM vx WHERE id % 20 = 0 GROUP BY id ORDER BY id",
		"SELECT s, COUNT(*), SUM(f) FROM vx WHERE b < 0 OR NOT (s = 'x') GROUP BY s ORDER BY s",
		"SELECT COUNT(*), COUNT(DISTINCT s) FROM vx WHERE NOT (a < b) AND g < 1",
		"SELECT COUNT(*) FROM vx WHERE a = NULL OR b > 4",
		// Conjuncts and subtrees that run as adaptors.
		"SELECT id FROM vx WHERE s LIKE 'x%' AND b > 0 ORDER BY id",
		"SELECT id FROM vx WHERE b IN (1, 3, 5) ORDER BY id",
		"SELECT id FROM vx WHERE s > 1 ORDER BY id",
		"SELECT id, s FROM vx WHERE b < 3 AND s LIKE 'x%' AND b IN (-5, 0, 2) AND id BETWEEN 100 AND 2400 AND g IS NOT NULL ORDER BY id",
		"SELECT id, f IS NULL, a BETWEEN b AND 0 FROM vx WHERE f IS NULL AND (b > 0 OR s IN ('y', 'w')) ORDER BY id",
		"SELECT id, LENGTH(s) + a, LENGTH(s) + b, CAST(b AS DOUBLE) FROM vx ORDER BY id",
		"SELECT s, SUM(LENGTH(s) + b), MAX(LENGTH(s) + a), COUNT(DISTINCT LENGTH(s) + b) FROM vx GROUP BY s ORDER BY s",
		"SELECT s, COUNT(*), SUM(b) FROM vx GROUP BY s HAVING s LIKE 'x%' OR SUM(b) > 0 ORDER BY s",
		"SELECT id FROM vx WHERE id < 0 AND a > (SELECT MIN(a) FROM vx) ORDER BY id",
		"SELECT id, b FROM vx WHERE b > 3 AND a > (SELECT AVG(a) FROM vx) ORDER BY id",
		// Streaming top-N: per-task heaps must reproduce sort+truncate.
		"SELECT id, a + b FROM vx ORDER BY a + b DESC, id LIMIT 5",
		"SELECT id, f FROM vx WHERE f > 0 ORDER BY f / g, id LIMIT 3",
		"SELECT id FROM vx ORDER BY s, id LIMIT 0",
		"SELECT id, s FROM vx ORDER BY s DESC, id LIMIT 10000",
	}

	type config struct {
		workers int
		engine  *Engine
	}
	var configs []config
	for _, workers := range []int{1, 4} {
		e := testEngine(t)
		e.MR.Parallelism = workers
		seedVexprTable(t, e, 2600)
		overlayORC(e, buildOverlay(func(b *OverlayBuilder) {
			b.Record(3)
			b.Set(1, datum.Int(-4))
			b.Set(5, datum.String_("y"))
			b.Record(700)
			b.Set(3, datum.Null)
			b.Set(4, datum.Float(0.5))
			b.Record(900)
			b.Set(2, datum.String_("4"))
			b.Record(1500)
			b.Delete()
			b.Record(1501)
			b.Set(2, datum.Int(0))
		}))
		configs = append(configs, config{workers, e})
	}

	for qi, q := range queries {
		var refOut string
		var refSim float64
		first := true
		for _, cfg := range configs {
			for _, disable := range []bool{false, true} {
				cfg.engine.MR.DisableBatchScan = disable
				rs := mustExec(t, cfg.engine, q)
				var sb strings.Builder
				for _, r := range rs.Rows {
					sb.WriteString(r.String())
					sb.WriteByte('\n')
				}
				out := sb.String()
				label := fmt.Sprintf("query %d, workers=%d, rowScan=%v", qi, cfg.workers, disable)
				if first {
					refOut, refSim = out, rs.SimSeconds
					first = false
					continue
				}
				if out != refOut {
					t.Errorf("%s: rows differ from reference:\n%s--- want ---\n%s", label, out, refOut)
				}
				if rs.SimSeconds != refSim {
					t.Errorf("%s: SimSeconds = %v, want %v", label, rs.SimSeconds, refSim)
				}
			}
			cfg.engine.MR.DisableBatchScan = false
		}
	}
}

// TestTopNMatchesFullSort checks ORDER BY ... LIMIT against the
// unlimited query: the limited result must be exactly the prefix.
func TestTopNMatchesFullSort(t *testing.T) {
	e := testEngine(t)
	seedVexprTable(t, e, 500)
	full := mustExec(t, e, "SELECT id, a % 97, s FROM vx ORDER BY a % 97 DESC, s, id")
	for _, limit := range []int{1, 7, 100, 502, 600} {
		q := fmt.Sprintf("SELECT id, a %% 97, s FROM vx ORDER BY a %% 97 DESC, s, id LIMIT %d", limit)
		rs := mustExec(t, e, q)
		want := len(full.Rows)
		if limit < want {
			want = limit
		}
		if len(rs.Rows) != want {
			t.Fatalf("LIMIT %d returned %d rows, want %d", limit, len(rs.Rows), want)
		}
		for i := range rs.Rows {
			if rs.Rows[i].String() != full.Rows[i].String() {
				t.Errorf("LIMIT %d row %d = %s, want %s", limit, i, rs.Rows[i], full.Rows[i])
			}
		}
	}
}

// drainVexprStates empties the register free list and returns what it
// held.
func drainVexprStates() map[*vexprState]bool {
	held := map[*vexprState]bool{}
	for {
		select {
		case st := <-vexprStates:
			held[st] = true
		default:
			return held
		}
	}
}

// TestVexprRegistersBorrowedAndReturned: a mapper's registers come from
// the free list and go back at its Close holding no alias of a batch
// vector, so a second run of the statement constructs none. (That Close
// runs however a task ends is mapred's TestMapperClosedHoweverTaskEnds.)
func TestVexprRegistersBorrowedAndReturned(t *testing.T) {
	e := testEngine(t)
	e.MR.Parallelism = 1
	seedVexprTable(t, e, 2600)
	const q = "SELECT s, SUM(f * (1 - g)), AVG(a + b) FROM vx WHERE a + b > 0 GROUP BY s ORDER BY s"
	drainVexprStates()
	first := mustExec(t, e, q)
	after := drainVexprStates()
	if len(after) != 3 {
		t.Fatalf("the statement returned %d register states, want 3 (WHERE and two aggregate arguments)", len(after))
	}
	for st := range after {
		for i, r := range st.regs {
			if r != nil {
				t.Errorf("returned state still aliases a vector in register %d", i)
			}
		}
		vexprStates.Put(st)
	}
	second := mustExec(t, e, q)
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Errorf("recycled registers changed the result: %v, was %v", second.Rows, first.Rows)
	}
	again := drainVexprStates()
	if !reflect.DeepEqual(again, after) {
		t.Errorf("the second run did not reuse the first run's states: %d held, %d before", len(again), len(after))
	}
}

// TestVexprRegistersSharedAcrossStatements runs statements whose
// programs differ in shape and kinds concurrently, on engines that share
// the one free list: a register a mapper kept past its Close would be
// written by another statement's mapper, which the race detector sees
// and the results show.
func TestVexprRegistersSharedAcrossStatements(t *testing.T) {
	queries := []string{
		"SELECT id, a + b, f * (1 - g) FROM vx WHERE b < 2 ORDER BY id",
		"SELECT s, COUNT(*), SUM(f * (1 - g)), MIN(a * 2) FROM vx GROUP BY s ORDER BY s",
		"SELECT id, CASE WHEN a < 0 THEN 'neg' ELSE 'pos' END, (a < b) AND (f >= g) FROM vx WHERE s != 'w' ORDER BY id",
		"SELECT id, IF(a < b, f, g) FROM vx WHERE 250 <= id AND 1 > g ORDER BY id",
	}
	render := func(rs *ResultSet) string {
		var sb strings.Builder
		for _, r := range rs.Rows {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	engines := make([]*Engine, len(queries))
	want := make([]string, len(queries))
	for i, q := range queries {
		engines[i] = testEngine(t)
		engines[i].MR.Parallelism = 2
		seedVexprTable(t, engines[i], 2600)
		want[i] = render(mustExec(t, engines[i], q))
	}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				rs, err := engines[i].Execute(q)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if got := render(rs); got != want[i] {
					t.Errorf("query %d: result changed under concurrent register reuse", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
