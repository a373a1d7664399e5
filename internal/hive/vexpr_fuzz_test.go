package hive

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
)

// vexprGen draws random expressions, as SQL text, over the columns of
// vexprTestScope.
type vexprGen struct{ r *rand.Rand }

func (g *vexprGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *vexprGen) expr(depth int) string {
	if depth == 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(2) == 0 {
			return g.pick("id", "a", "b", "f", "g", "s")
		}
		return g.pick("NULL", "0", "1", "-3", "7", "2.5", "-0.5", "0.0", "'x'", "'y1'", "''", "'3'", "TRUE", "FALSE")
	}
	x := func() string { return g.expr(depth - 1) }
	switch g.r.Intn(15) {
	case 0:
		return "(" + x() + " " + g.pick("+", "-", "*", "/", "%") + " " + x() + ")"
	case 1:
		return "(" + x() + " " + g.pick("=", "!=", "<", "<=", ">", ">=") + " " + x() + ")"
	case 2:
		return "(" + x() + " " + g.pick("AND", "OR") + " " + x() + ")"
	case 3:
		return "(NOT " + x() + ")"
	case 4:
		return "(- " + x() + ")" // "--" would open a comment
	case 5:
		return "(CASE WHEN " + x() + " THEN " + x() + " WHEN " + x() + " THEN " + x() + " ELSE " + x() + " END)"
	case 6:
		return "(CASE " + x() + " WHEN " + x() + " THEN " + x() + " END)"
	case 7:
		return "IF(" + x() + ", " + x() + ", " + x() + ")"
	case 8:
		return "(" + x() + " " + g.pick("IN", "NOT IN") + " (" + x() + ", " + x() + "))"
	case 9:
		return "(" + x() + " BETWEEN " + x() + " AND " + x() + ")"
	case 10:
		return "(" + x() + " LIKE " + g.pick("'x%'", "'_1'", "'%'", "'y%1'") + ")"
	case 11:
		return "(" + x() + " IS " + g.pick("", "NOT ") + "NULL)"
	case 12:
		return "CAST(" + x() + " AS " + g.pick("BIGINT", "DOUBLE", "STRING", "BOOLEAN") + ")"
	case 13:
		return "COALESCE(" + x() + ", " + x() + ")"
	default:
		if g.r.Intn(2) == 0 {
			return "LENGTH(" + x() + ")"
		}
		return "SUBSTR(" + x() + ", " + x() + g.pick("", ", "+x()) + ")"
	}
}

// fuzzBatches returns two batches over vexprTestScope with NULLs
// scattered through every column and every fourth slot deleted: one
// typed throughout, and one whose BIGINT column b also holds strings.
func fuzzBatches() []*mapred.RecordBatch {
	const n = 37
	strs := []string{"x1", "y", "", "3", "xy1"}
	var out []*mapred.RecordBatch
	for _, mixed := range []bool{false, true} {
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i*7 - 100)), datum.Int(int64(i%7 - 3)),
				datum.Float(float64(i%9-4) / 2), datum.Float(float64(i) * 1.5), datum.String_(strs[i%len(strs)])}
			for c := 1; c < len(rows[i]); c++ {
				if (i+c)%(c+3) == 0 {
					rows[i][c] = datum.Null
				}
			}
			if mixed && i%5 == 2 {
				rows[i][2] = datum.String_(fmt.Sprint(i % 4))
			}
		}
		var vecs datum.Batch
		vecs.SetRows(rows, len(rows[0]))
		b := &mapred.RecordBatch{Len: n, Cols: vecs.Cols}
		for i := 0; i < n; i++ {
			if i%4 != 1 {
				b.Sel = append(b.Sel, int32(i))
			}
		}
		out = append(out, b)
	}
	return out
}

// sameDatum is equality of kind and bits.
func sameDatum(x, y datum.Datum) bool {
	return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F) && x.B == y.B && x.S == y.S
}

// FuzzVexprMatchesRow: a generated expression's program yields its row
// closure's value, kind included, at every live slot of a batch — typed
// instructions, adaptors and the whole-closure fallback of a mixed
// column alike.
func FuzzVexprMatchesRow(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed)
	}
	e := testEngine(f)
	sc := vexprTestScope()
	batches := fuzzBatches()
	f.Fuzz(func(t *testing.T, seed int64) {
		g := &vexprGen{r: rand.New(rand.NewSource(seed))}
		var st *vexprState
		defer releaseState(&st)
		for range 8 {
			src := g.expr(4)
			x := parseSelectExpr(t, src)
			p, err := e.compileVexpr(nil, x, sc)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			fn, err := e.compileExpr(nil, x, sc)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			for bi, b := range batches {
				v, err := p.evalBatch(&st, b, b.Sel)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				for _, i := range b.Sel {
					want, err := fn(b.RowInto(nil, int(i)))
					if err != nil {
						t.Fatalf("%s: row closure: %v", src, err)
					}
					if got := v.Datum(int(i)); !sameDatum(got, want) {
						t.Fatalf("%s (batch %d, slot %d; adaptors %q): program %#v, row closure %#v",
							src, bi, i, adaptorsOf(p), got, want)
					}
				}
			}
		}
	})
}

// TestAdaptorSeesOnlySurvivors: in WHERE a < 3 AND s LIKE 'x%' the LIKE
// closure runs once per live slot where a < 3 holds, in slot order, and
// never at a deleted slot or one the typed conjunct dropped.
func TestAdaptorSeesOnlySurvivors(t *testing.T) {
	e := testEngine(t)
	sc := vexprTestScope()
	f, err := e.newScanFilter(nil, parseSelectExpr(t, "a < 3 AND s LIKE 'x%'"), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.where) != 2 || !f.where[0].typed() || f.where[1].typed() {
		t.Fatalf("want the typed conjunct, then the adaptor; got %d conjuncts", len(f.where))
	}
	ad := f.where[1].insts[len(f.where[1].insts)-1].ad
	like := ad.fn
	var calls []string
	ad.fn = func(row datum.Row) (datum.Datum, error) {
		calls = append(calls, row[5].S)
		return like(row)
	}
	const n = 64
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 6)), datum.Null, datum.Null, datum.Null, datum.String_(fmt.Sprintf("x%d", i))}
		if i%7 == 0 {
			rows[i][1] = datum.Null
		}
	}
	var vecs datum.Batch
	vecs.SetRows(rows, len(sc.cols))
	b := &mapred.RecordBatch{Len: n, Cols: vecs.Cols}
	var want []string
	for i := 0; i < n; i++ {
		if i%4 == 1 {
			continue // deleted
		}
		b.Sel = append(b.Sel, int32(i))
		if i%7 != 0 && i%6 < 3 {
			want = append(want, fmt.Sprintf("x%d", i))
		}
	}
	sel, err := f.begin(b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(calls, want) {
		t.Errorf("LIKE ran at %s, want exactly %s", strings.Join(calls, " "), strings.Join(want, " "))
	}
	if len(sel) != len(want) {
		t.Errorf("WHERE selected %d slots, want %d", len(sel), len(want))
	}
}
