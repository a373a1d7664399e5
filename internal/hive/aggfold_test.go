package hive

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
)

// rowFoldMapper is the oracle of the map-side hash aggregation: it
// folds each selected row, one aggregate at a time, into its group's
// six-Datum segments with updatePartial, and flushes the table when a
// new group finds it full.
type rowFoldMapper struct {
	aggScanSpec
	accum map[string]datum.Row
	order []string
}

func (m *rowFoldMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	sel, err := m.filter.begin(b)
	if err != nil || len(sel) == 0 {
		return err
	}
	if err := beginBatchAll(m.groups, b, sel); err != nil {
		return err
	}
	if err := beginBatchAll(m.args, b, sel); err != nil {
		return err
	}
	nGroup := len(m.groups)
	for _, i := range sel {
		grp := make(datum.Row, nGroup)
		for gi := range m.groups {
			grp[gi] = m.groups[gi].res.Datum(int(i))
		}
		key := string(datum.SortableRowKey(nil, grp))
		acc, ok := m.accum[key]
		if !ok {
			if len(m.accum) >= maxHashGroups {
				if err := m.Flush(emit); err != nil {
					return err
				}
			}
			if m.accum == nil {
				m.accum = map[string]datum.Row{}
			}
			acc = grp
			for range m.aggs {
				acc = append(acc, zeroPartial[:]...)
			}
			m.accum[key] = acc
			m.order = append(m.order, key)
		}
		for ai := range m.aggs {
			seg := acc[nGroup+ai*aggPartialWidth:]
			if m.aggs[ai].star {
				updatePartial(seg, datum.Bool(true))
			} else {
				updatePartial(seg, m.args[ai].res.Datum(int(i)))
			}
		}
	}
	return nil
}

func (m *rowFoldMapper) Flush(emit mapred.Emitter) error {
	for _, key := range m.order {
		if err := emit([]byte(key), m.accum[key]); err != nil {
			return err
		}
	}
	m.accum, m.order = nil, nil
	return nil
}

// foldCase is one generated aggregation: its batches over the columns
// c0..c3 of foldTestScope, its group-by columns, and its aggregate
// arguments (-1: COUNT(*)).
type foldCase struct {
	batches []*mapred.RecordBatch
	groups  []int
	args    []int
}

func foldTestScope() *scope {
	sc := &scope{}
	for c := range 4 {
		sc.cols = append(sc.cols, scopeCol{qual: "vx", name: fmt.Sprintf("c%d", c), kind: datum.KindInt})
	}
	return sc
}

// genFoldCase draws batches whose columns change storage from batch to
// batch — BIGINT, DOUBLE, STRING, BOOLEAN, mixed, all NULL — over small
// value pools, so groups recur across batches and meet one kind, then
// another: NULLs, NaN, ±0, ±Inf, strings holding 0x00, and DOUBLEs
// whose keys equal a BIGINT's.
func genFoldCase(r *rand.Rand) foldCase {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, math.Inf(1), math.Inf(-1), 1, 2, 1e300, 0.1}
	strs := []string{"", "a", "b", "a\x00", "1", "zz"}
	value := func(storage int) datum.Datum {
		if r.Intn(5) == 0 {
			return datum.Null
		}
		if storage == 4 { // mixed: a kind per value
			storage = r.Intn(4)
		}
		switch storage {
		case 0:
			if r.Intn(10) == 0 {
				return datum.Int([]int64{math.MaxInt64, math.MinInt64, 1 << 53}[r.Intn(3)])
			}
			return datum.Int(int64(r.Intn(5) - 2))
		case 1:
			return datum.Float(floats[r.Intn(len(floats))])
		case 2:
			return datum.String_(strs[r.Intn(len(strs))])
		case 3:
			return datum.Bool(r.Intn(2) == 0)
		default:
			return datum.Null
		}
	}
	var c foldCase
	for range 1 + r.Intn(4) {
		n := 1 + r.Intn(40)
		storage := make([]int, 4)
		for col := range storage {
			// Mostly numeric, as aggregate arguments are.
			storage[col] = []int{0, 0, 1, 1, 2, 3, 4, 5}[r.Intn(8)]
		}
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = make(datum.Row, 4)
			for col := range rows[i] {
				rows[i][col] = value(storage[col])
			}
		}
		var vecs datum.Batch
		vecs.SetRows(rows, 4)
		b := &mapred.RecordBatch{Len: n, Cols: vecs.Cols}
		if r.Intn(2) == 0 {
			b.Sel = []int32{}
			for i := range n {
				if r.Intn(4) != 0 {
					b.Sel = append(b.Sel, int32(i))
				}
			}
		}
		c.batches = append(c.batches, b)
	}
	for range r.Intn(3) {
		c.groups = append(c.groups, r.Intn(4))
	}
	for range 1 + r.Intn(4) {
		c.args = append(c.args, r.Intn(5)-1)
	}
	return c
}

type foldEmit struct {
	key []byte
	row datum.Row
}

// runFold drives a mapper over the case's batches and returns what it
// emitted, keys and rows copied as the shuffle would.
func runFold(t *testing.T, m mapred.Mapper, c foldCase) []foldEmit {
	t.Helper()
	var out []foldEmit
	emit := func(key []byte, row datum.Row) error {
		out = append(out, foldEmit{bytes.Clone(key), row.Clone()})
		return nil
	}
	for _, b := range c.batches {
		if err := m.MapBatch(b, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkPartialFold compares the two folds over seed's case, with the
// table's flush cap at 3 on odd seeds so flushes land inside batches.
func checkPartialFold(t *testing.T, e *Engine, seed int64) {
	r := rand.New(rand.NewSource(seed))
	c := genFoldCase(r)
	if seed%2 == 1 {
		old := maxHashGroups
		maxHashGroups = 3
		defer func() { maxHashGroups = old }()
	}
	compareFold(t, e, seed, c)
}

// compareFold runs c through the map-side hash aggregation and through
// rowFoldMapper and requires the same (key, row) sequence, floats
// compared by bits.
func compareFold(t *testing.T, e *Engine, seed int64, c foldCase) {
	t.Helper()
	sc := foldTestScope()
	col := func(i int) vecExpr {
		p, err := e.compileVexpr(nil, parseSelectExpr(t, fmt.Sprintf("c%d", i)), sc)
		if err != nil {
			t.Fatal(err)
		}
		return vecExpr{prog: p}
	}
	filter, err := e.newScanFilter(nil, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	spec := aggScanSpec{filter: filter}
	for _, g := range c.groups {
		spec.groups = append(spec.groups, col(g))
	}
	for _, a := range c.args {
		if a < 0 {
			spec.args = append(spec.args, vecExpr{})
			spec.aggs = append(spec.aggs, aggSpec{star: true})
		} else {
			spec.args = append(spec.args, col(a))
			spec.aggs = append(spec.aggs, aggSpec{})
		}
	}
	vec := &aggScanMapper{aggScanSpec: spec.cloneForMapper(), partial: true}
	defer vec.Close()
	ref := &rowFoldMapper{aggScanSpec: spec.cloneForMapper()}
	defer releaseRegisters(&ref.filter, ref.groups, ref.args)
	got, want := runFold(t, vec, c), runFold(t, ref, c)
	if len(got) != len(want) {
		t.Fatalf("seed %d (groups %v, args %v): %d partial rows, oracle %d", seed, c.groups, c.args, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		same := bytes.Equal(g.key, w.key) && len(g.row) == len(w.row)
		for i := 0; same && i < len(w.row); i++ {
			same = sameDatum(g.row[i], w.row[i])
		}
		if !same {
			t.Fatalf("seed %d (groups %v, args %v): row %d is %x %#v, oracle %x %#v",
				seed, c.groups, c.args, k, g.key, g.row, w.key, w.row)
		}
	}
}

// TestPartialFoldMatchesRow: the typed, column-at-a-time map-side fold
// emits exactly what folding each record into six-Datum segments with
// updatePartial emits, over generated batches.
func TestPartialFoldMatchesRow(t *testing.T) {
	e := testEngine(t)
	for seed := range int64(400) {
		checkPartialFold(t, e, seed)
	}
}

// FuzzPartialFoldMatchesRow is TestPartialFoldMatchesRow over fuzzed
// seeds.
func FuzzPartialFoldMatchesRow(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed)
	}
	e := testEngine(f)
	f.Fuzz(func(t *testing.T, seed int64) { checkPartialFold(t, e, seed) })
}

// TestPartialFoldNoGroupBy: without GROUP BY every selected row folds
// into the one group, over batches that all carry a selection vector,
// and a table cut of one group never splits it.
func TestPartialFoldNoGroupBy(t *testing.T) {
	e := testEngine(t)
	old := maxHashGroups
	maxHashGroups = 1
	defer func() { maxHashGroups = old }()
	for seed := range int64(100) {
		c := genFoldCase(rand.New(rand.NewSource(seed)))
		c.groups = nil
		for _, b := range c.batches {
			if b.Sel == nil {
				b.Sel = []int32{}
				for i := range b.Len {
					if i%3 != 1 {
						b.Sel = append(b.Sel, int32(i))
					}
				}
			}
		}
		compareFold(t, e, seed, c)
	}
}

// TestPartialFoldSwitchesKind pins the fallback: a group that meets
// BIGINTs, then DOUBLEs, then a STRING folds on into the segment
// updatePartial keeps, and COUNT(*) counts every row.
func TestPartialFoldSwitchesKind(t *testing.T) {
	e := testEngine(t)
	batch := func(vals ...datum.Datum) *mapred.RecordBatch {
		rows := make([]datum.Row, len(vals))
		for i, v := range vals {
			rows[i] = datum.Row{datum.String_("g"), v, datum.Null, datum.Null}
		}
		var vecs datum.Batch
		vecs.SetRows(rows, 4)
		return &mapred.RecordBatch{Len: len(rows), Cols: vecs.Cols}
	}
	c := foldCase{
		batches: []*mapred.RecordBatch{
			batch(datum.Int(1), datum.Int(3), datum.Null),
			batch(datum.Float(2.5), datum.Float(math.NaN())),
			batch(datum.String_("0")),
		},
		groups: []int{0},
		args:   []int{1, -1},
	}
	filter, err := e.newScanFilter(nil, nil, foldTestScope())
	if err != nil {
		t.Fatal(err)
	}
	m := &aggScanMapper{aggScanSpec: aggScanSpec{filter: filter}, partial: true}
	for _, x := range []string{"c0", "c1"} {
		p, err := e.compileVexpr(nil, parseSelectExpr(t, x), foldTestScope())
		if err != nil {
			t.Fatal(err)
		}
		if x == "c0" {
			m.groups = append(m.groups, vecExpr{prog: p})
		} else {
			m.args = append(m.args, vecExpr{prog: p})
		}
	}
	m.args = append(m.args, vecExpr{})
	m.aggs = []aggSpec{{}, {star: true}}
	defer m.Close()
	out := runFold(t, m, c)
	if len(out) != 1 {
		t.Fatalf("%d partial rows, want 1", len(out))
	}
	row := out[0].row
	seg, star := row[1:1+aggPartialWidth], row[1+aggPartialWidth:]
	if seg[0].I != 5 || !math.IsNaN(seg[1].F) || seg[2].I != 4 || seg[3].B ||
		!sameDatum(seg[4], datum.Int(1)) || !sameDatum(seg[5], datum.String_("0")) {
		t.Errorf("segment = %#v", seg)
	}
	if star[0].I != 6 || star[1].F != 6 || !sameDatum(star[4], datum.Bool(true)) {
		t.Errorf("COUNT(*) segment = %#v", star)
	}
}
