package datum

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomRows builds n rows of width w. Column j has one kind (j mod 4)
// with NULLs mixed in, except that mixedCol, when in range, draws its
// kind per value.
func randomRows(rng *rand.Rand, n, w, mixedCol int) []Row {
	value := func(k int) Datum {
		switch k {
		case 0:
			return Int(rng.Int63n(2000) - 1000)
		case 1:
			return Float(rng.NormFloat64())
		case 2:
			return String_([]string{"", "a", "tag-17", "2014-03-09"}[rng.Intn(4)])
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, w)
		for j := range rows[i] {
			switch {
			case rng.Intn(5) == 0:
				rows[i][j] = Null
			case j == mixedCol:
				rows[i][j] = value(rng.Intn(4))
			default:
				rows[i][j] = value(j % 4)
			}
		}
	}
	return rows
}

// TestBatchRowsRoundTrip: SetRows followed by any of the ways out of a
// batch gives the rows back, a column of one kind is typed and a column
// of several is mixed.
func TestBatchRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 300} {
		rows := randomRows(rng, n, 6, 5)
		var b Batch
		b.SetRows(rows, 6)
		if b.Len != n || len(b.Cols) != 6 {
			t.Fatalf("n=%d: batch is %d×%d", n, b.Len, len(b.Cols))
		}
		got := b.AppendRows(nil)
		if n == 0 {
			if got != nil {
				t.Fatalf("empty batch cut into %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("n=%d: AppendRows = %v, want %v", n, got, rows)
		}
		for i := range rows {
			if r := b.Row(i); !reflect.DeepEqual(r, rows[i]) {
				t.Fatalf("n=%d: Row(%d) = %v, want %v", n, i, r, rows[i])
			}
		}
		if n >= 300 {
			for j := 0; j < 4; j++ {
				if k := b.Cols[j].Kind; k != []Kind{KindInt, KindFloat, KindString, KindBool}[j] {
					t.Errorf("column %d has kind %v", j, k)
				}
			}
			if v := &b.Cols[5]; v.Kind != KindNull || len(v.Datums) != n {
				t.Errorf("column of four kinds is kind %v with %d datums", v.Kind, len(v.Datums))
			}
		}
	}
}

// TestVectorPutTurnsMixedKeepingRows: the rows set before the datum of
// a second kind arrives survive the conversion, NULLs included.
func TestVectorPutTurnsMixedKeepingRows(t *testing.T) {
	var v ColumnVector
	v.Reset(KindNull, 4)
	want := Row{Int(1), Null, String_("x"), Float(2.5)}
	for i, d := range want {
		v.Put(i, d)
	}
	for i, d := range want {
		if got := v.Datum(i); !reflect.DeepEqual(got, d) {
			t.Errorf("row %d = %v, want %v", i, got, d)
		}
	}
	v.Put(0, Null)
	if !v.Datum(0).IsNull() {
		t.Errorf("NULL put into a mixed column reads back %v", v.Datum(0))
	}
	v.Reset(KindInt, 2)
	if len(v.Datums) != 0 {
		t.Errorf("Reset left %d datums on a typed vector", len(v.Datums))
	}
}

// TestBatchGatherTruncateAppend checks the three ways rows move between
// batches against the same operations on rows, and that a gathered
// vector shares nothing with its source.
func TestBatchGatherTruncateAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 100, 5, 4)
	var src Batch
	src.SetRows(rows, 5)

	sel := []int32{0, 3, 4, 50, 99}
	all := make([]int32, len(rows))
	for i := range all {
		all[i] = int32(i)
	}
	for _, s := range [][]int32{sel, all} {
		var dst Batch
		dst.Reset(5, len(s))
		for j := range dst.Cols {
			dst.Cols[j].Gather(&src.Cols[j], s)
		}
		for k, i := range s {
			if got := dst.Row(k); !reflect.DeepEqual(got, rows[i]) {
				t.Fatalf("gathered row %d = %v, want row %d = %v", k, got, i, rows[i])
			}
		}
		// Overwriting the source must not reach the copy.
		before := dst.AppendRows(nil)
		for j := range src.Cols {
			src.Cols[j].Reset(src.Cols[j].Kind, src.Len)
		}
		if after := dst.AppendRows(nil); !reflect.DeepEqual(after, before) {
			t.Fatalf("a gathered batch changed with its source")
		}
		src.SetRows(rows, 5)
	}

	src.Truncate(40)
	if got := src.AppendRows(nil); !reflect.DeepEqual(got, rows[:40]) {
		t.Fatalf("Truncate(40) kept %d rows, not the first 40", len(got))
	}

	// Appending batches whose columns disagree on kind: all-NULL, then
	// typed, then another kind.
	parts := [][]Row{
		{{Null, Null}, {Null, Null}},
		{{Int(1), String_("a")}, {Int(2), Null}},
		{{Float(0.5), String_("b")}},
	}
	var acc Batch
	acc.Reset(2, 0)
	var want []Row
	for _, p := range parts {
		var pb Batch
		pb.SetRows(p, 2)
		acc.Append(&pb, 0, pb.Len)
		want = append(want, p...)
	}
	if got := acc.AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("Append = %v, want %v", got, want)
	}
	if acc.Cols[1].Kind != KindString {
		t.Errorf("a column of NULLs then strings is kind %v", acc.Cols[1].Kind)
	}
}

// TestLoadMatchesDatum holds load to Datum, whose switch it copies: for
// a vector of every kind, the all-NULL vector and a mixed one, every
// row — NULL or not — loads as Datum returns it.
func TestLoadMatchesDatum(t *testing.T) {
	vals := []Datum{Int(-3), Float(2.5), String_("x"), Bool(true), Null}
	var vecs []ColumnVector
	for _, d := range vals {
		var v ColumnVector
		v.Reset(KindNull, 3)
		v.Put(0, d)
		v.Put(2, d)
		vecs = append(vecs, v)
	}
	var mixed ColumnVector
	mixed.Reset(KindNull, len(vals)+1)
	for i, d := range vals {
		mixed.Put(i, d)
	}
	if len(mixed.Datums) == 0 {
		t.Fatal("fixture: vector did not turn mixed")
	}
	vecs = append(vecs, mixed)
	for vi := range vecs {
		v := &vecs[vi]
		for i := range v.Nulls {
			got := Datum{K: KindInt, I: 99} // stale content load must overwrite
			v.load(&got, i)
			if want := v.Datum(i); !reflect.DeepEqual(got, want) {
				t.Errorf("vector %d (kind %v) row %d: load = %v, Datum = %v", vi, v.Kind, i, got, want)
			}
		}
	}
}

// TestVectorExtendPadsNulls grows vectors of each storage by NULL rows
// and checks the typed slice, or the mixed column's datums, keep pace.
func TestVectorExtendPadsNulls(t *testing.T) {
	var v ColumnVector
	v.Reset(KindNull, 0)
	v.Extend(2)
	v.Put(1, Int(7))
	v.Extend(4)
	v.Extend(3) // shorter than v: a no-op
	if v.Len() != 4 || len(v.Ints) != 4 || v.Kind != KindInt {
		t.Fatalf("typed: len %d, ints %d, kind %v", v.Len(), len(v.Ints), v.Kind)
	}
	v.Put(3, String_("s")) // turns mixed
	v.Extend(6)
	if len(v.Datums) != 6 {
		t.Fatalf("mixed: %d datums for %d rows", len(v.Datums), v.Len())
	}
	want := []Datum{Null, Int(7), Null, String_("s"), Null, Null}
	for i, w := range want {
		if got := v.Datum(i); !reflect.DeepEqual(got, w) {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
}

// TestVectorSortableKeyMatchesDatum: a row's key built straight from
// its typed vectors is SortableRowKey of its boxed values, for every
// storage — NULLs, NaN, ±0, strings holding 0x00, and a mixed column.
func TestVectorSortableKeyMatchesDatum(t *testing.T) {
	vals := [][]Datum{
		{Int(0), Int(-7), Int(1 << 62), Null, Int(math.MinInt64), Int(3)},
		{Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Null, Float(math.Inf(-1)), Float(3)},
		{String_(""), String_("a\x00b"), String_("\x00"), Null, String_("zz"), String_("3")},
		{Bool(true), Bool(false), Null, Null, Bool(true), Bool(false)},
		{Int(1), Float(1), String_("1"), Null, Bool(true), Int(-1)}, // turns mixed
		{Null, Null, Null, Null, Null, Null},
	}
	vecs := make([]ColumnVector, len(vals))
	for c, col := range vals {
		vecs[c].Reset(KindNull, len(col))
		for i, d := range col {
			vecs[c].Put(i, d)
		}
	}
	if len(vecs[4].Datums) == 0 {
		t.Fatal("fixture: vector did not turn mixed")
	}
	for i := range vals[0] {
		row := make(Row, len(vals))
		var got []byte
		for c := range vecs {
			row[c] = vecs[c].Datum(i)
			got = vecs[c].SortableKey(got, i)
		}
		if want := SortableRowKey(nil, row); !bytes.Equal(got, want) {
			t.Errorf("row %d %v: vector key %x, SortableRowKey %x", i, row, got, want)
		}
	}
}

// TestResetBoolsFills: every length up to a few doubling steps past a
// batch, over a dirty reused backing array.
func TestResetBoolsFills(t *testing.T) {
	buf := make([]bool, 0, 1100)
	for n := 0; n <= 1100; n++ {
		buf = buf[:cap(buf)]
		clear(buf)
		got := buf[:n]
		resetBools(got)
		for i, b := range got {
			if !b {
				t.Fatalf("n=%d: slot %d is false", n, i)
			}
		}
	}
}
