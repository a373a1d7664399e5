package orcfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"dualtable/internal/datum"
)

// genRows builds a mixed-kind table with NULLs, runs, deltas, and both
// string encodings (low-cardinality column → dictionary, unique
// column → direct).
func genRows(t *testing.T, n int, seed int64) (datum.Schema, []datum.Row) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := datum.Schema{
		{Name: "id", Kind: datum.KindInt},       // delta runs
		{Name: "grp", Kind: datum.KindInt},      // repeats + nulls
		{Name: "v", Kind: datum.KindFloat},      // nulls
		{Name: "flag", Kind: datum.KindBool},    // nulls
		{Name: "tag", Kind: datum.KindString},   // dictionary
		{Name: "note", Kind: datum.KindString},  // direct
		{Name: "empty", Kind: datum.KindString}, // all NULL
	}
	rows := make([]datum.Row, n)
	tags := []string{"a", "bb", "ccc", ""}
	for i := range rows {
		row := datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i / 7)),
			datum.Float(rng.Float64() * 100),
			datum.Bool(i%3 == 0),
			datum.String_(tags[i%len(tags)]),
			datum.String_(string(rune('a'+i%26)) + string(rune('0'+i%10)) + "x"),
			datum.Null,
		}
		if i%11 == 0 {
			row[1] = datum.Null
		}
		if i%5 == 0 {
			row[2] = datum.Null
		}
		if i%13 == 0 {
			row[3] = datum.Null
		}
		if i%17 == 0 {
			row[4] = datum.Null
		}
		rows[i] = row
	}
	return schema, rows
}

func writeBatchFile(t *testing.T, schema datum.Schema, rows []datum.Row, opts WriterOptions) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestBatchRowEquivalence checks that the batch reader gives back the
// rows that were written — values, NULLs, ordinals — across
// compression, stripe sizes, batch sizes and projections. An
// unprojected column reads NULL.
func TestBatchRowEquivalence(t *testing.T) {
	schema, rows := genRows(t, 3777, 1)
	cases := []struct {
		name string
		opts WriterOptions
	}{
		{"plain", WriterOptions{StripeRows: 1000}},
		{"flate", WriterOptions{StripeRows: 1000, Compression: true}},
		{"one-stripe", WriterOptions{StripeRows: 100000}},
		{"tiny-stripes", WriterOptions{StripeRows: 17, Compression: true}},
	}
	projections := [][]int{nil, {0, 2}, {4, 5}, {1}}
	batchSizes := []int{0, 1, 7, 1000, 5000}
	for _, tc := range cases {
		rd := writeBatchFile(t, schema, rows, tc.opts)
		for _, proj := range projections {
			projected := make([]bool, len(schema))
			for c := range projected {
				projected[c] = proj == nil || slices.Contains(proj, c)
			}
			for _, bs := range batchSizes {
				br := rd.NewBatchReader(RowReaderOptions{Columns: proj})
				cols := make([]datum.ColumnVector, len(schema))
				var next int64
				for {
					n, base, err := br.NextBatch(cols, bs)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("%s proj=%v bs=%d: %v", tc.name, proj, bs, err)
					}
					if base != next {
						t.Fatalf("%s proj=%v bs=%d: batch at ordinal %d, want %d", tc.name, proj, bs, base, next)
					}
					if bs > 0 && n > bs || next+int64(n) > int64(len(rows)) {
						t.Fatalf("%s proj=%v bs=%d: %d rows at ordinal %d", tc.name, proj, bs, n, base)
					}
					for i := 0; i < n; i++ {
						for c := range schema {
							want := datum.Null
							if projected[c] {
								want = rows[next][c]
							}
							if got := cols[c].Datum(i); datum.Compare(got, want) != 0 || got.K != want.K {
								t.Fatalf("%s proj=%v bs=%d row %d col %d: %v != %v",
									tc.name, proj, bs, next, c, got, want)
							}
						}
						next++
					}
				}
				br.Close()
				if next != int64(len(rows)) {
					t.Fatalf("%s proj=%v bs=%d: read %d rows of %d", tc.name, proj, bs, next, len(rows))
				}
			}
		}
	}
}

// TestBatchNullPatterns reads back files of every column kind whose
// rows are NULL in a pattern — none, all, alternating, one in 64 — with
// batch sizes that start batches at every kind of bit offset in the
// presence bitmap. Every value must come back, and every NULL slot must
// hold its kind's zero value although the vectors are reused.
func TestBatchNullPatterns(t *testing.T) {
	schema := datum.Schema{
		{Name: "i", Kind: datum.KindInt},
		{Name: "f", Kind: datum.KindFloat},
		{Name: "b", Kind: datum.KindBool},
		{Name: "dict", Kind: datum.KindString},
		{Name: "direct", Kind: datum.KindString},
	}
	patterns := map[string]func(i int) bool{
		"none":        func(int) bool { return false },
		"all":         func(int) bool { return true },
		"alternating": func(i int) bool { return i%2 == 1 },
		"one in 64":   func(i int) bool { return i%64 == 37 },
	}
	for name, null := range patterns {
		rows := make([]datum.Row, 2500)
		for i := range rows {
			rows[i] = datum.Row{datum.Int(int64(i*7 - 3000)), datum.Float(float64(i) / 4),
				datum.Bool(i%3 == 0), datum.String_([]string{"x", "yy", "zzz"}[i/5%3]),
				datum.String_(fmt.Sprint("s", i))}
			for c := range rows[i] {
				if null(i + c) {
					rows[i][c] = datum.Null
				}
			}
		}
		rd := writeBatchFile(t, schema, rows, WriterOptions{StripeRows: 1200})
		for _, bs := range []int{1, 7, 63, 65, 1000} {
			br := rd.NewBatchReader(RowReaderOptions{})
			cols := br.Vectors()
			var next int64
			for {
				n, base, err := br.NextBatch(cols, bs)
				if err == io.EOF {
					break
				}
				if err != nil || base != next {
					t.Fatalf("%s bs=%d: batch at %d, want %d: %v", name, bs, base, next, err)
				}
				for i := 0; i < n; i++ {
					for c := range schema {
						want, v := rows[next][c], &cols[c]
						if got := v.Datum(i); datum.Compare(got, want) != 0 || got.K != want.K {
							t.Fatalf("%s bs=%d row %d col %d: %v != %v", name, bs, next, c, got, want)
						}
						if v.Kind != schema[c].Kind {
							t.Fatalf("%s bs=%d col %d: a %v vector", name, bs, c, v.Kind)
						}
						if want.IsNull() && !zeroSlot(v, i) {
							t.Fatalf("%s bs=%d row %d col %d: a NULL slot holds a value", name, bs, next, c)
						}
					}
					next++
				}
			}
			br.Close()
			if next != int64(len(rows)) {
				t.Fatalf("%s bs=%d: read %d rows of %d", name, bs, next, len(rows))
			}
		}
	}
}

// zeroSlot reports whether slot i of v's active value slice holds the
// zero value.
func zeroSlot(v *datum.ColumnVector, i int) bool {
	switch v.Kind {
	case datum.KindInt:
		return v.Ints[i] == 0
	case datum.KindFloat:
		return v.Floats[i] == 0
	case datum.KindBool:
		return !v.Bools[i]
	case datum.KindString:
		return v.Strs[i] == ""
	}
	return true
}

// TestBatchReaderRefillsMixedVectors: a consumer may Put a value of
// another kind into a batch's vector, turning it mixed, or adopt a kind
// into an unprojected one. The next batch must arrive clean — typed as
// the file's column, every value its own.
func TestBatchReaderRefillsMixedVectors(t *testing.T) {
	schema, rows := genRows(t, 3000, 3)
	rd := writeBatchFile(t, schema, rows, WriterOptions{StripeRows: 1000})
	br := rd.NewBatchReader(RowReaderOptions{Columns: []int{0, 4}})
	defer br.Close()
	cols := br.Vectors()
	if _, _, err := br.NextBatch(cols, 0); err != nil {
		t.Fatal(err)
	}
	cols[0].Put(3, datum.String_("seven")) // BIGINT column: mixed
	cols[4].Put(0, datum.Int(7))           // STRING column: mixed
	cols[1].Put(5, datum.Float(1.5))       // unprojected: adopts a kind
	if len(cols[0].Datums) == 0 || len(cols[4].Datums) == 0 {
		t.Fatal("Put did not turn the vectors mixed")
	}
	n, base, err := br.NextBatch(cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range []struct {
		c    int
		kind datum.Kind
	}{{0, datum.KindInt}, {1, datum.KindNull}, {4, datum.KindString}} {
		c, kind := cc.c, cc.kind
		if v := &cols[c]; v.Kind != kind || len(v.Datums) != 0 || v.Len() != n {
			t.Fatalf("column %d after a mixed batch: kind %v, %d datums, %d rows; want %v, 0, %d", c, v.Kind, len(v.Datums), v.Len(), kind, n)
		}
		for i := 0; i < n; i++ {
			want := rows[base+int64(i)][c]
			if c == 1 {
				want = datum.Null
			}
			if got := cols[c].Datum(i); datum.Compare(got, want) != 0 || got.K != want.K {
				t.Fatalf("column %d row %d after a mixed batch: %v, want %v", c, base+int64(i), got, want)
			}
		}
	}
}

// TestBatchReaderPruning checks that pruned stripes advance the
// ordinal: exactly the rows of the stripes the predicate keeps survive,
// at their file ordinals.
func TestBatchReaderPruning(t *testing.T) {
	schema, rows := genRows(t, 3000, 2)
	rd := writeBatchFile(t, schema, rows, WriterOptions{StripeRows: 500})
	sarg := &SearchArg{Predicates: []Predicate{{Column: 0, Op: OpGE, Value: datum.Int(2200)}}}
	br := rd.NewBatchReader(RowReaderOptions{SearchArg: sarg})
	defer br.Close()
	var ords []int64
	cols := make([]datum.ColumnVector, len(schema))
	for {
		n, base, err := br.NextBatch(cols, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ords = append(ords, base+int64(i))
			if got := cols[0].Datum(i); got.I != base+int64(i) {
				t.Fatalf("ordinal %d holds id %v", base+int64(i), got)
			}
		}
	}
	// id = ordinal, so of the six 500-row stripes the last two can hold
	// an id >= 2200: ordinals 2000..2999.
	var want []int64
	for o := int64(2000); o < 3000; o++ {
		want = append(want, o)
	}
	if !slices.Equal(ords, want) {
		t.Fatalf("%d surviving ordinals, want 2000..2999: %v", len(ords), ords)
	}
}

// fillVectorFile writes a one-column file of 64 × 1 024 rows of kind
// whose rows are NULL with probability nullPct/100. BIGINT holds an id
// sequence (delta groups), DOUBLE and BOOLEAN random values, "dict" a
// few tags in runs of 1–32 (a dictionary STRING), "direct" unique
// strings (a direct STRING).
func fillVectorFile(tb testing.TB, kind string, nullPct int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(nullPct)))
	colKind := map[string]datum.Kind{"bigint": datum.KindInt, "double": datum.KindFloat,
		"boolean": datum.KindBool, "dict": datum.KindString, "direct": datum.KindString}[kind]
	tags := []string{"open", "shipped", "returned", "lost", "held", "paid", "void", "new"}
	rows := make([]datum.Row, 64*DefaultBatchRows)
	tag, run := "", 0
	for i := range rows {
		if run == 0 {
			tag, run = tags[rng.Intn(len(tags))], 1+rng.Intn(32)
		}
		run--
		var d datum.Datum
		switch kind {
		case "bigint":
			d = datum.Int(int64(i))
		case "double":
			d = datum.Float(rng.Float64())
		case "boolean":
			d = datum.Bool(rng.Intn(2) == 0)
		case "dict":
			d = datum.String_(tag)
		case "direct":
			d = datum.String_(fmt.Sprintf("note-%07d", i))
		}
		if rng.Intn(100) < nullPct {
			d = datum.Null
		}
		rows[i] = datum.Row{d}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, datum.Schema{{Name: "c", Kind: colKind}}, WriterOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkFillVector drains one file per column kind and NULL density
// in 1 024-row batches and reports the decode cost per row: the
// presence bits, the value stream and the spread between them.
func BenchmarkFillVector(b *testing.B) {
	for _, kind := range []string{"bigint", "double", "boolean", "dict", "direct"} {
		for _, nullPct := range []int{0, 10, 100} {
			data := fillVectorFile(b, kind, nullPct)
			rd, err := Open(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/nulls=%d%%", kind, nullPct), func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for b.Loop() {
					br := rd.NewBatchReader(RowReaderOptions{})
					cols := br.Vectors()
					for {
						n, _, err := br.NextBatch(cols, DefaultBatchRows)
						if err == io.EOF {
							break
						} else if err != nil {
							b.Fatal(err)
						}
						rows += n
					}
					br.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			})
		}
	}
}
