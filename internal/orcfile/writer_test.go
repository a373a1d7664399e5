package orcfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"dualtable/internal/datum"
)

// goldenRows is the fixed-seed table TestWriterBytesGolden writes: the
// values whose encoding or statistics are easiest to get subtly wrong.
// Ints span the full range with runs and delta runs; floats mix NaNs of
// two payloads, ±0 and ±Inf (so a stripe's sum meets Inf + -Inf and then
// a NaN); strings include ones that parse as numbers, in a dictionary
// column and in a direct one; one column is all NULL.
func goldenRows(n int, seed int64) (datum.Schema, []datum.Row) {
	rng := rand.New(rand.NewSource(seed))
	schema := datum.Schema{
		{Name: "i_edge", Kind: datum.KindInt},
		{Name: "i_seq", Kind: datum.KindInt},
		{Name: "f_edge", Kind: datum.KindFloat},
		{Name: "f_plain", Kind: datum.KindFloat},
		{Name: "s_dict", Kind: datum.KindString},
		{Name: "s_direct", Kind: datum.KindString},
		{Name: "b", Kind: datum.KindBool},
		{Name: "none", Kind: datum.KindInt},
	}
	otherNaN := math.Float64frombits(0x7FF8000000000ABC)
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, -1 << 40, 1 << 40, -7}
	floats := []float64{math.NaN(), otherNaN, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -2.5, 1e308}
	numeric := []string{" 12 ", "1e3", "inf", "-inf", "nan", "-0", "0x1p-2", "word", "", "1994-01-01"}
	rows := make([]datum.Row, n)
	seq := int64(-50)
	for i := range rows {
		r := make(datum.Row, len(schema))
		switch rng.Intn(4) {
		case 0:
			r[0] = datum.Int(ints[rng.Intn(len(ints))])
		case 1:
			r[0] = datum.Int(rng.Int63() - rng.Int63())
		case 2:
			r[0] = datum.Int(int64(i / 5)) // runs
		default:
			r[0] = datum.Null
		}
		if rng.Intn(9) != 0 {
			seq += int64(rng.Intn(2)) // delta runs broken by repeats
		}
		r[1] = datum.Int(seq)
		switch rng.Intn(5) {
		case 0:
			r[2] = datum.Null
		case 1, 2:
			r[2] = datum.Float(floats[rng.Intn(len(floats))])
		default:
			r[2] = datum.Float(rng.NormFloat64() * 1e6)
		}
		r[3] = datum.Float(float64(rng.Intn(1000)) / 8)
		if i%97 == 0 {
			r[3] = datum.Float(math.Copysign(0, -1))
		}
		r[4] = datum.String_(numeric[rng.Intn(len(numeric))])
		if rng.Intn(3) == 0 {
			r[5] = datum.String_(numeric[rng.Intn(len(numeric))])
		} else {
			r[5] = datum.String_("v" + strconv.Itoa(rng.Intn(1<<30)))
		}
		switch rng.Intn(3) {
		case 0:
			r[6] = datum.Null
		default:
			r[6] = datum.Bool(rng.Intn(2) == 0)
		}
		r[7] = datum.Null
		for j := 2; j <= 5; j++ {
			if rng.Intn(13) == 0 {
				r[j] = datum.Null
			}
		}
		rows[i] = r
	}
	return schema, rows
}

// writerGolden holds the SHA-256 of each golden file, keyed by stripe
// size, row count and compression. The bytes are the format: a change
// to the writer must leave every one of them as it is.
var writerGolden = map[string]string{
	"stripe=1/rows=300/compress=false":   "acf73a1408e814697e86777830b85c4ffd9756e2b3dfcdda196aca339db66022",
	"stripe=1/rows=300/compress=true":    "d0ddd1fb5be8ce36582f347a17ebc823fdfecb4a15a184ada5d69221365e7bd6",
	"stripe=7/rows=3000/compress=false":  "d337cc6e1791b90400b52853c92eb1d6189fa0a45d9520af05c5018df30562ca",
	"stripe=7/rows=3000/compress=true":   "4331c4a17eab830cb749c4c23ea3aed04364c2dd5a89263af4415b233d601c43",
	"stripe=0/rows=23000/compress=false": "cdfbcf4fa0721070774fde5650b7ca08e36dd00256ebd6e1c0af9e8ef01a4f5a",
	"stripe=0/rows=23000/compress=true":  "8883e419015d2061429e181fecb400d15806acfbe96db3450e50991870561bba",
}

// TestWriterBytesGolden pins the writer's output bytes — streams,
// stripe and file statistics, footer — for tables written through
// WriteRow and through WriteBatch (typed, all-NULL, mixed and gathered
// vectors; stripes that end inside a batch), with and without
// compression, at stripes of 1, 7 and the default rows.
func TestWriterBytesGolden(t *testing.T) {
	for _, c := range []struct{ stripe, rows int }{{1, 300}, {7, 3000}, {0, 23000}} {
		schema, rows := goldenRows(c.rows, int64(c.rows))
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("stripe=%d/rows=%d/compress=%v", c.stripe, c.rows, compress)
			opts := WriterOptions{StripeRows: c.stripe, Compression: compress, UserMeta: map[string]string{"dualtable.file_id": "7"}}
			byRow, err := encodeFile(schema, rows, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w, err := NewWriter(&buf, schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batchesOf(rand.New(rand.NewSource(int64(c.stripe))), rows) {
				if err := w.WriteBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for path, data := range map[string][]byte{"WriteRow": byRow, "WriteBatch": buf.Bytes()} {
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != writerGolden[name] {
					t.Errorf("%s through %s: sha256 %s (%d bytes), golden %s", name, path, got, len(data), writerGolden[name])
				}
			}
		}
	}
}

// TestWriterErrorSticks: a value of the wrong kind fails its row (or
// batch) after the columns before it took theirs; every later call, and
// Close, returns that error, and the file gets no footer, so no reader
// sees a stripe whose columns disagree on their row count.
func TestWriterErrorSticks(t *testing.T) {
	good := makeRows(3, 1)
	bad := datum.Row{good[1][0], good[1][1], datum.Int(5), good[1][3]} // a BIGINT in the STRING column
	for _, batch := range []bool{false, true} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testSchema(), WriterOptions{StripeRows: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRow(good[0]); err != nil {
			t.Fatal(err)
		}
		if batch {
			var b datum.Batch
			b.SetRows([]datum.Row{good[2], bad}, len(bad))
			err = w.WriteBatch(&b)
		} else {
			err = w.WriteRow(bad)
		}
		if err == nil {
			t.Fatalf("batch=%v: the wrong kind was written", batch)
		}
		if got := w.WriteRow(good[2]); got != err {
			t.Errorf("batch=%v: a good row after the error returned %v, want %v", batch, got, err)
		}
		if got := w.Close(); got != err {
			t.Errorf("batch=%v: Close returned %v, want %v", batch, got, err)
		}
		if got := w.Close(); got != err {
			t.Errorf("batch=%v: a second Close returned %v, want %v", batch, got, err)
		}
		if _, oerr := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len())); oerr == nil {
			t.Errorf("batch=%v: the failed writer's %d bytes open as a file", batch, buf.Len())
		}
	}
}

// TestWriterReusesScratch: a writer borrows its column builders and
// footer buffer from the free list, so a second writer after the first
// one's Close allocates only what its file needs of its own — the
// Writer, its schema copy and file statistics, and per stripe its
// stream directory and statistics — the same for four columns in
// 4 000-row stripes as for one column in 1-row stripes. A returned set
// holds no string.
func TestWriterReusesScratch(t *testing.T) {
	schema, rows := churnRows(8000)
	narrow := []datum.Row{rows[0][:1], rows[1][:1]}
	write := func(schema datum.Schema, rows []datum.Row, stripe int) func() {
		return func() {
			w, err := NewWriter(io.Discard, schema, WriterOptions{StripeRows: stripe, Compression: true})
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
		}
	}
	// Empty the free list, so each run borrows the set the run before it
	// returned.
	for len(columnScratches) > 0 {
		<-columnScratches
	}
	wide := testing.AllocsPerRun(10, write(schema, rows, 4000))   // two stripes
	one := testing.AllocsPerRun(10, write(schema[:1], narrow, 1)) // two stripes
	const perFile = 10
	if wide != one || wide > perFile {
		t.Errorf("a second writer allocates %v times for 4 columns of 4 000-row stripes, %v for 1 column of 1-row stripes; want equal, at most %d",
			wide, one, perFile)
	}
	for len(columnScratches) > 0 {
		cols := (<-columnScratches).cols
		for _, cb := range cols[:cap(cols)] {
			for _, s := range append(cb.strs[:cap(cb.strs)], cb.firsts[:cap(cb.firsts)]...) {
				if s != "" {
					t.Fatalf("a returned column builder holds %q", s)
				}
			}
			if len(cb.dict) != 0 || cb.stats != (stripeStats{}) {
				t.Fatalf("a returned column builder holds %d dictionary values, stats %+v", len(cb.dict), cb.stats)
			}
		}
	}
}

// fuzzRows turns fuzz input into rows of testSchema's (BIGINT, DOUBLE,
// STRING, BOOLEAN). Each row takes 8 value bytes: the BIGINT is their
// bits shifted right by the last byte (so small values repeat), the
// DOUBLE their bits (any NaN payload, ±0, ±Inf), the STRING is spelled
// from them in an alphabet that makes numbers, inf and nan, and the
// BOOLEAN is the low bit. Bit 4i+j of mask makes row i's column j NULL.
func fuzzRows(vals, mask []byte) []datum.Row {
	const alphabet = "0123456789+-.eEinfaINFx c"
	rows := make([]datum.Row, len(vals)/8)
	for i := range rows {
		chunk := vals[8*i : 8*i+8]
		bits := binary.LittleEndian.Uint64(chunk)
		str := make([]byte, chunk[0]%6)
		for k := range str {
			str[k] = alphabet[int(chunk[1+k])%len(alphabet)]
		}
		r := datum.Row{datum.Int(int64(bits) >> (chunk[7] % 64)), datum.Float(math.Float64frombits(bits)),
			datum.String_(string(str)), datum.Bool(bits&1 == 1)}
		for j := range r {
			if bit := 4*i + j; bit/8 < len(mask) && mask[bit/8]&(1<<(bit%8)) != 0 {
				r[j] = datum.Null
			}
		}
		rows[i] = r
	}
	return rows
}

// FuzzWriteBatchMatchesWriteRow: rows written as batches cut where the
// input says — a cut byte's high bit stores that batch's columns mixed —
// give the file WriteRow gives, in stripes of the input's size, and a
// reader returns every value, floats bit for bit.
func FuzzWriteBatchMatchesWriteRow(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07nan-inf+inf 1e3  12 xyzw"), []byte{0x21, 0x84}, []byte{1, 2, 0x83}, uint8(2))
	nan, inf := make([]byte, 8), make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(-1)))
	f.Add(bytes.Repeat(append(nan, inf...), 40), []byte{}, []byte{7, 0x85, 30}, uint8(6))
	f.Add(bytes.Repeat([]byte{5, 'a', 'b', 'c', 'd', 'e', 0, 60}, 300), []byte{0xff, 0, 0x0f}, []byte{200}, uint8(0))
	f.Fuzz(func(t *testing.T, vals, mask, cuts []byte, stripe uint8) {
		rows := fuzzRows(vals[:min(len(vals), 8*4096)], mask)
		schema := testSchema()
		opts := WriterOptions{StripeRows: 1 + int(stripe)%64}
		want, err := encodeFile(schema, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, from := 0, 0; from < len(rows); i++ {
			cut := byte(0x7f)
			if len(cuts) > 0 {
				cut = cuts[i%len(cuts)]
			}
			to := min(len(rows), from+1+int(cut&0x7f))
			var b datum.Batch
			b.SetRows(rows[from:to], len(schema))
			if cut&0x80 != 0 {
				for j := range b.Cols {
					v := &b.Cols[j]
					ds := make([]datum.Datum, b.Len)
					for k := range ds {
						ds[k] = v.Datum(k)
					}
					v.Kind, v.Datums = datum.KindNull, ds
				}
			}
			if err := w.WriteBatch(&b); err != nil {
				t.Fatal(err)
			}
			from = to
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d rows in stripes of %d: WriteBatch wrote %d bytes unlike WriteRow's %d",
				len(rows), opts.StripeRows, buf.Len(), len(want))
		}
		got, err := drainOneRowBatches(want, len(rows)+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("read %d rows of %d", len(got), len(rows))
		}
		for i, r := range rows {
			for j, d := range r {
				g := got[i][j]
				same := g.K == d.K && g.I == d.I && g.S == d.S && g.B == d.B && floatBits(g.F) == floatBits(d.F)
				if !same {
					t.Fatalf("row %d column %d: read %#v, wrote %#v", i, j, g, d)
				}
			}
		}
	})
}

// churnRows is dml_churn's table after a few OVERWRITE updates: (id,
// grp, v, tag) with grp = id % 200 and two tags.
func churnRows(n int) (datum.Schema, []datum.Row) {
	schema := datum.Schema{{Name: "id", Kind: datum.KindInt}, {Name: "grp", Kind: datum.KindInt},
		{Name: "v", Kind: datum.KindFloat}, {Name: "tag", Kind: datum.KindString}}
	rows := make([]datum.Row, n)
	for i := range rows {
		tag := "c6"
		if i%200 < 80 {
			tag = "c7"
		}
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 200)), datum.Float(float64(i) + float64(i%200)/4), datum.String_(tag)}
	}
	return schema, rows
}

// benchmarkWrite writes dml_churn's 40 000-row table as one compressed
// file per iteration, through write, and reports ns and bytes per row.
func benchmarkWrite(b *testing.B, write func(w *Writer, rows []datum.Row, batches []*datum.Batch) error) {
	schema, rows := churnRows(40000)
	var batches []*datum.Batch
	for from := 0; from < len(rows); from += DefaultBatchRows {
		var bt datum.Batch
		bt.SetRows(rows[from:min(len(rows), from+DefaultBatchRows)], len(schema))
		batches = append(batches, &bt)
	}
	var out bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		out.Reset()
		w, err := NewWriter(&out, schema, WriterOptions{Compression: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := write(w, rows, batches); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
}

func BenchmarkWriteBatch(b *testing.B) {
	benchmarkWrite(b, func(w *Writer, _ []datum.Row, batches []*datum.Batch) error {
		for _, bt := range batches {
			if err := w.WriteBatch(bt); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkWriteRow(b *testing.B) {
	benchmarkWrite(b, func(w *Writer, rows []datum.Row, _ []*datum.Batch) error {
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				return err
			}
		}
		return nil
	})
}
