package orcfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dualtable/internal/datum"
)

func TestIntRLERoundtrip(t *testing.T) {
	cases := [][]int64{
		{},
		{1},
		{1, 2, 3},                // delta run
		{5, 5, 5, 5, 5},          // constant run
		{1, 9, 2, 8, 3, 7},       // literals
		{0, 0, 0, 1, 2, 3, 9, 9}, // mixed
		{-1, -2, -3, -4},         // negative delta
		{1 << 62, -(1 << 62), 0},
	}
	for _, vals := range cases {
		var e intEncoder
		for _, v := range vals {
			e.Append(v)
		}
		d := intDecoder{buf: e.Finish()}
		got := make([]int64, len(vals))
		if err := fillChunked(got, d.Fill); err != nil {
			t.Fatalf("%v: decode: %v", vals, err)
		}
		if !slices.Equal(got, vals) {
			t.Fatalf("%v: got %v", vals, got)
		}
		if err := d.Fill(make([]int64, 1)); err == nil {
			t.Errorf("%v: decoder should be exhausted", vals)
		}
	}
}

// fillChunked fills dst through fill in chunks of 1, 2, 3 and 7 values
// and then the rest, so that calls end inside RLE groups and bytes.
func fillChunked[T any](dst []T, fill func([]T) error) error {
	for _, k := range []int{1, 2, 3, 7} {
		k = min(k, len(dst))
		if err := fill(dst[:k]); err != nil {
			return err
		}
		dst = dst[k:]
	}
	return fill(dst)
}

func TestIntRLECompressesRuns(t *testing.T) {
	var e intEncoder
	for i := 0; i < 100000; i++ {
		e.Append(42)
	}
	enc := e.Finish()
	// Runs are capped at maxEncodeRun, so ~98 run headers expected.
	if len(enc) > 1024 {
		t.Errorf("constant run of 100k ints encoded to %d bytes", len(enc))
	}
	var e2 intEncoder
	for i := int64(0); i < 100000; i++ {
		e2.Append(i)
	}
	enc2 := e2.Finish()
	if len(enc2) > 2048 {
		t.Errorf("monotonic run of 100k ints encoded to %d bytes", len(enc2))
	}
}

func TestPropertyIntRLE(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, int(n)%2000)
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = int64(rng.Intn(5)) // encourage runs
			case 1:
				if i > 0 {
					vals[i] = vals[i-1] + 1 // encourage deltas
				}
			default:
				vals[i] = rng.Int63() - rng.Int63()
			}
		}
		var e intEncoder
		for _, v := range vals {
			e.Append(v)
		}
		d := intDecoder{buf: e.Finish()}
		got := make([]int64, len(vals))
		if err := fillChunked(got, d.Fill); err != nil || !slices.Equal(got, vals) {
			return false
		}
		return d.Fill(make([]int64, 1)) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitPackRoundtrip(t *testing.T) {
	var w bitWriter
	vals := []bool{true, false, true, true, false, false, true, false, true, true}
	for _, v := range vals {
		w.Append(v)
	}
	r := bitReader{buf: w.Finish()}
	got := make([]bool, len(vals))
	if err := fillChunked(got, r.Fill); err != nil || !slices.Equal(got, vals) {
		t.Fatalf("got %v, %v; want %v", got, err, vals)
	}
	// The last byte holds 6 padding bits; a fill past them fails.
	if err := r.Fill(make([]bool, 7)); err == nil {
		t.Error("bit reader should be exhausted")
	}
}

// checkFillNot unpacks length bits of buf from bit off through FillNot
// and through Fill and checks them against a bit-at-a-time reference:
// every flag of both, and FillNot's count of set bits and position
// after. A read past the end of buf must fail and leave the reader
// where it was.
func checkFillNot(t testing.TB, buf []byte, off, length int) {
	t.Helper()
	short := (off+length+7)/8 > len(buf)
	want := make([]bool, length)
	wantSet := 0
	for i := range want {
		if short {
			break
		}
		bit := buf[(off+i)/8]>>((off+i)%8)&1 != 0
		want[i] = !bit
		if bit {
			wantSet++
		}
	}
	r := bitReader{buf: buf, idx: off}
	got := make([]bool, length)
	set, err := r.FillNot(got)
	if short {
		if err == nil || r.idx != off {
			t.Fatalf("off %d len %d of %d bytes: FillNot = %v at bit %d, want an error at bit %d", off, length, len(buf), err, r.idx, off)
		}
		if err := r.Fill(got); err == nil {
			t.Fatalf("off %d len %d of %d bytes: Fill read past the end", off, length, len(buf))
		}
		return
	}
	if err != nil || set != wantSet || r.idx != off+length || !slices.Equal(got, want) {
		t.Fatalf("off %d len %d of % x: FillNot = %d, %v at bit %d; want %d at bit %d\ngot  %v\nwant %v",
			off, length, buf, set, err, r.idx, wantSet, off+length, got, want)
	}
	r = bitReader{buf: buf, idx: off}
	if err := r.Fill(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] == want[i] {
			t.Fatalf("off %d len %d of % x: Fill bit %d = %v", off, length, buf, i, got[i])
		}
	}
}

// TestFillNotMatchesBits holds the byte-at-a-time presence kernel to a
// bit-at-a-time reference at every start offset within two bytes, every
// length up to 200 and lengths across 64-bit word edges, over bitmaps
// that take each of its paths: all-set words, all-clear words, mixed
// bytes, and set runs that start and end mid-word.
func TestFillNotMatchesBits(t *testing.T) {
	const n = 48 // bytes: room for off 15 + length 300
	maps := map[string][]byte{
		"all set":     bytes.Repeat([]byte{0xff}, n),
		"all clear":   make([]byte, n),
		"alternating": bytes.Repeat([]byte{0x55}, n),
		"random":      make([]byte, n),
		"runs":        make([]byte, n),
	}
	rand.New(rand.NewSource(1)).Read(maps["random"])
	// Set runs of 5, 70 and 130 bits starting at bits 3, 60 and 141.
	for _, run := range [][2]int{{3, 5}, {60, 70}, {141, 130}} {
		for b := run[0]; b < run[0]+run[1]; b++ {
			maps["runs"][b/8] |= 1 << (b % 8)
		}
	}
	lengths := []int{255, 256, 257, 270, 300, 8*n - 15, 8*n - 16}
	for l := range 201 {
		lengths = append(lengths, l)
	}
	for name, buf := range maps {
		t.Run(name, func(t *testing.T) {
			for off := range 16 {
				for _, l := range lengths {
					checkFillNot(t, buf, off, l)
					// The same read from a bitmap that ends with it, and
					// from one a byte short.
					if end := (off + l + 7) / 8; end > 0 {
						checkFillNot(t, buf[:end], off, l)
						checkFillNot(t, buf[:end-1], off, l)
					}
				}
			}
		})
	}
	// Consecutive calls continue where the last one stopped.
	buf := maps["random"]
	r := bitReader{buf: buf}
	got := make([]bool, 8*n)
	for i := 0; i < len(got); {
		k := min(1+i%67, len(got)-i)
		if _, err := r.FillNot(got[i : i+k]); err != nil {
			t.Fatal(err)
		}
		i += k
	}
	for i, null := range got {
		if null != (buf[i/8]>>(i%8)&1 == 0) {
			t.Fatalf("chunked FillNot: bit %d", i)
		}
	}
}

// FuzzFillNotMatchesBits: any bitmap, start and length — FillNot agrees
// with the bit-at-a-time reference, or fails without panicking when the
// bitmap is short.
func FuzzFillNotMatchesBits(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(3), uint16(70))
	f.Add(bytes.Repeat([]byte{0x55}, 20), uint8(0), uint16(160))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(7), uint16(80))
	f.Fuzz(func(t *testing.T, buf []byte, off uint8, length uint16) {
		checkFillNot(t, buf, int(off)%(8*len(buf)+1), int(length))
	})
}

func testSchema() datum.Schema {
	return datum.Schema{
		{Name: "id", Kind: datum.KindInt},
		{Name: "price", Kind: datum.KindFloat},
		{Name: "flag", Kind: datum.KindString},
		{Name: "ok", Kind: datum.KindBool},
	}
}

func makeRows(n int, seed int64) []datum.Row {
	rng := rand.New(rand.NewSource(seed))
	flags := []string{"A", "N", "R"}
	rows := make([]datum.Row, n)
	for i := range rows {
		row := datum.Row{
			datum.Int(int64(i)),
			datum.Float(rng.Float64() * 1000),
			datum.String_(flags[rng.Intn(len(flags))]),
			datum.Bool(rng.Intn(2) == 0),
		}
		if rng.Intn(10) == 0 {
			row[1] = datum.Null
		}
		rows[i] = row
	}
	return rows
}

func writeFile(t *testing.T, rows []datum.Row, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema(), opts)
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
	return buf.Bytes()
}

// readAll drains data in batches of batchRows rows (DefaultBatchRows
// when 0), returning each row and its file ordinal.
func readAll(t *testing.T, data []byte, opts RowReaderOptions, batchRows int) ([]datum.Row, []int64) {
	t.Helper()
	rd, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	br := rd.NewBatchReader(opts)
	defer br.Close()
	cols := br.Vectors()
	b := datum.Batch{Cols: cols}
	var rows []datum.Row
	var ords []int64
	for {
		n, base, err := br.NextBatch(cols, batchRows)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		b.Len = n
		rows = b.AppendRows(rows)
		for i := 0; i < n; i++ {
			ords = append(ords, base+int64(i))
		}
	}
	return rows, ords
}

func TestWriteReadRoundtrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			rows := makeRows(2500, 1)
			data := writeFile(t, rows, WriterOptions{StripeRows: 1000, Compression: compress})
			got, ords := readAll(t, data, RowReaderOptions{}, 0)
			if len(got) != len(rows) {
				t.Fatalf("rows: %d vs %d", len(got), len(rows))
			}
			for i := range rows {
				if !got[i].Equal(rows[i]) {
					t.Fatalf("row %d: %v vs %v", i, got[i], rows[i])
				}
				if ords[i] != int64(i) {
					t.Fatalf("ordinal %d: got %d", i, ords[i])
				}
			}
		})
	}
}

func TestFooterMetadata(t *testing.T) {
	rows := makeRows(100, 2)
	data := writeFile(t, rows, WriterOptions{
		StripeRows: 40,
		UserMeta:   map[string]string{"dualtable.fileid": "17", "creator": "test"},
	})
	rd, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumRows() != 100 {
		t.Errorf("NumRows = %d", rd.NumRows())
	}
	if rd.NumStripes() != 3 { // 40+40+20
		t.Errorf("NumStripes = %d", rd.NumStripes())
	}
	if rd.StripeRows(2) != 20 {
		t.Errorf("StripeRows(2) = %d", rd.StripeRows(2))
	}
	if rd.UserMeta()["dualtable.fileid"] != "17" {
		t.Errorf("UserMeta = %v", rd.UserMeta())
	}
	if !reflect.DeepEqual(rd.Schema(), testSchema()) {
		t.Errorf("Schema = %v", rd.Schema())
	}
}

// TestStatsStringSumUnchanged: skipping the parse of strings that cannot
// be numbers never changes a column's Sum — numberLike says no only where
// strconv.ParseFloat fails — and the common non-numbers (dates, words)
// are skipped without allocating.
func TestStatsStringSumUnchanged(t *testing.T) {
	corpus := []string{"", " ", "12", " 12.5 ", "-3e2", "+.5", "1e+3", "1E-3", "0x1p-2", "0X1P+2", "1_0", "0x_1p0",
		"inf", "-Infinity", "NaN", "nan", "330100", "1994-01-01", "2014-04-02 05:30:00", "tag0", "N", "1-URGENT",
		"Clerk#000000012", "e5", "1e", "1e5-", "--1", "1+1", "0x1e-5", "0x1p", ".", "-", "1.2.3", "in", "1f", "\u00a012\u00a0", "1\u00e9"}
	const alphabet = "0123456789+-._eExXpPaAfFiInNtTyY zq#:"
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+rng.Intn(6))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		corpus = append(corpus, string(b))
	}
	skipped := 0
	for _, s := range corpus {
		var st stripeStats
		st.addString(s)
		var want float64
		f, ok := datum.String_(s).AsFloat()
		if ok {
			want += f
		}
		if floatBits(st.sum) != floatBits(want) {
			t.Errorf("Sum after %q = %v, AsFloat says %v (%v)", s, st.sum, want, ok)
		}
		if !numberLike(s) {
			skipped++
		}
	}
	if skipped < len(corpus)/2 {
		t.Errorf("only %d of %d strings skipped the parse", skipped, len(corpus))
	}
	// Folded in runs, a string equal to the one before it reuses that
	// one's parse: the same count, bounds and sum, added in order.
	var st, want stripeStats
	for i, s := range corpus {
		for k := 0; k <= i%3; k++ {
			st.addString(s)
			want.count++
			if want.count == 1 || s < want.minS {
				want.minS = s
			}
			if want.count == 1 || s > want.maxS {
				want.maxS = s
			}
			if f, ok := datum.String_(s).AsFloat(); ok {
				want.sum = addSum(want.sum, f)
			}
		}
	}
	if st.count != want.count || st.minS != want.minS || st.maxS != want.maxS || floatBits(st.sum) != floatBits(want.sum) {
		t.Errorf("folded in runs: count %d, bounds [%q, %q], sum %v; want %d, [%q, %q], %v",
			st.count, st.minS, st.maxS, st.sum, want.count, want.minS, want.maxS, want.sum)
	}
	st = stripeStats{}
	date, date2 := "1994-01-01", "1994-01-02"
	if n := testing.AllocsPerRun(100, func() { st.addString(date); st.addString(date2) }); n != 0 {
		t.Errorf("a date costs %v allocations per addString", n/2)
	}
}

func TestStatsBoundValues(t *testing.T) {
	rows := makeRows(500, 3)
	data := writeFile(t, rows, WriterOptions{StripeRows: 100})
	rd, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// id column: stripe s covers ids [100s, 100s+99].
	for s := 0; s < rd.NumStripes(); s++ {
		st := rd.StripeStats(s)[0]
		if st.Min.I != int64(100*s) || st.Max.I != int64(100*s+99) {
			t.Errorf("stripe %d id stats = [%v, %v]", s, st.Min, st.Max)
		}
		if st.Count != 100 {
			t.Errorf("stripe %d count = %d", s, st.Count)
		}
	}
	fileStats := rd.FileStats()
	if fileStats[0].Min.I != 0 || fileStats[0].Max.I != 499 {
		t.Errorf("file id stats = [%v, %v]", fileStats[0].Min, fileStats[0].Max)
	}
	// Sum of id column = 499*500/2.
	if fileStats[0].Sum != float64(499*500/2) {
		t.Errorf("file id sum = %v", fileStats[0].Sum)
	}
	// price column has nulls.
	if fileStats[1].NullCount == 0 {
		t.Error("expected nulls in price stats")
	}
}

func TestProjection(t *testing.T) {
	rows := makeRows(100, 4)
	data := writeFile(t, rows, WriterOptions{StripeRows: 50})
	got, _ := readAll(t, data, RowReaderOptions{Columns: []int{0, 2}}, 0)
	for i, row := range got {
		if row[0].K != datum.KindInt || row[2].K != datum.KindString {
			t.Fatalf("row %d projected cols missing: %v", i, row)
		}
		if !row[1].IsNull() || !row[3].IsNull() {
			t.Fatalf("row %d unprojected cols should be NULL: %v", i, row)
		}
	}
}

func TestPredicatePushdownSkipsStripes(t *testing.T) {
	rows := makeRows(1000, 5)
	data := writeFile(t, rows, WriterOptions{StripeRows: 100})
	// id >= 850: only stripes 8 and 9 qualify; ordinals must still be
	// the global row numbers.
	sa := &SearchArg{Predicates: []Predicate{{Column: 0, Op: OpGE, Value: datum.Int(850)}}}
	got, ords := readAll(t, data, RowReaderOptions{SearchArg: sa}, 0)
	if len(got) != 200 {
		t.Fatalf("pushdown returned %d rows, want 200 (2 stripes)", len(got))
	}
	if ords[0] != 800 {
		t.Errorf("first surviving ordinal = %d, want 800", ords[0])
	}
	for i, row := range got {
		if row[0].I != int64(800+i) {
			t.Fatalf("row %d id = %d", i, row[0].I)
		}
	}
}

func TestPushdownNeverDropsMatches(t *testing.T) {
	// Property: for random predicates, pushdown scan ⊇ exact matches.
	rows := makeRows(600, 6)
	data := writeFile(t, rows, WriterOptions{StripeRows: 64})
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		col := rng.Intn(2) // id or price
		ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
		op := ops[rng.Intn(len(ops))]
		var val datum.Datum
		if col == 0 {
			val = datum.Int(int64(rng.Intn(700)))
		} else {
			val = datum.Float(rng.Float64() * 1000)
		}
		sa := &SearchArg{Predicates: []Predicate{{Column: col, Op: op, Value: val}}}
		got, _ := readAll(t, data, RowReaderOptions{SearchArg: sa}, 0)
		gotSet := map[int64]bool{}
		for _, r := range got {
			gotSet[r[0].I] = true
		}
		matches := func(d datum.Datum) bool {
			if d.IsNull() {
				return false
			}
			c := datum.Compare(d, val)
			switch op {
			case OpEQ:
				return c == 0
			case OpNE:
				return c != 0
			case OpLT:
				return c < 0
			case OpLE:
				return c <= 0
			case OpGT:
				return c > 0
			default:
				return c >= 0
			}
		}
		for _, r := range rows {
			if matches(r[col]) && !gotSet[r[0].I] {
				t.Fatalf("trial %d: pushdown dropped matching row id=%d (pred col%d %v %v)",
					trial, r[0].I, col, op, val)
			}
		}
	}
}

func TestAllNullColumn(t *testing.T) {
	schema := datum.Schema{{Name: "v", Kind: datum.KindString}}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, schema, WriterOptions{StripeRows: 10})
	for i := 0; i < 25; i++ {
		if err := w.WriteRow(datum.Row{datum.Null}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	all, _ := readAll(t, buf.Bytes(), RowReaderOptions{}, 0)
	for _, row := range all {
		if !row[0].IsNull() {
			t.Fatalf("expected NULL, got %v", row[0])
		}
	}
	if len(all) != 25 {
		t.Errorf("read %d rows", len(all))
	}
	// An equality predicate on the all-null column prunes everything.
	sa := &SearchArg{Predicates: []Predicate{{Column: 0, Op: OpEQ, Value: datum.String_("x")}}}
	got, _ := readAll(t, buf.Bytes(), RowReaderOptions{SearchArg: sa}, 0)
	if len(got) != 0 {
		t.Errorf("all-null pruning failed: %d rows", len(got))
	}
}

func TestDictionaryEncodingChosen(t *testing.T) {
	// Low-cardinality column should compress far better than random.
	schema := datum.Schema{{Name: "s", Kind: datum.KindString}}
	build := func(card int) int {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, schema, WriterOptions{StripeRows: 5000})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5000; i++ {
			w.WriteRow(datum.Row{datum.String_(fmt.Sprintf("value-%06d", rng.Intn(card)))})
		}
		w.Close()
		return buf.Len()
	}
	low := build(3)
	high := build(1000000)
	if low*4 > high {
		t.Errorf("dictionary encoding ineffective: low-card %d bytes vs high-card %d", low, high)
	}
	// Roundtrip both.
	for _, card := range []int{3, 1000000} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, schema, WriterOptions{StripeRows: 1000})
		rng := rand.New(rand.NewSource(2))
		var want []string
		for i := 0; i < 2000; i++ {
			s := fmt.Sprintf("v-%d", rng.Intn(card))
			want = append(want, s)
			w.WriteRow(datum.Row{datum.String_(s)})
		}
		w.Close()
		got, _ := readAll(t, buf.Bytes(), RowReaderOptions{}, 0)
		if len(got) != len(want) {
			t.Fatalf("card %d: read %d rows of %d", card, len(got), len(want))
		}
		for i, wantS := range want {
			if got[i][0].S != wantS {
				t.Fatalf("card %d row %d: %q vs %q", card, i, got[i][0].S, wantS)
			}
		}
	}
}

func TestWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, nil, WriterOptions{}); err == nil {
		t.Error("empty schema should fail")
	}
	w, _ := NewWriter(&buf, testSchema(), WriterOptions{})
	if err := w.WriteRow(datum.Row{datum.Int(1)}); err == nil {
		t.Error("short row should fail")
	}
	if err := w.WriteRow(datum.Row{datum.Float(1), datum.Float(1), datum.String_("x"), datum.Bool(true)}); err == nil {
		t.Error("kind mismatch should fail")
	}
	w.Close()
	if err := w.WriteRow(makeRows(1, 1)[0]); err == nil {
		t.Error("write after close should fail")
	}
	if err := w.Close(); err == nil {
		t.Error("double close should fail")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(bytes.NewReader(nil), 0); err == nil {
		t.Error("empty file should fail")
	}
	junk := bytes.Repeat([]byte("j"), 100)
	if _, err := Open(bytes.NewReader(junk), int64(len(junk))); err == nil {
		t.Error("junk file should fail")
	}
}

func TestEmptyFileRoundtrip(t *testing.T) {
	data := writeFile(t, nil, WriterOptions{})
	rd, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumRows() != 0 || rd.NumStripes() != 0 {
		t.Errorf("empty file: rows=%d stripes=%d", rd.NumRows(), rd.NumStripes())
	}
	br := rd.NewBatchReader(RowReaderOptions{})
	defer br.Close()
	if _, _, err := br.NextBatch(br.Vectors(), 0); err != io.EOF {
		t.Errorf("NextBatch on empty = %v", err)
	}
}

type quickRows struct {
	rows []datum.Row
}

func (quickRows) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(300)
	rows := make([]datum.Row, n)
	for i := range rows {
		row := make(datum.Row, 4)
		if rng.Intn(8) == 0 {
			row[0] = datum.Null
		} else {
			row[0] = datum.Int(rng.Int63n(1e9) - 5e8)
		}
		if rng.Intn(8) == 0 {
			row[1] = datum.Null
		} else {
			row[1] = datum.Float(rng.NormFloat64() * 100)
		}
		if rng.Intn(8) == 0 {
			row[2] = datum.Null
		} else {
			b := make([]byte, rng.Intn(12))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			row[2] = datum.String_(string(b))
		}
		if rng.Intn(8) == 0 {
			row[3] = datum.Null
		} else {
			row[3] = datum.Bool(rng.Intn(2) == 0)
		}
		rows[i] = row
	}
	return reflect.ValueOf(quickRows{rows})
}

func TestPropertyFileRoundtrip(t *testing.T) {
	f := func(qr quickRows, compress bool, stripeExp, batchRows uint8) bool {
		stripeRows := 1 << (stripeExp%8 + 1) // 2..256
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testSchema(), WriterOptions{StripeRows: stripeRows, Compression: compress})
		if err != nil {
			return false
		}
		for _, r := range qr.rows {
			if err := w.WriteRow(r); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			return false
		}
		br := rd.NewBatchReader(RowReaderOptions{})
		defer br.Close()
		cols := br.Vectors()
		next := 0
		for {
			n, base, err := br.NextBatch(cols, int(batchRows)) // 0: DefaultBatchRows
			if err == io.EOF {
				return next == len(qr.rows)
			}
			if err != nil || base != int64(next) || next+n > len(qr.rows) {
				return false
			}
			for i := 0; i < n; i++ {
				for c, want := range qr.rows[next] {
					if got := cols[c].Datum(i); got.K != want.K || !datum.Equal(got, want) {
						return false
					}
				}
				next++
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
