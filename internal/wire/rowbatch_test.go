package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dualtable/internal/datum"
)

// columnRows builds n rows of one column per kind, a mixed column and
// an all-NULL one, with NULLs and empty strings mixed in.
func columnRows(rng *rand.Rand, n int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		r := datum.Row{
			datum.Int(rng.Int63() - rng.Int63()),
			datum.Float(rng.NormFloat64()),
			datum.String_([]string{"", "a", "tag-17", "héllo"}[rng.Intn(4)]),
			datum.Bool(rng.Intn(2) == 0),
			[]datum.Datum{datum.Int(int64(i)), datum.String_("mixed"), datum.Float(-0.0), datum.Bool(true)}[rng.Intn(4)],
			datum.Null,
		}
		for j := range r {
			if rng.Intn(4) == 0 {
				r[j] = datum.Null
			}
		}
		rows[i] = r
	}
	return rows
}

// TestRowBatchVectorsRoundTrip: decode(encode(cols)) == cols for random
// vectors at every row count around a bitmap byte, every sub-range of a
// batch encodes as that range alone, and RowBatch{Rows}.Encode() is the
// vector encoder over the transposed rows, byte for byte.
func TestRowBatchVectorsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var back datum.Batch // reused across frames, as the driver reuses its own
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		rows := columnRows(rng, n)
		var b datum.Batch
		width := 0
		if n > 0 {
			width = len(rows[0])
		}
		b.SetRows(rows, width)
		payload := AppendRowBatch(nil, 42, &b, 0, n)
		if got := (&RowBatch{OpID: 42, Rows: rows}).Encode(); !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: RowBatch.Encode differs from the vector encoder", n)
		}
		opID, err := DecodeRowBatch(payload, &back)
		if err != nil || opID != 42 {
			t.Fatalf("n=%d: decode: op %d, %v", n, opID, err)
		}
		if got := back.AppendRows(nil); !reflect.DeepEqual(got, b.AppendRows(nil)) {
			t.Fatalf("n=%d: decoded rows differ:\n got %v\nwant %v", n, got, rows)
		}
		for j := range b.Cols {
			if back.Cols[j].Kind != b.Cols[j].Kind {
				t.Errorf("n=%d: column %d decoded as kind %v, was %v", n, j, back.Cols[j].Kind, b.Cols[j].Kind)
			}
		}
		if again := AppendRowBatch(nil, 42, &back, 0, back.Len); !bytes.Equal(again, payload) {
			t.Fatalf("n=%d: re-encoding the decoded batch changed the payload", n)
		}
		if n >= 9 {
			from, to := 3, n-2
			var part datum.Batch
			part.SetRows(rows[from:to], width)
			want := AppendRowBatch(nil, 1, &part, 0, part.Len)
			// The sub-range of a mixed column stays tagged even if its
			// rows happen to share a kind, so compare the rows.
			var gotPart datum.Batch
			if _, err := DecodeRowBatch(AppendRowBatch(nil, 1, &b, from, to), &gotPart); err != nil {
				t.Fatalf("n=%d: decode of rows [%d,%d): %v", n, from, to, err)
			}
			var wantPart datum.Batch
			if _, err := DecodeRowBatch(want, &wantPart); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotPart.AppendRows(nil), wantPart.AppendRows(nil)) {
				t.Fatalf("n=%d: rows [%d,%d) of the batch do not encode as those rows", n, from, to)
			}
		}
	}
}

// TestRowBatchDecodeCopiesOutOfPayload: the decoder keeps nothing of the
// payload, so a receive buffer may be overwritten by the next frame while
// values handed out of the batch are still in use.
func TestRowBatchDecodeCopiesOutOfPayload(t *testing.T) {
	rows := columnRows(rand.New(rand.NewSource(5)), 64)
	payload := (&RowBatch{OpID: 1, Rows: rows}).Encode()
	var b datum.Batch
	if _, err := DecodeRowBatch(payload, &b); err != nil {
		t.Fatal(err)
	}
	want := b.AppendRows(nil)
	for i := range payload {
		payload[i] = 0xEE
	}
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("a decoded batch changed when its payload was overwritten")
	}
}

// TestRowBatchBoundsBeforeAllocation feeds the decoder counts no payload
// of that length could hold: each is refused, and none is sized first
// (a 2^40-row vector would not return).
func TestRowBatchBoundsBeforeAllocation(t *testing.T) {
	u := binary.AppendUvarint
	hdr := func(n, w uint64) []byte { return u(u(u(nil, 1), n), w) }
	cases := map[string][]byte{
		"rows without columns":      hdr(5, 0),
		"rows exceed payload":       append(hdr(1<<40, 1), 1, 0xFF),
		"columns exceed payload":    append(hdr(0, 1<<40), 1),
		"rows × columns overflow":   append(hdr(1<<62, 1<<62), 1),
		"bitmaps exceed payload":    append(hdr(64, 3), bytes.Repeat([]byte{0}, 20)...),
		"floats exceed payload":     append(hdr(8, 1), 2, 0x00, 1, 2, 3, 4, 5, 6, 7, 8),
		"unknown kind":              append(hdr(1, 1), 9, 0x00, 0),
		"null bitmap padding":       append(hdr(1, 1), 1, 0xFE),
		"string run past payload":   append(hdr(2, 1), 3, 0x00, 1, 200, 'a'),
		"string lengths wrap":       append(append(append(hdr(2, 1), 3, 0x00), u(u(nil, math.MaxUint64), 2)...), 'a', 'b'),
		"tagged NULL":               append(hdr(1, 1), 0, 0x00, 0x00, 0x00),
		"bool padding":              append(hdr(1, 1), 4, 0x00, 0x02),
		"trailing bytes":            append((&RowBatch{OpID: 1, Rows: []datum.Row{{datum.Int(1)}}}).Encode(), 0),
		"column missing":            hdr(0, 1),
		"truncated tagged value":    append(hdr(1, 1), 0, 0x00, 0x03, 5),
		"truncated varint in ints":  append(hdr(2, 1), 1, 0x00, 0x80, 0x80),
		"bool values exceed":        append(hdr(16, 1), 4, 0x00, 0x00, 0xFF),
		"tagged values exceed":      append(hdr(4, 1), 0, 0x00, 0x01, 0x02, 0x01),
		"string lengths truncated":  append(hdr(3, 1), 3, 0x00, 1, 'a'),
		"header only":               u(nil, 1),
		"empty":                     nil,
		"rows and no column header": hdr(1, 1),
	}
	for name, p := range cases {
		var b datum.Batch
		if _, err := DecodeRowBatch(p, &b); err == nil {
			t.Errorf("%s: decode accepted % x", name, p)
		}
	}
	// The smallest legal payloads, for contrast.
	for name, p := range map[string][]byte{
		"no rows, no columns": hdr(0, 0),
		"no rows, a column":   append(hdr(0, 2), 1, 3),
		"one NULL":            append(hdr(1, 1), 0, 0x01),
	} {
		var b datum.Batch
		if _, err := DecodeRowBatch(p, &b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// streamRows is 256 rows shaped like bench's serve_stream table: two
// BIGINTs, two DOUBLEs, two short STRINGs.
func streamRows() []datum.Row {
	rng := rand.New(rand.NewSource(1))
	rows := make([]datum.Row, 256)
	for i := range rows {
		rows[i] = datum.Row{
			datum.Int(int64(i)), datum.Int(int64(i % 64)),
			datum.Float(float64(rng.Intn(400000)) / 4), datum.Float(float64(rng.Intn(1000))),
			datum.String_(fmt.Sprintf("tag-%02d", rng.Intn(97))),
			datum.String_(fmt.Sprintf("2014-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
		}
	}
	return rows
}

// BenchmarkRowBatchCodec times the streamed frame's codec the way the
// server and the driver run it: encode appends into one buffer, decode
// fills one batch. In steady state encode allocates nothing and decode
// one string per STRING column, not one value per row.
func BenchmarkRowBatchCodec(b *testing.B) {
	var batch datum.Batch
	rows := streamRows()
	batch.SetRows(rows, len(rows[0]))
	payload := AppendRowBatch(nil, 1, &batch, 0, batch.Len)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		buf := make([]byte, 0, len(payload))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendRowBatch(buf[:0], 1, &batch, 0, batch.Len)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len), "ns/row")
		b.ReportMetric(float64(len(buf))/float64(batch.Len), "B/row")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		var into datum.Batch
		if _, err := DecodeRowBatch(payload, &into); err != nil { // warm the vectors
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRowBatch(payload, &into); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len), "ns/row")
	})
}

// TestRowBatchDecodeAllocatesPerColumn pins the decoder's steady state:
// into a batch that has held a frame before, a frame costs one
// allocation per STRING column and nothing per row.
func TestRowBatchDecodeAllocatesPerColumn(t *testing.T) {
	rows := streamRows()
	payload := (&RowBatch{OpID: 1, Rows: rows}).Encode()
	var into datum.Batch
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeRowBatch(payload, &into); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 { // two STRING columns and the reader
		t.Errorf("decoding %d rows into a warm batch allocates %.0f times", len(rows), allocs)
	}
	buf := AppendRowBatch(nil, 1, &into, 0, into.Len)
	if allocs := testing.AllocsPerRun(20, func() { buf = AppendRowBatch(buf[:0], 1, &into, 0, into.Len) }); allocs != 0 {
		t.Errorf("encoding into a warm buffer allocates %.0f times", allocs)
	}
}
