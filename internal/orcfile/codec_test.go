package orcfile

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dualtable/internal/datum"
)

// The small file of the serving benchmark: 512 rows of {BIGINT, BIGINT,
// DOUBLE}, one stripe, compressed.
func smallSchema() datum.Schema {
	return datum.Schema{
		{Name: "k", Kind: datum.KindInt},
		{Name: "grp", Kind: datum.KindInt},
		{Name: "v", Kind: datum.KindFloat},
	}
}

func smallRows(seed int) []datum.Row {
	rows := make([]datum.Row, 512)
	for i := range rows {
		rows[i] = datum.Row{
			datum.Int(int64(seed*1000 + i)),
			datum.Int(int64((i*7 + seed) % 64)),
			datum.Float(float64(i*seed) / 3),
		}
		if i%97 == seed%97 {
			rows[i][2] = datum.Null
		}
	}
	return rows
}

func encodeFile(schema datum.Schema, rows []datum.Row, opts WriterOptions) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// drainBatch reads at most limit rows of data through the batch reader
// and its own vectors, returning the scratch at the end.
func drainBatch(data []byte, limit int) ([]datum.Row, error) {
	return drainBatches(data, limit, 0)
}

// drainOneRowBatches reads data as drainBatch does, in batches of one
// row: every decoder call ends at a row, inside RLE groups and bitmap
// bytes.
func drainOneRowBatches(data []byte, limit int) ([]datum.Row, error) {
	return drainBatches(data, limit, 1)
}

func drainBatches(data []byte, limit, batchRows int) ([]datum.Row, error) {
	rd, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	br := rd.NewBatchReader(RowReaderOptions{})
	defer br.Close()
	b := datum.Batch{Cols: br.Vectors()}
	var rows []datum.Row
	for len(rows) < limit {
		n, _, err := br.NextBatch(b.Cols, batchRows)
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, err
		}
		b.Len = n
		rows = b.AppendRows(rows)
	}
	return rows, nil
}

// openAndDrain is what a scan does with a file, in batches of the
// default size and of one row. It returns the first error; a panic
// anywhere is the caller's failure.
func openAndDrain(data []byte) error {
	const limit = 1 << 16
	if _, err := drainBatch(data, limit); err != nil {
		return err
	}
	_, err := drainOneRowBatches(data, limit)
	return err
}

// craftFile lays out an uncompressed file from hand-made parts: one
// stripe holding the given column streams, and whatever stripe directory
// mutate leaves.
func craftFile(schema datum.Schema, rows int64, streams [][]byte, mutate func(stripes []stripeMeta)) []byte {
	var body []byte
	sm := stripeMeta{rows: rows, stats: make([]ColumnStats, len(schema))}
	for _, s := range streams {
		sm.streams = append(sm.streams, streamMeta{relOff: uint64(len(body)), length: uint64(len(s))})
		body = append(body, s...)
	}
	sm.length = uint64(len(body))
	w := &Writer{schema: schema, totalRows: rows, stripes: []stripeMeta{sm}, fileStats: make([]ColumnStats, len(schema))}
	if mutate != nil {
		mutate(w.stripes)
	}
	return appendTail(body, w.appendFooter(nil), uint64(len(body)), 0)
}

// appendTail appends footer and a tail that declares it at footerOff.
func appendTail(body, footer []byte, footerOff, flags uint64) []byte {
	out := append(append([]byte(nil), body...), footer...)
	out = binary.LittleEndian.AppendUint64(out, footerOff)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(footer)))
	out = binary.LittleEndian.AppendUint64(out, flags)
	return binary.LittleEndian.AppendUint64(out, orcMagic)
}

// TestCorruptFilesReturnErrors feeds Open and both drains files whose
// tail, footer or stream headers declare sizes far outside the file.
// Each must come back as an error: a length that is compared after
// conversion to int, or after an addition that wraps, panics instead
// (the first case is makeslice: len out of range before the fix).
func TestCorruptFilesReturnErrors(t *testing.T) {
	good, err := encodeFile(smallSchema(), smallRows(1), WriterOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	withTail := func(off, length uint64) []byte {
		out := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(out[len(out)-TailSize:], off)
		binary.LittleEndian.PutUint64(out[len(out)-TailSize+8:], length)
		return out
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	intStream := append(uv(1), 0xFF)                            // presence: 1 byte, 8 non-NULL
	intStream = append(intStream, rleRun, 5, 0)                 // eight zeros
	strCol := datum.Schema{{Name: "s", Kind: datum.KindString}} // one string column
	intCol := datum.Schema{{Name: "i", Kind: datum.KindInt}}    // one int column
	strStream := func(data ...byte) []byte { return append(append(uv(1), 0xFF), data...) }
	const huge = uint64(1) << 63

	cases := []struct {
		name string
		data []byte
	}{
		{"tail: footer length 1<<63", withTail(0, huge)},
		{"tail: footer offset 1<<63", withTail(huge, 8)},
		{"tail: offset+length wraps to a small sum", withTail(^uint64(0)-7, 16)},
		{"tail: footer longer than the file", withTail(0, uint64(len(good)))},
		{"tail: footer starts inside the tail", withTail(uint64(len(good))-8, 4)},

		{"footer: column count 1<<62", appendTail(nil, uv(1<<62), 0, 0)},
		{"footer: meta count 1<<62", appendTail(nil, uv(0, 1<<62), 0, 0)},
		{"footer: row count 1<<63", appendTail(nil, uv(0, 0, huge, 0), 0, 0)},
		{"footer: stripe count 1<<62", appendTail(nil, uv(0, 0, 0, 1<<62), 0, 0)},
		{"footer: more stripes than bytes to describe them", appendTail(nil, append(uv(0, 0, 0, 16), make([]byte, 16)...), 0, 0)},
		{"footer: stripe offset past the data", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].offset = huge })},
		{"footer: stripe length 1<<63", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].length = huge })},
		{"footer: stripe offset+length wraps", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].offset, s[0].length = ^uint64(0)-1, 4 })},
		{"footer: stripe rows 1<<63", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].rows = -1 << 63 })},
		{"footer: stream offset past the stripe", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].streams[0].relOff = huge })},
		{"footer: stream length 1<<63", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].streams[0].length = huge })},
		{"footer: stream offset+length wraps", craftFile(intCol, 8, [][]byte{intStream}, func(s []stripeMeta) { s[0].streams[0].relOff, s[0].streams[0].length = ^uint64(0), 2 })},
		{"footer: more rows than the streams hold", craftFile(intCol, 1<<40, [][]byte{intStream}, nil)},

		{"stream: presence length 1<<63", craftFile(intCol, 8, [][]byte{uv(huge)}, nil)},
		{"stream: presence length -1 as int", craftFile(intCol, 8, [][]byte{uv(^uint64(0))}, nil)},
		{"stream: dictionary size 1<<62", craftFile(strCol, 8, [][]byte{strStream(append([]byte{0x01}, uv(1<<62)...)...)}, nil)},
		{"stream: dictionary index length 1<<63", craftFile(strCol, 8, [][]byte{strStream(append([]byte{0x01}, uv(1, 1, 'a', huge)...)...)}, nil)},
		{"stream: direct length-stream size 1<<63", craftFile(strCol, 8, [][]byte{strStream(append([]byte{0x00}, uv(huge)...)...)}, nil)},
		{"stream: direct length-stream size -1 as int", craftFile(strCol, 8, [][]byte{strStream(append([]byte{0x00}, uv(^uint64(0))...)...)}, nil)},
		{"stream: string length 1<<62", craftFile(strCol, 8, [][]byte{strStream(append(append([]byte{0x00}, uv(3, rleRun, 5)...), uv(1<<63)...)...)}, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			if err := openAndDrain(tc.data); err == nil {
				t.Fatal("read without error")
			}
		})
	}
	// The crafting helpers build readable files when nothing is bent.
	if rows, err := drainBatch(craftFile(intCol, 8, [][]byte{intStream}, nil), 100); err != nil || len(rows) != 8 {
		t.Fatalf("unbent crafted file: %d rows, %v", len(rows), err)
	}
}

// FuzzOpenNeverPanics: whatever the bytes, opening and scanning a file
// returns rows or an error. The seeds (run by plain go test) are valid
// files of both flavours, so mutation starts from inputs that get past
// the magic check.
func FuzzOpenNeverPanics(f *testing.F) {
	for _, opts := range []WriterOptions{{Compression: true}, {}, {StripeRows: 16}} {
		data, err := encodeFile(testSchema(), makeRows(64, 3), opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = openAndDrain(data) // an error is a fine answer
	})
}

// TestConcurrentWritersAndReadersShareCodecState: the free lists are
// the first state orcfile shares between tasks. Eight goroutines each
// write a compressed file and read it back in full batches and in
// one-row batches, over and over; every file and every row must equal
// what a lone goroutine produced. Run under -race.
func TestConcurrentWritersAndReadersShareCodecState(t *testing.T) {
	const workers, rounds = 8, 25
	opts := WriterOptions{Compression: true, StripeRows: 200} // three stripes
	wantFile := make([][]byte, workers)
	wantRows := make([][]datum.Row, workers)
	for g := range wantFile {
		var err error
		wantRows[g] = smallRows(g + 1)
		if wantFile[g], err = encodeFile(smallSchema(), wantRows[g], opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				data, err := encodeFile(smallSchema(), wantRows[g], opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(data, wantFile[g]) {
					t.Errorf("worker %d round %d: file differs from the serial one", g, i)
					return
				}
				for name, drain := range map[string]func([]byte, int) ([]datum.Row, error){"batch": drainBatch, "one-row batch": drainOneRowBatches} {
					rows, err := drain(data, 1<<20)
					if err != nil {
						t.Errorf("worker %d round %d %s: %v", g, i, name, err)
						return
					}
					if !reflect.DeepEqual(rows, wantRows[g]) {
						t.Errorf("worker %d round %d %s: rows differ from the serial ones", g, i, name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInflaterReusedAfterCorruptStream: a stream that fails to inflate
// reports its error, and the inflater it failed in — handed straight to
// the next reader — decodes a good file correctly.
func TestInflaterReusedAfterCorruptStream(t *testing.T) {
	want := smallRows(5)
	good, err := encodeFile(smallSchema(), want, WriterOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF // first deflate block of the first stream: reserved block type

	// Leave exactly one inflater on the list, so it is the one every
	// load below borrows.
	z := inflaters.Get()
	for len(inflaters) > 0 {
		<-inflaters
	}
	inflaters.Put(z)

	for _, drain := range []func([]byte, int) ([]datum.Row, error){drainBatch, drainOneRowBatches} {
		if _, err := drain(bad, 1<<20); err == nil {
			t.Fatal("corrupt stripe read without error")
		}
		if len(inflaters) != 1 {
			t.Fatalf("free list holds %d inflaters after the failed read, want the 1 it borrowed", len(inflaters))
		}
		rows, err := drain(good, 1<<20)
		if err != nil {
			t.Fatalf("good file after a corrupt one: %v", err)
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatal("good file after a corrupt one: rows differ")
		}
	}
	if got := inflaters.Get(); got != z {
		t.Fatal("the reads did not go through the one listed inflater")
	} else {
		inflaters.Put(got)
	}
}

// allocBytesPerRun reports the bytes f allocates per call in steady
// state (one warm-up call first).
func allocBytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSteadyStateConstructsNoCodec pins the point of the free lists
// with budgets a single flate.NewReader (~44 KB) or flate.NewWriter
// (~650 KB) would break: after one warm-up, opening and draining the
// small file, and writing it, allocate far less than one codec.
func TestSteadyStateConstructsNoCodec(t *testing.T) {
	rows := smallRows(2)
	data, err := encodeFile(smallSchema(), rows, WriterOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	read := allocBytesPerRun(50, func() {
		rd, err := Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		br := rd.NewBatchReader(RowReaderOptions{})
		cols := br.Vectors()
		for {
			if _, _, err := br.NextBatch(cols, 0); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		br.Close()
	})
	const readBudget = 8 << 10
	if read > readBudget {
		t.Errorf("open + drain allocates %d B per file in steady state, budget %d", read, readBudget)
	}
	var out bytes.Buffer
	write := allocBytesPerRun(50, func() {
		out.Reset()
		w, err := NewWriter(&out, smallSchema(), WriterOptions{Compression: true})
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
	})
	const writeBudget = 96 << 10
	if write > writeBudget {
		t.Errorf("writing allocates %d B per file in steady state, budget %d", write, writeBudget)
	}
	t.Logf("steady state: open+drain %d B, write %d B per 512-row file", read, write)
}

var benchSink int

// BenchmarkOpenDrainSmallFile opens and drains the small file with its
// streams out of the stream cache (cold: every load inflates, as the
// first scan of a file does) and in it (warm: every later scan).
func BenchmarkOpenDrainSmallFile(b *testing.B) {
	data, err := encodeFile(smallSchema(), smallRows(2), WriterOptions{Compression: true})
	if err != nil {
		b.Fatal(err)
	}
	drain := func(b *testing.B) {
		rd, err := Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		br := rd.NewBatchReader(RowReaderOptions{})
		cols := br.Vectors()
		for {
			n, _, err := br.NextBatch(cols, 0)
			if err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			benchSink += n
		}
		br.Close()
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cache.reset()
			drain(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		drain(b)
		b.ReportAllocs()
		for b.Loop() {
			drain(b)
		}
	})
}

func BenchmarkWriteSmallFile(b *testing.B) {
	rows := smallRows(2)
	var out bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		out.Reset()
		w, err := NewWriter(&out, smallSchema(), WriterOptions{Compression: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		benchSink += out.Len()
	}
}

// TestStripeOpenAllocatesNothing: a scan keeps its stripe cursors, and
// the decoders in them, by value in its recycled scratch, so in steady
// state draining a file of 32 stripes costs no more allocations than
// draining the same rows in one stripe. (Open is left out: inflating a
// larger footer allocates in flate.)
func TestStripeOpenAllocatesNothing(t *testing.T) {
	allocs := func(stripeRows int) float64 {
		data, err := encodeFile(smallSchema(), smallRows(3), WriterOptions{Compression: true, StripeRows: stripeRows})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			br := rd.NewBatchReader(RowReaderOptions{})
			defer br.Close()
			for {
				if _, _, err := br.NextBatch(br.Vectors(), 0); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if one, many := allocs(512), allocs(16); many > one {
		t.Errorf("drain: %v allocations in 32 stripes, %v in one", many, one)
	}
}
