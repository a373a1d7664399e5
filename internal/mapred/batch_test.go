package mapred

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sim"
)

// dualShapeSplit serves the same (id, word) records row at a time and
// as columnar batches, like a storage reader with both decode paths.
type dualShapeSplit struct {
	base, n int
}

func (s *dualShapeSplit) Length() int64 { return int64(s.n * 12) }

func (s *dualShapeSplit) Open(m *sim.Meter) (RecordReader, error) {
	m.DFSRead(s.Length())
	return &dualShapeReader{split: s, cols: make([]datum.ColumnVector, 2)}, nil
}

type dualShapeReader struct {
	split *dualShapeSplit
	idx   int
	row   datum.Row // reused between Next calls, as the contract allows
	cols  []datum.ColumnVector
}

func (r *dualShapeReader) value(i int) (int64, string) {
	id := int64(r.split.base + i)
	return id, fmt.Sprintf("w%d", id%7)
}

func (r *dualShapeReader) Next() (datum.Row, RecordMeta, error) {
	if r.idx >= r.split.n {
		return nil, RecordMeta{}, EOF
	}
	id, word := r.value(r.idx)
	r.row = append(r.row[:0], datum.Int(id), datum.String_(word))
	r.idx++
	return r.row, RecordMeta{RecordID: uint64(id)}, nil
}

func (r *dualShapeReader) NextBatch(b *RecordBatch) error {
	if r.idx >= r.split.n {
		return EOF
	}
	n := min(100, r.split.n-r.idx)
	r.cols[0].Reset(datum.KindInt, n)
	r.cols[1].Reset(datum.KindString, n)
	for i := 0; i < n; i++ {
		id, word := r.value(r.idx + i)
		r.cols[0].SetDatum(i, datum.Int(id))
		r.cols[1].SetDatum(i, datum.String_(word))
	}
	b.Len, b.Cols, b.Sel = n, r.cols, nil
	b.BaseID = uint64(r.split.base + r.idx)
	r.idx += n
	return nil
}

func (r *dualShapeReader) Close() error { return nil }

// wordLenNative is the batch-native twin of wordLenRow: it reads the
// vectors itself instead of going through MapFunc.MapBatch.
type wordLenNative struct{}

func wordLenRow(row datum.Row, meta RecordMeta, emit Emitter) error {
	if row[0].I%3 == 0 {
		return nil
	}
	return emit([]byte(row[1].S), datum.Row{datum.Int(row[0].I), datum.Int(int64(meta.RecordID))})
}

func (wordLenNative) MapBatch(b *RecordBatch, emit Emitter) error {
	for k := 0; k < b.Live(); k++ {
		i := b.Slot(k)
		id, word := b.Cols[0].Datum(i), b.Cols[1].Strs[i]
		if id.I%3 == 0 {
			continue
		}
		if err := emit([]byte(word), datum.Row{id, datum.Int(int64(b.Meta(i).RecordID))}); err != nil {
			return err
		}
	}
	return nil
}

func (wordLenNative) Flush(Emitter) error { return nil }

// TestRowBatchAdaptersAgree crosses the two adapters: a row reader
// lifted into a batch mapper (DisableBatchScan) and a batch reader
// walked by a per-record MapFunc must produce exactly what the native
// pairings do — rows, Counters and SimSeconds — with and without a
// shuffle.
func TestRowBatchAdaptersAgree(t *testing.T) {
	splits := []InputSplit{&dualShapeSplit{base: 0, n: 250}, &dualShapeSplit{base: 250, n: 1}, &dualShapeSplit{base: 300, n: 333}}
	mappers := map[string]func() Mapper{
		"MapFunc": func() Mapper { return MapFunc(wordLenRow) },
		"native":  func() Mapper { return wordLenNative{} },
	}
	for _, shuffle := range []bool{false, true} {
		var want *Result
		for name, newMapper := range mappers {
			for _, rowReader := range []bool{false, true} {
				c := testCluster()
				c.DisableBatchScan = rowReader
				job := &Job{Name: "adapters", Splits: splits, NewMapper: newMapper}
				if shuffle {
					job.NumReducers = 2
					job.NewReducer = func() Reducer {
						return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
							var sum int64
							for _, r := range rows {
								sum += r[0].I + r[1].I
							}
							return emit(nil, datum.Row{datum.String_(string(key)), datum.Int(sum)})
						})
					}
				}
				got, err := c.Run(job)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("shuffle=%v %s rowReader=%v", shuffle, name, rowReader)
				if want == nil {
					want = got
					if want.Counters.MapInputRecords != 584 || len(want.Rows) == 0 {
						t.Fatalf("%s: reference run %+v, %d rows", label, want.Counters, len(want.Rows))
					}
					continue
				}
				if got.Counters != want.Counters {
					t.Errorf("%s: counters %+v, want %+v", label, got.Counters, want.Counters)
				}
				if got.SimSeconds != want.SimSeconds {
					t.Errorf("%s: SimSeconds %v, want %v", label, got.SimSeconds, want.SimSeconds)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					if got.Rows[i].String() != want.Rows[i].String() {
						t.Fatalf("%s: row %d = %s, want %s", label, i, got.Rows[i], want.Rows[i])
					}
				}
			}
		}
	}
}

// endlessSplit never ends; its reader cancels the job's context after
// cancelAt records and counts how many more the task still pulls.
type endlessSplit struct {
	cancel   context.CancelFunc
	cancelAt int64
	served   atomic.Int64
}

func (s *endlessSplit) Length() int64 { return 1 }

func (s *endlessSplit) Open(*sim.Meter) (RecordReader, error) { return s, nil }

func (s *endlessSplit) Next() (datum.Row, RecordMeta, error) {
	n := s.served.Add(1)
	if n == s.cancelAt {
		s.cancel()
	}
	return datum.Row{datum.Int(1)}, RecordMeta{RecordID: uint64(n)}, nil
}

func (s *endlessSplit) Close() error { return nil }

// pollCountingCtx counts cancellation polls.
type pollCountingCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCountingCtx) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestRowReaderCancellationIsPromptAndAmortized checks that a task fed
// by the row→batch adapter stops within one batch of the cancel, and
// polls the context once per batch, not per record.
func TestRowReaderCancellationIsPromptAndAmortized(t *testing.T) {
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollCountingCtx{Context: inner}
	split := &endlessSplit{cancel: cancel, cancelAt: 1000}
	c := testCluster()
	_, err := c.RunContext(ctx, &Job{
		Name:   "cancel",
		Splits: []InputSplit{split},
		NewMapper: func() Mapper {
			return MapFunc(func(datum.Row, RecordMeta, Emitter) error { return nil })
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if over := split.served.Load() - split.cancelAt; over < 0 || over > batchSlots {
		t.Errorf("task read %d records past the cancel, want at most %d", over, batchSlots)
	}
	// One poll per batch plus the handful RunContext makes itself.
	if polls, budget := ctx.polls.Load(), split.served.Load()/batchSlots+8; polls > budget {
		t.Errorf("context polled %d times for %d records, want at most %d", polls, split.served.Load(), budget)
	}
}

// TestBatchesCarryTheirSplitsTag: a job over several inputs labels its
// splits, and every batch — columnar, or lifted from the row reader —
// carries its split's label into the mapper.
func TestBatchesCarryTheirSplitsTag(t *testing.T) {
	for _, rowScan := range []bool{false, true} {
		c := NewCluster(sim.GridCluster())
		c.Parallelism, c.DisableBatchScan = 2, rowScan
		job := &Job{
			Splits:    []InputSplit{&dualShapeSplit{base: 0, n: 300}, &dualShapeSplit{base: 1000, n: 300}, &dualShapeSplit{base: 2000, n: 5}},
			Tags:      []int{0, 1, 0},
			NewMapper: func() Mapper { return tagMapper{} },
		}
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 605 {
			t.Fatalf("rowScan=%v: %d rows", rowScan, len(res.Rows))
		}
		for _, r := range res.Rows {
			if want := r[0].I / 1000 % 2; r[1].I != want {
				t.Fatalf("rowScan=%v: id %d arrived with tag %d, want %d", rowScan, r[0].I, r[1].I, want)
			}
		}
		job.Tags = job.Tags[:2]
		if _, err := c.Run(job); err == nil {
			t.Errorf("rowScan=%v: a job with 2 tags for 3 splits ran", rowScan)
		}
	}
}

// tagMapper emits (id, batch tag) per record.
type tagMapper struct{}

func (tagMapper) Flush(Emitter) error { return nil }

func (tagMapper) MapBatch(b *RecordBatch, emit Emitter) error {
	for k := 0; k < b.Live(); k++ {
		id := b.RowInto(nil, b.Slot(k))[0]
		if err := emit(nil, datum.Row{id, datum.Int(int64(b.Tag))}); err != nil {
			return err
		}
	}
	return nil
}

// idReader serves one row per ID, holding the ID as its only value, in
// the order given; it reuses its row as the reader contract allows.
type idReader struct {
	ids []uint64
	row datum.Row
}

func (r *idReader) Next() (datum.Row, RecordMeta, error) {
	if len(r.ids) == 0 {
		return nil, RecordMeta{}, EOF
	}
	id := r.ids[0]
	r.ids = r.ids[1:]
	r.row = append(r.row[:0], datum.Int(int64(id)))
	return r.row, RecordMeta{RecordID: id}, nil
}

func (r *idReader) Close() error { return nil }

// TestRowBatcherSlotsRecordsByID: the row adapter puts each row at slot
// ID − BaseID, leaves skipped IDs out of Sel (nil when every slot is
// live), and starts a new batch when an ID does not increase or leaves
// the window of batchSlots IDs.
func TestRowBatcherSlotsRecordsByID(t *testing.T) {
	type batch struct {
		base uint64
		len  int
		sel  []int32
	}
	for _, tc := range []struct {
		name string
		ids  []uint64
		want []batch
	}{
		{"empty", nil, nil},
		{"dense", []uint64{7, 8, 9}, []batch{{7, 3, nil}}},
		{"gaps", []uint64{10, 11, 13, 16}, []batch{{10, 7, []int32{0, 1, 3, 6}}}},
		{"backward", []uint64{5, 6, 7, 3, 4}, []batch{{5, 3, nil}, {3, 2, nil}}},
		{"repeated", []uint64{5, 5}, []batch{{5, 1, nil}, {5, 1, nil}}},
		{"window edge", []uint64{0, batchSlots - 1}, []batch{{0, batchSlots, []int32{0, batchSlots - 1}}}},
		{"beyond window", []uint64{0, 1, batchSlots, batchSlots + 1}, []batch{{0, 2, nil}, {batchSlots, 2, nil}}},
	} {
		a := &rowBatcher{RecordReader: &idReader{ids: tc.ids}}
		var got []batch
		var b RecordBatch
		for {
			err := a.NextBatch(&b)
			if err == EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = append(got, batch{b.BaseID, b.Len, append([]int32(nil), b.Sel...)})
			for k := 0; k < b.Live(); k++ {
				i := b.Slot(k)
				if v := b.Cols[0].Datum(i); v.I != int64(b.Meta(i).RecordID) {
					t.Errorf("%s: slot %d of batch %d holds %v", tc.name, i, b.BaseID, v)
				}
			}
			if len(b.Cols[0].Nulls) != b.Len {
				t.Errorf("%s: vector of %d slots in a batch of %d", tc.name, len(b.Cols[0].Nulls), b.Len)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: batches %v, want %v", tc.name, got, tc.want)
		}
		if err := a.NextBatch(&b); err != EOF {
			t.Errorf("%s: after the end NextBatch = %v, want EOF", tc.name, err)
		}
	}
}
