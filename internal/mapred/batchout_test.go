package mapred

import (
	"reflect"
	"sync"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sim"
)

// evenIDs is a mapper of column batches: it keeps the even ids of each
// input batch and emits them as one result batch of its own, which it
// reuses for the next input batch unless the sink kept it.
type evenIDs struct {
	emitBatch BatchEmitter
	out       *datum.Batch
	built     *int // result batches constructed, across the task
}

func (m *evenIDs) SetBatchEmitter(emit BatchEmitter) { m.emitBatch = emit }
func (m *evenIDs) Flush(Emitter) error               { return nil }

func (m *evenIDs) MapBatch(b *RecordBatch, _ Emitter) error {
	var sel []int32
	for k := 0; k < b.Live(); k++ {
		if i := b.Slot(k); b.RowInto(nil, i)[0].I%2 == 0 {
			sel = append(sel, int32(i))
		}
	}
	if len(sel) == 0 {
		return nil
	}
	if m.out == nil {
		m.out = new(datum.Batch)
		*m.built++
	}
	m.out.Reset(2, len(sel))
	for k, i := range sel {
		row := b.RowInto(nil, int(i))
		m.out.Cols[0].Put(k, row[0])
		m.out.Cols[1].Put(k, row[1])
	}
	kept, err := m.emitBatch(m.out)
	if kept {
		m.out = nil
	}
	return err
}

// keepingFactory collects batches whole and keeps every one of them.
type keepingFactory struct {
	mu      sync.Mutex
	batches []*datum.Batch
}

func (f *keepingFactory) NewCollector(int, *sim.Meter) (Collector, error) {
	return &keepingCollector{f: f}, nil
}

type keepingCollector struct{ f *keepingFactory }

func (c *keepingCollector) Collect(datum.Row) error { panic("a batch mapper emitted a row") }
func (c *keepingCollector) Close() error            { return nil }
func (c *keepingCollector) CollectBatch(b *datum.Batch) (bool, error) {
	c.f.mu.Lock()
	c.f.batches = append(c.f.batches, b)
	c.f.mu.Unlock()
	return true, nil
}

// rowFactory is a collector that knows nothing of batches.
type rowFactory struct {
	mu   sync.Mutex
	rows []datum.Row
}

func (f *rowFactory) NewCollector(int, *sim.Meter) (Collector, error) {
	return &rowCollector{f: f}, nil
}

type rowCollector struct{ f *rowFactory }

func (c *rowCollector) Close() error { return nil }
func (c *rowCollector) Collect(r datum.Row) error {
	c.f.mu.Lock()
	c.f.rows = append(c.f.rows, r)
	c.f.mu.Unlock()
	return nil
}

// TestMemCollectorSharesSlabs: the in-memory collector cuts short
// batches into rows from one slab it carries from batch to batch — forty
// batches allocate what one does — and a row handed out keeps its
// values while later batches are cut.
func TestMemCollectorSharesSlabs(t *testing.T) {
	const rowsPer = 3
	ins := make([]datum.Batch, 40)
	var want []datum.Row
	for k := range ins {
		ins[k].Reset(2, rowsPer)
		for i := 0; i < rowsPer; i++ {
			row := datum.Row{datum.Int(int64(k*rowsPer + i)), datum.String_(string(rune('a' + k%26)))}
			ins[k].Cols[0].Put(i, row[0])
			ins[k].Cols[1].Put(i, row[1])
			want = append(want, row)
		}
	}
	collect := func(f *memOutputFactory, batches []datum.Batch) {
		c := &memCollector{f: f, rows: make([]datum.Row, 0, len(want))}
		for k := range batches {
			if _, err := c.CollectBatch(&batches[k]); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	one := testing.AllocsPerRun(20, func() { collect(newMemOutputFactory(1), ins[:1]) })
	all := testing.AllocsPerRun(20, func() { collect(newMemOutputFactory(1), ins) })
	if all != one {
		t.Errorf("%d short batches made %v allocations, one batch %v: want one shared slab", len(ins), all, one)
	}
	f := newMemOutputFactory(1)
	collect(f, ins)
	if got := f.rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("collected rows differ from the batches' rows:\n%v\nwant\n%v", got, want)
	}
}

// TestBatchOutputReachesEveryCollector: a mapper of column batches runs
// against a collector that takes batches, the in-memory collector, a
// collector that only takes rows and a shuffle, in both input shapes.
// Every sink sees the same rows, counters and simulated seconds are
// identical whatever the sink, and the mapper constructs a batch per
// emit only for the sink that keeps them.
func TestBatchOutputReachesEveryCollector(t *testing.T) {
	const n = 450 // one split, so one task and one arrival order
	var want []datum.Row
	probe := dualShapeReader{split: &dualShapeSplit{}}
	for i := 0; i < n; i += 2 {
		id, word := probe.value(i)
		want = append(want, datum.Row{datum.Int(id), datum.String_(word)})
	}
	type outcome struct {
		counters Counters
		sim      float64
	}
	var first *outcome
	for _, rowScan := range []bool{false, true} {
		for _, sink := range []string{"batches", "memory", "rows", "shuffle"} {
			c := NewCluster(sim.GridCluster())
			c.Parallelism, c.DisableBatchScan = 1, rowScan
			built := 0
			job := &Job{Name: sink, Splits: []InputSplit{&dualShapeSplit{n: n}},
				NewMapper: func() Mapper { return &evenIDs{built: &built} }}
			keeping, plain := &keepingFactory{}, &rowFactory{}
			switch sink {
			case "batches":
				job.Output = keeping
			case "rows":
				job.Output = plain
			case "shuffle":
				job.NumReducers = 1
				job.NewReducer = func() Reducer {
					return ReduceFunc(func(_ []byte, rows []datum.Row, emit Emitter) error {
						for _, r := range rows {
							if err := emit(nil, r.Clone()); err != nil {
								return err
							}
						}
						return nil
					})
				}
			}
			res, err := c.Run(job)
			if err != nil {
				t.Fatalf("%s rowScan=%v: %v", sink, rowScan, err)
			}
			got := res.Rows
			switch sink {
			case "batches":
				for _, b := range keeping.batches {
					got = b.AppendRows(got)
				}
			case "rows":
				got = plain.rows
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s rowScan=%v: sink saw %d rows, want the %d even ids in order", sink, rowScan, len(got), len(want))
			}
			emits := 5 // 450 rows in input batches of 100
			if rowScan {
				emits = 1 // the row adapter gathers the 450 consecutive IDs into one batch
			}
			if wantBuilt := map[bool]int{true: emits, false: 1}[sink == "batches"]; built != wantBuilt {
				t.Errorf("%s rowScan=%v: the mapper constructed %d result batches, want %d", sink, rowScan, built, wantBuilt)
			}
			if sink == "shuffle" {
				if res.Counters.MapOutputRecords != int64(len(want)) {
					t.Errorf("shuffle rowScan=%v: %d map output records, want %d", rowScan, res.Counters.MapOutputRecords, len(want))
				}
				continue
			}
			o := &outcome{res.Counters, res.SimSeconds}
			if first == nil {
				first = o
			} else if *o != *first {
				t.Errorf("%s rowScan=%v: counters %+v sim %v, want %+v sim %v", sink, rowScan, o.counters, o.sim, first.counters, first.sim)
			}
			if o.counters.OutputRecords != int64(len(want)) {
				t.Errorf("%s rowScan=%v: %d output records, want %d", sink, rowScan, o.counters.OutputRecords, len(want))
			}
		}
	}
}
