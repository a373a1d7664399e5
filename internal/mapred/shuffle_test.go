package mapred

import (
	"fmt"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sim"
)

// determinismJob is a group-by style job with duplicate keys spread
// across several splits, a multi-row reducer output per group, and a
// value column that records the emission origin, so any ordering
// difference shows up in the rendered output.
func determinismJob(withCombiner bool) *Job {
	var splits []InputSplit
	for s := 0; s < 6; s++ {
		rows := make([]datum.Row, 50)
		for i := range rows {
			rows[i] = datum.Row{
				datum.String_(fmt.Sprintf("k%02d", (s*7+i)%13)),
				datum.String_(fmt.Sprintf("s%d-%d", s, i)),
			}
		}
		splits = append(splits, &SliceSplit{Rows: rows, SimSize: 1 << 20})
	}
	job := &Job{
		Name:   "determinism",
		Splits: splits,
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				return emit([]byte(row[0].S), datum.Row{row[1]})
			})
		},
		NewReducer: func() Reducer {
			return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
				var sb strings.Builder
				for _, r := range rows {
					sb.WriteString(r[0].S)
					sb.WriteByte(',')
				}
				return emit(nil, datum.Row{datum.String_(string(key)), datum.String_(sb.String())})
			})
		},
		NumReducers: 3,
	}
	if withCombiner {
		job.NewCombiner = func() Reducer {
			return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
				var sb strings.Builder
				for _, r := range rows {
					sb.WriteString(r[0].S)
					sb.WriteByte(',')
				}
				return emit(key, datum.Row{datum.String_(sb.String())})
			})
		}
	}
	return job
}

func renderRows(rows []datum.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestShuffleDeterministicAcrossParallelism runs the same job with 1
// and N workers and asserts byte-identical output ordering and
// identical Counters and SimSeconds.
func TestShuffleDeterministicAcrossParallelism(t *testing.T) {
	for _, withCombiner := range []bool{false, true} {
		name := "plain"
		if withCombiner {
			name = "combiner"
		}
		t.Run(name, func(t *testing.T) {
			var ref *Result
			var refOut string
			for _, workers := range []int{1, 8, 3} {
				c := NewCluster(sim.GridCluster())
				c.Parallelism = workers
				res, err := c.Run(determinismJob(withCombiner))
				if err != nil {
					t.Fatal(err)
				}
				out := renderRows(res.Rows)
				if ref == nil {
					ref, refOut = res, out
					continue
				}
				if out != refOut {
					t.Errorf("output with %d workers differs from 1 worker:\n%s\n--- vs ---\n%s", workers, out, refOut)
				}
				if res.Counters != ref.Counters {
					t.Errorf("counters with %d workers = %+v, want %+v", workers, res.Counters, ref.Counters)
				}
				if res.SimSeconds != ref.SimSeconds {
					t.Errorf("SimSeconds with %d workers = %v, want %v", workers, res.SimSeconds, ref.SimSeconds)
				}
			}
		})
	}
}

// TestMapOnlyOutputDeterministic checks in-memory map-only output is
// assembled in task order regardless of worker count.
func TestMapOnlyOutputDeterministic(t *testing.T) {
	mkJob := func() *Job {
		var splits []InputSplit
		for s := 0; s < 5; s++ {
			rows := make([]datum.Row, 20)
			for i := range rows {
				rows[i] = datum.Row{datum.String_(fmt.Sprintf("s%d-%d", s, i))}
			}
			splits = append(splits, &SliceSplit{Rows: rows, SimSize: 1 << 20})
		}
		return &Job{
			Splits: splits,
			NewMapper: func() Mapper {
				return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
					return emit(nil, datum.Row{row[0]})
				})
			},
		}
	}
	var refOut string
	for i, workers := range []int{1, 8} {
		c := NewCluster(sim.GridCluster())
		c.Parallelism = workers
		res, err := c.Run(mkJob())
		if err != nil {
			t.Fatal(err)
		}
		out := renderRows(res.Rows)
		if i == 0 {
			refOut = out
			continue
		}
		if out != refOut {
			t.Errorf("map-only output with %d workers differs", workers)
		}
	}
}

// TestGroupIterDuplicateKeysAcrossRuns exercises the k-way merge
// directly: duplicate keys within and across runs must come out in
// (key, run order, emission order) sequence.
func TestGroupIterDuplicateKeysAcrossRuns(t *testing.T) {
	mk := func(entries ...string) *shuffleRun {
		// entry format "key=value"; records are appended in emission
		// order and then sealed like a map task would.
		run := &shuffleRun{}
		for _, e := range entries {
			k, v, _ := strings.Cut(e, "=")
			run.append([]byte(k), datum.Row{datum.String_(v)})
		}
		run.seal()
		return run
	}
	runs := []*shuffleRun{
		mk("b=r0b1", "a=r0a1", "b=r0b2", "d=r0d1"),
		mk("a=r1a1", "c=r1c1", "a=r1a2"),
		mk(), // empty run must be harmless
		mk("b=r2b1", "a=r2a1"),
	}
	want := []struct {
		key  string
		rows []string
	}{
		{"a", []string{"r0a1", "r1a1", "r1a2", "r2a1"}},
		{"b", []string{"r0b1", "r0b2", "r2b1"}},
		{"c", []string{"r1c1"}},
		{"d", []string{"r0d1"}},
	}
	it := newGroupIter(runs)
	for gi, w := range want {
		if !it.next() {
			t.Fatalf("group %d: iterator exhausted early", gi)
		}
		if string(it.key) != w.key {
			t.Fatalf("group %d key = %q, want %q", gi, it.key, w.key)
		}
		if len(it.rows) != len(w.rows) {
			t.Fatalf("group %q rows = %d, want %d", w.key, len(it.rows), len(w.rows))
		}
		for i, r := range it.rows {
			if r[0].S != w.rows[i] {
				t.Errorf("group %q row %d = %s, want %s", w.key, i, r[0].S, w.rows[i])
			}
		}
	}
	if it.next() {
		t.Error("iterator yielded extra groups")
	}
	if n := totalPairs(runs); n != 9 {
		t.Errorf("totalPairs = %d", n)
	}
}

// TestShuffleBytesMatchReducerWalk checks the emit-time ShuffleBytes
// accounting matches a full post-hoc walk of what reached reducers.
func TestShuffleBytesMatchReducerWalk(t *testing.T) {
	for _, withCombiner := range []bool{false, true} {
		c := NewCluster(sim.GridCluster())
		c.Parallelism = 4
		res, err := c.Run(determinismJob(withCombiner))
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.ShuffleBytes <= 0 {
			t.Errorf("combiner=%v: ShuffleBytes = %d", withCombiner, res.Counters.ShuffleBytes)
		}
		if withCombiner && res.Counters.CombineOutputRecords >= res.Counters.MapOutputRecords {
			t.Errorf("combiner did not reduce records: %+v", res.Counters)
		}
	}
}

// TestShuffleRunSizedFromCount: a run whose producer announced a count
// sizes its first allocation for its share of it, by the first record's
// width; a run with no count keeps the 512-record default; a combiner's
// output run is sized from its input.
func TestShuffleRunSizedFromCount(t *testing.T) {
	key, row := []byte("key"), datum.Row{datum.Int(1), datum.Int(2), datum.Int(3)}
	w := newShuffleWriter(4, false)
	w.runs[0].append(key, row) // written before the count: keeps its allocation
	w.expect(10)
	for p := range w.runs {
		w.runs[p].append(key, row)
	}
	if r := &w.runs[0]; cap(r.keyOff) != 513 || cap(r.vals) != 1024 {
		t.Errorf("unhinted run: keyOff cap %d, vals cap %d; want 513, 1024", cap(r.keyOff), cap(r.vals))
	}
	for p := 1; p < len(w.runs); p++ {
		if r := &w.runs[p]; cap(r.keyOff) != 4 || cap(r.vals) != 3*len(row) || cap(r.keyBytes) != 3*len(key) {
			t.Errorf("run %d: keyOff cap %d, vals cap %d, keyBytes cap %d; want 4, %d, %d",
				p, cap(r.keyOff), cap(r.vals), cap(r.keyBytes), 3*len(row), 3*len(key))
		}
	}
	in := &w.runs[0]
	in.append([]byte("other"), row)
	in.seal()
	out, err := runCombiner(ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
		return emit(key, rows[0])
	}), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.len() != 2 || cap(out.keyOff) != 4 || cap(out.vals) != 3*len(row) {
		t.Errorf("combiner output: %d records, keyOff cap %d, vals cap %d; want 2, 4, %d",
			out.len(), cap(out.keyOff), cap(out.vals), 3*len(row))
	}
}
