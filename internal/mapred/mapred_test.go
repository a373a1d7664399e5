package mapred

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sim"
)

func testCluster() *Cluster {
	c := NewCluster(sim.GridCluster())
	c.Parallelism = 4
	return c
}

// wordSplits builds splits of (word) rows.
func wordSplits(groups ...[]string) []InputSplit {
	var out []InputSplit
	for _, g := range groups {
		rows := make([]datum.Row, len(g))
		for i, w := range g {
			rows[i] = datum.Row{datum.String_(w)}
		}
		out = append(out, &SliceSplit{Rows: rows, SimSize: int64(len(g) * 10)})
	}
	return out
}

func wordCountJob(splits []InputSplit) *Job {
	return &Job{
		Name:   "wordcount",
		Splits: splits,
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				return emit([]byte(row[0].S), datum.Row{datum.Int(1)})
			})
		},
		NewReducer: func() Reducer {
			return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
				var sum int64
				for _, r := range rows {
					sum += r[0].I
				}
				return emit(nil, datum.Row{datum.String_(string(key)), datum.Int(sum)})
			})
		},
		NumReducers: 3,
	}
}

func TestWordCount(t *testing.T) {
	splits := wordSplits(
		[]string{"a", "b", "a", "c"},
		[]string{"b", "a"},
		[]string{"c", "c", "c"},
	)
	res, err := testCluster().Run(wordCountJob(splits))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range res.Rows {
		got[r[0].S] = r[1].I
	}
	want := map[string]int64{"a": 3, "b": 2, "c": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if res.Counters.MapInputRecords != 9 || res.Counters.MapOutputRecords != 9 {
		t.Errorf("counters = %+v", res.Counters)
	}
	if res.Counters.ReduceInputGroups != 3 {
		t.Errorf("groups = %d", res.Counters.ReduceInputGroups)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated time accumulated")
	}
}

func TestMapOnlyJob(t *testing.T) {
	splits := wordSplits([]string{"x", "yy", "zzz"})
	job := &Job{
		Name:   "lengths",
		Splits: splits,
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				if len(row[0].S) > 1 {
					return emit(nil, datum.Row{datum.Int(int64(len(row[0].S)))})
				}
				return nil
			})
		},
	}
	res, err := testCluster().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	var lens []int64
	for _, r := range res.Rows {
		lens = append(lens, r[0].I)
	}
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	if lens[0] != 2 || lens[1] != 3 {
		t.Errorf("lens = %v", lens)
	}
	if res.Counters.OutputRecords != 2 {
		t.Errorf("output records = %d", res.Counters.OutputRecords)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	// 1000 copies of the same word in one split: combiner should
	// collapse them to 1 record per partition.
	words := make([]string, 1000)
	for i := range words {
		words[i] = "w"
	}
	job := wordCountJob(wordSplits(words))
	var withCombiner, withoutCombiner int64
	res, err := testCluster().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	withoutCombiner = res.Counters.ShuffleBytes
	if res.Rows[0][1].I != 1000 {
		t.Fatalf("count = %v", res.Rows)
	}
	job = wordCountJob(wordSplits(words))
	job.NewCombiner = func() Reducer {
		return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
			var sum int64
			for _, r := range rows {
				sum += r[0].I
			}
			return emit(key, datum.Row{datum.Int(sum)})
		})
	}
	res, err = testCluster().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	withCombiner = res.Counters.ShuffleBytes
	if res.Rows[0][1].I != 1000 {
		t.Fatalf("combined count = %v", res.Rows)
	}
	if withCombiner*10 > withoutCombiner {
		t.Errorf("combiner ineffective: %d vs %d shuffle bytes", withCombiner, withoutCombiner)
	}
	if res.Counters.CombineOutputRecords >= res.Counters.MapOutputRecords {
		t.Errorf("combiner did not reduce records: %+v", res.Counters)
	}
}

func TestReduceKeysSorted(t *testing.T) {
	// Within one reducer partition, groups must arrive key-sorted.
	var mu sync.Mutex
	seen := map[int][][]byte{}
	job := &Job{
		Splits: wordSplits([]string{"d", "a", "c", "b", "e", "f", "g", "h"}),
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				return emit([]byte(row[0].S), row)
			})
		},
		NewReducer: func() Reducer {
			id := -1
			return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
				mu.Lock()
				defer mu.Unlock()
				if id == -1 {
					id = len(seen) + 1000
				}
				seen[id] = append(seen[id], append([]byte(nil), key...))
				return nil
			})
		},
		NumReducers: 2,
	}
	if _, err := testCluster().Run(job); err != nil {
		t.Fatal(err)
	}
	for id, keys := range seen {
		for i := 1; i < len(keys); i++ {
			if string(keys[i-1]) >= string(keys[i]) {
				t.Errorf("reducer %d keys out of order: %q >= %q", id, keys[i-1], keys[i])
			}
		}
	}
}

func TestRecordMetaPropagated(t *testing.T) {
	rows := []datum.Row{{datum.Int(10)}, {datum.Int(20)}}
	split := &SliceSplit{Rows: rows, BaseID: 7 << 32}
	var got []uint64
	var mu sync.Mutex
	job := &Job{
		Splits: []InputSplit{split},
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, meta RecordMeta, emit Emitter) error {
				mu.Lock()
				got = append(got, meta.RecordID)
				mu.Unlock()
				return nil
			})
		},
	}
	if _, err := testCluster().Run(job); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 7<<32 || got[1] != 7<<32+1 {
		t.Errorf("record ids = %v", got)
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	job := &Job{
		Splits: wordSplits([]string{"x"}),
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				return boom
			})
		},
	}
	if _, err := testCluster().Run(job); !errors.Is(err, boom) {
		t.Errorf("error = %v", err)
	}
}

// closingMapper counts its Close calls; it fails its batches on demand.
type closingMapper struct {
	fail   error
	closed *atomic.Int64
}

func (m *closingMapper) MapBatch(*RecordBatch, Emitter) error { return m.fail }
func (m *closingMapper) Flush(Emitter) error                  { return nil }
func (m *closingMapper) Close() error                         { m.closed.Add(1); return nil }

// A mapper that is an io.Closer is closed once per task, whether the
// task finishes or fails: Close is where a mapper returns what it
// borrowed.
func TestMapperClosedHoweverTaskEnds(t *testing.T) {
	boom := errors.New("boom")
	for _, fail := range []error{nil, boom} {
		var made, closed atomic.Int64
		job := &Job{
			Splits: wordSplits([]string{"x"}, []string{"y"}, []string{"z"}),
			NewMapper: func() Mapper {
				made.Add(1)
				return &closingMapper{fail: fail, closed: &closed}
			},
		}
		if _, err := testCluster().Run(job); !errors.Is(err, fail) {
			t.Errorf("fail=%v: job error = %v", fail, err)
		}
		if made.Load() == 0 || closed.Load() != made.Load() {
			t.Errorf("fail=%v: %d mappers made, %d closed", fail, made.Load(), closed.Load())
		}
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	job := wordCountJob(wordSplits([]string{"x"}))
	job.NewReducer = func() Reducer {
		return ReduceFunc(func(key []byte, rows []datum.Row, emit Emitter) error {
			return boom
		})
	}
	if _, err := testCluster().Run(job); !errors.Is(err, boom) {
		t.Errorf("error = %v", err)
	}
}

func TestJobWithoutMapperFails(t *testing.T) {
	if _, err := testCluster().Run(&Job{}); err == nil {
		t.Error("missing mapper should fail")
	}
}

func TestManySplitsParallel(t *testing.T) {
	var splits []InputSplit
	total := 0
	for i := 0; i < 40; i++ {
		n := i % 7
		words := make([]string, n)
		for j := range words {
			words[j] = strconv.Itoa(j % 3)
		}
		total += n
		splits = append(splits, wordSplits(words)...)
	}
	res, err := testCluster().Run(wordCountJob(splits))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range res.Rows {
		sum += r[1].I
	}
	if sum != int64(total) {
		t.Errorf("total counted = %d, want %d", sum, total)
	}
}

func TestSimTimeScalesWithSlots(t *testing.T) {
	// Same work on a 1-worker cluster must take longer (simulated)
	// than on the 25-worker grid.
	mkJob := func() *Job {
		var splits []InputSplit
		for i := 0; i < 64; i++ {
			rows := make([]datum.Row, 100)
			for j := range rows {
				rows[j] = datum.Row{datum.String_(fmt.Sprintf("w%d", j))}
			}
			splits = append(splits, &SliceSplit{Rows: rows, SimSize: 64 << 20})
		}
		return wordCountJob(splits)
	}
	big := testCluster()
	smallParams := sim.GridCluster()
	smallParams.Nodes = 2 // 1 worker
	small := NewCluster(smallParams)
	small.Parallelism = 4
	resBig, err := big.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	resSmall, err := small.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.SimSeconds <= resBig.SimSeconds {
		t.Errorf("1-worker cluster (%f s) should be slower than 25-worker (%f s)",
			resSmall.SimSeconds, resBig.SimSeconds)
	}
}

func TestDefaultReducerCount(t *testing.T) {
	job := wordCountJob(wordSplits([]string{"a", "b"}))
	job.NumReducers = 0
	res, err := testCluster().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestStableOrderWithinKey(t *testing.T) {
	// Values of one key must arrive in emission order (stable by seq)
	// when emitted from a single split.
	vals := []string{"v1", "v2", "v3", "v4", "v5"}
	rows := make([]datum.Row, len(vals))
	for i, v := range vals {
		rows[i] = datum.Row{datum.String_(v)}
	}
	var got []string
	var mu sync.Mutex
	job := &Job{
		Splits: []InputSplit{&SliceSplit{Rows: rows}},
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				return emit([]byte("k"), row)
			})
		},
		NewReducer: func() Reducer {
			return ReduceFunc(func(key []byte, rs []datum.Row, emit Emitter) error {
				mu.Lock()
				defer mu.Unlock()
				for _, r := range rs {
					got = append(got, r[0].S)
				}
				return nil
			})
		},
		NumReducers: 1,
	}
	if _, err := testCluster().Run(job); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("order not stable: %v", got)
		}
	}
}
