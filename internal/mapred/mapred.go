// Package mapred implements the MapReduce execution engine the query
// layer runs on: jobs over input splits, a map phase with optional
// combiner, a sorted-run shuffle, and a reduce phase. Tasks execute
// concurrently on a bounded worker pool (the real parallelism) while
// each task's I/O and CPU are counted on a sim.Meter; the job's
// simulated wall time is the slot-scheduled makespan of its tasks'
// priced counts plus startup costs, mirroring the paper's Hadoop
// clusters (6 map + 2 reduce slots per worker), and its Result carries
// the summed counts.
//
// # Batched input
//
// The map loop has one input shape, the RecordBatch of column vectors
// with an optional selection of live slots, and a Mapper has one entry
// point, MapBatch. A BatchRecordReader fills batches itself (a UNION
// READ merge leaves a deleted record out of the selection). Row shape
// crosses in through exactly two adapters, both in this package: a
// plain RecordReader (KV scan, text file, SliceSplit) is lifted at the
// reader boundary, each row put at its record ID's slot (rowBatcher),
// and a per-record mapper (MapFunc, or a stateful mapper delegating to
// it) walks each batch's live slots through MapFunc.MapBatch.
// Cluster.DisableBatchScan routes a batching reader's Next through the
// first adapter and has the query engine evaluate every expression by
// its row function: the oracle the equivalence tests compare against
// (identical output, counters and metering).
//
// # Shuffle
//
// The per-record hot path is lock-free and allocation-free. Each map
// task owns a private shuffleWriter holding one columnar run per
// reduce partition: emitted keys and row datums are appended into flat
// segments with offset vectors (no per-pair record, no per-emit
// allocation), and partition byte sizes accumulate at emit time. After
// the map function (and optional combiner) finishes, the task seals
// each run into (key, emission order) — a selection-vector permutation
// sort that swaps 4-byte indexes, never records, and skips entirely
// when the run was emitted in key order. A reduce task then streams
// its key groups out of the pre-sorted runs with a k-way merge in map
// task order, which reproduces the engine's deterministic total order
// (key, then map task, then emission order) without re-sorting and
// independently of worker parallelism; group rows are zero-copy views
// into the runs' segments. In-memory job output is collected into
// per-task shards and assembled in task order, so Result.Rows is
// byte-identical across parallelism levels.
//
// # Ownership and row reuse
//
// Emitter and Collector calls follow a copy-on-shuffle contract:
//
//   - The key passed to an Emitter is copied by the engine; callers
//     may (and should) reuse one key buffer across emits.
//   - A shuffle emit (map phase or combiner of a job with reducers)
//     copies the value row's datums into the task's run segments, so
//     mappers and combiners may reuse one row buffer across emits —
//     including the row a MapFunc receives, which the adapter always
//     reuses for the next record.
//   - A collector emit (map-only jobs, reducer output) transfers
//     ownership: the in-memory collector stores the row without
//     cloning, so it must be owned by the emitter and not mutated
//     afterwards. The storage collectors (ORC, KV, text) consume the
//     row inside Collect, so a MapFunc may forward its input row to
//     them. Reducers may forward group rows anywhere — group rows are
//     immutable views into the job's shuffle segments.
//   - The rows slice passed to Reducer.Reduce is reused between
//     groups: retain its datum.Row elements freely, never the slice.
//     The rows themselves are engine-owned views; do not mutate them.
package mapred

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/freelist"
	"dualtable/internal/sim"
)

// RecordMeta carries per-record metadata through the map phase.
// DualTable threads its record IDs (fileID<<32 | rowNumber) here.
type RecordMeta struct {
	RecordID uint64
}

// RecordReader streams the rows of one split. The returned row may be
// reused between Next calls; see the package ownership contract.
type RecordReader interface {
	// Next returns the next row, or an error; EOF ends the stream.
	Next() (datum.Row, RecordMeta, error)
	// Close releases resources.
	Close() error
}

// InputSplit is one schedulable unit of input.
type InputSplit interface {
	// Open starts reading the split, charging I/O to m.
	Open(m *sim.Meter) (RecordReader, error)
	// Length is the split's size in bytes (for scheduling estimates).
	Length() int64
}

// Emitter receives (key, value) pairs from a mapper, or output rows
// (with nil key) from a reducer. The engine copies the key and takes
// ownership of the value (see the package ownership contract).
type Emitter func(key []byte, value datum.Row) error

// Mapper processes the input batches of one map task. A fresh Mapper
// is built per task via Job.NewMapper, so implementations may keep
// state. The batch and everything it references belong to the reader
// and are reused after MapBatch returns. A Mapper that is also an
// io.Closer is closed when its task ends, however it ends: the place to
// return what it borrowed for the task.
type Mapper interface {
	MapBatch(b *RecordBatch, emit Emitter) error
	// Flush is called once after the task's last batch.
	Flush(emit Emitter) error
}

// Reducer processes one key group. The rows slice is reused between
// groups; retain its elements, never the slice.
type Reducer interface {
	Reduce(key []byte, rows []datum.Row, emit Emitter) error
	// Flush is called once after the task's last group.
	Flush(emit Emitter) error
}

// FlushSizer is implemented by a mapper that knows how many records its
// Flush will emit — a map-side hash aggregation, one per group. The
// task sizes the shuffle runs those records open from the count.
type FlushSizer interface {
	FlushRecords() int
}

// MeterAware is implemented by mappers that perform side-effect I/O
// (e.g. DualTable's EDIT UDTFs writing to the attached table). The
// engine injects the task's meter before the first MapBatch call so the
// side-effect costs participate in the task makespan.
type MeterAware interface {
	SetMeter(m *sim.Meter)
}

// Collector receives output rows of one task. Collect takes ownership
// of the row when it retains it; storage collectors consume the row
// synchronously instead.
type Collector interface {
	Collect(row datum.Row) error
	Close() error
}

// BatchCollector is a Collector that also takes its output a column
// batch at a time: the output-side twin of BatchRecordReader, found the
// same way, by type assertion.
type BatchCollector interface {
	Collector
	// CollectBatch delivers b's rows, in order. kept reports that the
	// collector retained b, which is then its own to dispose of;
	// otherwise b is the caller's again when the call returns.
	CollectBatch(b *datum.Batch) (kept bool, err error)
}

// BatchEmitter is what a mapper of column batches emits through. It
// counts b.Len output records and follows CollectBatch's contract.
type BatchEmitter func(b *datum.Batch) (kept bool, err error)

// BatchEmitterAware is implemented by mappers whose output is column
// batches. The engine injects the task's BatchEmitter before the first
// MapBatch call: the collector's CollectBatch when it is a
// BatchCollector, else — any other collector, or the shuffle — an
// adapter that cuts the batch into rows and emits each.
type BatchEmitterAware interface {
	SetBatchEmitter(emit BatchEmitter)
}

// OutputFactory builds one Collector per output task.
type OutputFactory interface {
	NewCollector(taskID int, m *sim.Meter) (Collector, error)
}

// Reserver is an OutputFactory that learns, before a job's first task
// starts, which tasks will ask it for collectors: tasks first through
// first+n-1 (the map tasks of a map-only job, else the reduce tasks).
// What it charges m is the job's own work, ahead of its tasks, and lands
// on the job's counts. A factory that names its outputs after the task
// index instead of the order tasks finish in writes the same output on
// every run.
type Reserver interface {
	OutputFactory
	Reserve(first, n int, m *sim.Meter) error
}

// Cluster describes the execution environment: calibrated cost
// parameters for simulated time and the real goroutine parallelism.
type Cluster struct {
	Params      sim.CostParams
	Parallelism int // concurrent tasks (real goroutines); 0 = NumCPU
	// DisableBatchScan reads a BatchRecordReader through its row-mode
	// Next instead of NextBatch, and the query engine evaluates
	// expressions by row functions only. Both produce byte-identical
	// results, counters and simulated seconds (the equivalence tests
	// assert it); the toggle exists for those tests and regressions.
	DisableBatchScan bool
}

// NewCluster builds a Cluster for the given cost parameters.
func NewCluster(params sim.CostParams) *Cluster {
	return &Cluster{Params: params}
}

func (c *Cluster) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

// Job describes one MapReduce job.
type Job struct {
	Name   string
	Splits []InputSplit
	// Tags, when set, labels each split (aligned with Splits); every
	// batch read from a split carries its label as RecordBatch.Tag.
	Tags        []int
	NewMapper   func() Mapper
	NewReducer  func() Reducer // nil = map-only job
	NewCombiner func() Reducer // optional map-side combiner
	NumReducers int            // default: cluster reduce slots / 2, min 1
	Output      OutputFactory  // nil = collect in memory
}

// Counters reports job statistics.
type Counters struct {
	MapInputRecords      int64
	MapOutputRecords     int64
	CombineOutputRecords int64
	ShuffleBytes         int64
	ReduceInputGroups    int64
	OutputRecords        int64
}

// Result is the outcome of a job run.
type Result struct {
	Counters Counters
	// SimSeconds is JobStartupCost plus the tasks' priced makespans.
	SimSeconds float64
	// Counts is the job's ledger: its tasks' counts summed, and one job.
	Counts sim.Counts
	// Rows holds the output when no OutputFactory was given, in
	// deterministic task order (map task order for map-only jobs,
	// reduce task order otherwise).
	Rows []datum.Row
}

// Run executes the job to completion.
func (c *Cluster) Run(job *Job) (*Result, error) {
	return c.RunContext(context.Background(), job)
}

// RunContext executes the job, aborting promptly when ctx is
// canceled: pending tasks are not started, and running tasks stop
// between batches. A canceled run returns ctx.Err().
func (c *Cluster) RunContext(ctx context.Context, job *Job) (*Result, error) {
	if job.NewMapper == nil {
		return nil, errors.New("mapred: job has no mapper")
	}
	if job.Tags != nil && len(job.Tags) != len(job.Splits) {
		return nil, fmt.Errorf("mapred: job has %d tags for %d splits", len(job.Tags), len(job.Splits))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{}
	var cnt jobTally
	cnt.ledger[sim.Jobs] = 1

	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = c.Params.ReduceSlots() / 2
		if numReducers < 1 {
			numReducers = 1
		}
	}
	mapOnly := job.NewReducer == nil

	outFactory := job.Output
	var memOut *memOutputFactory
	if outFactory == nil {
		numTasks := len(job.Splits)
		if !mapOnly {
			numTasks += numReducers
		}
		memOut = newMemOutputFactory(numTasks)
		outFactory = memOut
	}

	var setupSecs float64
	if r, ok := outFactory.(Reserver); ok {
		first, n := 0, len(job.Splits)
		if !mapOnly {
			first, n = len(job.Splits), numReducers
		}
		meter := borrowMeter()
		err := r.Reserve(first, n, meter)
		setupSecs = cnt.task(&c.Params, meter, err)
		if err != nil {
			return nil, err
		}
	}

	// ---- Map phase ----
	mapOuts := make([]mapTaskOutput, len(job.Splits))
	mapErr := make([]error, len(job.Splits))

	pool := newWorkerPool(c.parallelism())
	for i := range job.Splits {
		i := i
		pool.submit(func() {
			if err := ctx.Err(); err != nil {
				mapErr[i] = err
				return
			}
			meter := borrowMeter()
			mapErr[i] = c.runMapTask(ctx, job, i, meter, numReducers, mapOnly, outFactory, &mapOuts[i], &cnt.Counters, &cnt.Mutex)
			mapOuts[i].secs = cnt.task(&c.Params, meter, mapErr[i])
		})
	}
	pool.wait()
	for _, err := range mapErr {
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return nil, ctxErr
			}
			return nil, err
		}
	}
	// A scaled-down run has far fewer splits than the paper-scale job
	// would (task count ≈ data / block size). Expand each task into
	// the number of virtual tasks its paper-scale data would produce
	// so the slot-scheduled makespan reflects the real cluster's
	// parallelism.
	mapDurations := make([]float64, 0, len(mapOuts))
	for i := range mapOuts {
		v := c.Params.VirtualTasks(job.Splits[i].Length())
		for range v {
			mapDurations = append(mapDurations, mapOuts[i].secs/float64(v))
		}
	}
	res.SimSeconds = c.Params.JobStartupCost + setupSecs +
		sim.Makespan(mapDurations, c.Params.MapSlots(), c.Params.TaskStartupCost)

	if mapOnly {
		res.Counters, res.Counts = cnt.Counters, cnt.ledger
		if memOut != nil {
			res.Rows = memOut.rows()
		}
		return res, nil
	}

	// ---- Shuffle + Reduce phase ----
	reduceSecs := make([]float64, numReducers)
	reduceErr := make([]error, numReducers)
	pool = newWorkerPool(c.parallelism())
	for r := 0; r < numReducers; r++ {
		r := r
		pool.submit(func() {
			if err := ctx.Err(); err != nil {
				reduceErr[r] = err
				return
			}
			meter := borrowMeter()
			// Gather this partition's pre-sorted runs in map task
			// order; byte sizes were accumulated at emit time.
			runs := make([]*shuffleRun, 0, len(mapOuts))
			var shuffleBytes int64
			for i := range mapOuts {
				part := &mapOuts[i].shuffle.runs[r]
				if part.len() > 0 {
					runs = append(runs, part)
				}
				shuffleBytes += part.bytes
			}
			meter.Shuffle(shuffleBytes)
			cnt.Lock()
			cnt.ShuffleBytes += shuffleBytes
			cnt.Unlock()
			reduceErr[r] = c.runReduceTask(ctx, job, r, meter, runs, outFactory, &cnt.Counters, &cnt.Mutex)
			reduceSecs[r] = cnt.task(&c.Params, meter, reduceErr[r])
		})
	}
	pool.wait()
	for _, err := range reduceErr {
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return nil, ctxErr
			}
			return nil, err
		}
	}
	res.SimSeconds += sim.Makespan(reduceSecs, c.Params.ReduceSlots(), c.Params.TaskStartupCost)
	res.Counters, res.Counts = cnt.Counters, cnt.ledger
	if memOut != nil {
		res.Rows = memOut.rows()
	}
	return res, nil
}

// jobTally is what a job's tasks add up under its lock: the Counters
// and the job's ledger (one job, and its tasks' counts).
type jobTally struct {
	sync.Mutex
	Counters
	ledger sim.Counts
}

// task adds a finished task's counts to the job's ledger and returns
// its priced duration. Only a task that succeeded closed everything
// that holds its meter, so only its meter goes back to taskMeters.
func (t *jobTally) task(p *sim.CostParams, meter *sim.Meter, err error) float64 {
	c := meter.Counts()
	if err == nil {
		taskMeters.Put(meter)
	}
	t.Lock()
	t.ledger.Add(c)
	t.Unlock()
	return p.TaskSeconds(c)
}

// taskMeters are the meters tasks charge, reused across jobs.
var taskMeters = freelist.New[sim.Meter]()

// borrowMeter returns a zeroed task meter.
func borrowMeter() *sim.Meter {
	m := taskMeters.Get()
	m.Reset()
	return m
}

func (c *Cluster) runMapTask(ctx context.Context, job *Job, taskID int, meter *sim.Meter, numReducers int, mapOnly bool,
	outFactory OutputFactory, out *mapTaskOutput, cnt *Counters, mu *sync.Mutex) error {
	rr, err := job.Splits[taskID].Open(meter)
	if err != nil {
		return fmt.Errorf("mapred: open split %d: %w", taskID, err)
	}
	defer rr.Close()
	mapper := job.NewMapper()
	if mc, ok := mapper.(io.Closer); ok {
		defer mc.Close()
	}
	if ma, ok := mapper.(MeterAware); ok {
		ma.SetMeter(meter)
	}

	var collector Collector
	var sw *shuffleWriter
	var emit Emitter
	var inRecords, outRecords int64

	if mapOnly {
		collector, err = outFactory.NewCollector(taskID, meter)
		if err != nil {
			return err
		}
		emit = func(key []byte, value datum.Row) error {
			outRecords++
			return collector.Collect(value)
		}
	} else {
		// With a combiner, partition byte sizes are recounted over the
		// combined output instead of accumulated per emit.
		sw = newShuffleWriter(numReducers, job.NewCombiner == nil)
		emit = func(key []byte, value datum.Row) error {
			outRecords++
			sw.add(key, value)
			return nil
		}
	}

	if bm, ok := mapper.(BatchEmitterAware); ok {
		emitBatch := func(b *datum.Batch) (bool, error) {
			for i := 0; i < b.Len; i++ {
				if err := emit(nil, b.Row(i)); err != nil {
					return false, err
				}
			}
			return false, nil
		}
		if bc, ok := collector.(BatchCollector); ok {
			emitBatch = func(b *datum.Batch) (bool, error) {
				outRecords += int64(b.Len)
				return bc.CollectBatch(b)
			}
		}
		bm.SetBatchEmitter(emitBatch)
	}

	br, ok := rr.(BatchRecordReader)
	if !ok || c.DisableBatchScan {
		br = &rowBatcher{RecordReader: rr}
	}
	var batch RecordBatch
	if job.Tags != nil {
		batch.Tag = job.Tags[taskID]
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := br.NextBatch(&batch); err != nil {
			if errors.Is(err, EOF) {
				break
			}
			return fmt.Errorf("mapred: split %d: %w", taskID, err)
		}
		inRecords += int64(batch.Live())
		if err := mapper.MapBatch(&batch, emit); err != nil {
			return fmt.Errorf("mapred: map task %d: %w", taskID, err)
		}
	}
	if fs, ok := mapper.(FlushSizer); ok && sw != nil {
		sw.expect(fs.FlushRecords())
	}
	if err := mapper.Flush(emit); err != nil {
		return fmt.Errorf("mapred: map flush %d: %w", taskID, err)
	}
	meter.CPURows(inRecords + outRecords)

	combined := outRecords
	if sw != nil {
		// Seal each partition into a sorted run map-side; the combiner
		// needs sorted groups and the reducer merges the sorted runs.
		sw.sealAll()
		if job.NewCombiner != nil {
			combined = 0
			for p := range sw.runs {
				sw.runs[p], err = runCombiner(job.NewCombiner(), &sw.runs[p])
				if err != nil {
					return fmt.Errorf("mapred: combiner task %d: %w", taskID, err)
				}
				combined += int64(sw.runs[p].len())
			}
			meter.CPURows(outRecords)
		}
		out.shuffle = sw
	}

	if collector != nil {
		if err := collector.Close(); err != nil {
			return err
		}
	}
	mu.Lock()
	cnt.MapInputRecords += inRecords
	cnt.MapOutputRecords += outRecords
	if job.NewCombiner != nil && !mapOnly {
		cnt.CombineOutputRecords += combined
	}
	if mapOnly {
		cnt.OutputRecords += outRecords
	}
	mu.Unlock()
	return nil
}

// mapTaskOutput is the per-task result captured by runMapTask.
type mapTaskOutput struct {
	shuffle *shuffleWriter // per-reducer sorted runs (nil when map-only)
	secs    float64
}

// runCombiner folds one sealed partition through a combiner, walking
// its sorted key groups in permutation order and appending the
// combined records into a fresh run. Wire sizes accumulate as the
// (small) output is appended, so no recount pass is needed; the output
// run is sealed before it replaces the input (combiners emit in group
// order, so the seal almost always resolves to the identity — only a
// Flush emission can break the order and force a permutation).
func runCombiner(comb Reducer, in *shuffleRun) (shuffleRun, error) {
	out := shuffleRun{hint: in.len()} // a combiner folds records: its input bounds its output
	flushEmit := func(key []byte, value datum.Row) error {
		out.appendSized(key, value)
		return nil
	}
	n := in.len()
	if n == 0 {
		// Still run Flush for stateful combiners.
		err := comb.Flush(flushEmit)
		out.seal()
		return out, err
	}
	var rows []datum.Row
	for i := 0; i < n; {
		key := in.key(in.idx(i))
		rows = rows[:0]
		j := i
		for ; j < n; j++ {
			p := in.idx(j)
			if !bytes.Equal(in.key(p), key) {
				break
			}
			rows = append(rows, in.row(p))
		}
		// In-group emissions carry the group key regardless of the key
		// the combiner passes, matching the reducer-side group shape.
		if err := comb.Reduce(key, rows, func(_ []byte, value datum.Row) error {
			out.appendSized(key, value)
			return nil
		}); err != nil {
			return out, err
		}
		i = j
	}
	if err := comb.Flush(flushEmit); err != nil {
		return out, err
	}
	out.seal()
	return out, nil
}

func (c *Cluster) runReduceTask(ctx context.Context, job *Job, taskID int, meter *sim.Meter, runs []*shuffleRun,
	outFactory OutputFactory, cnt *Counters, mu *sync.Mutex) error {
	collector, err := outFactory.NewCollector(len(job.Splits)+taskID, meter)
	if err != nil {
		return err
	}
	reducer := job.NewReducer()
	var groups, outRecords int64
	emit := func(_ []byte, value datum.Row) error {
		outRecords++
		return collector.Collect(value)
	}
	it := newGroupIter(runs)
	for it.next() {
		if groups&127 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		groups++
		if err := reducer.Reduce(it.key, it.rows, emit); err != nil {
			return fmt.Errorf("mapred: reduce task %d: %w", taskID, err)
		}
	}
	if err := reducer.Flush(emit); err != nil {
		return fmt.Errorf("mapred: reduce flush %d: %w", taskID, err)
	}
	meter.CPURows(totalPairs(runs) + outRecords)
	if err := collector.Close(); err != nil {
		return err
	}
	mu.Lock()
	cnt.ReduceInputGroups += groups
	cnt.OutputRecords += outRecords
	mu.Unlock()
	return nil
}

// memOutputFactory collects in-memory job output into one shard per
// task; the shards are assembled in task order after the job's
// barrier, so the result ordering is deterministic regardless of
// worker parallelism and no per-row lock is ever taken.
type memOutputFactory struct {
	mu     sync.Mutex
	shards [][]datum.Row
}

func newMemOutputFactory(numTasks int) *memOutputFactory {
	return &memOutputFactory{shards: make([][]datum.Row, numTasks)}
}

func (f *memOutputFactory) NewCollector(taskID int, m *sim.Meter) (Collector, error) {
	return &memCollector{f: f, taskID: taskID}, nil
}

// rows concatenates the shards in task order. Callers invoke it only
// after the phase barrier, when all collectors are closed.
func (f *memOutputFactory) rows() []datum.Row {
	total := 0
	for _, s := range f.shards {
		total += len(s)
	}
	out := make([]datum.Row, 0, total)
	for _, s := range f.shards {
		out = append(out, s...)
	}
	return out
}

// memCollector buffers one task's rows locally (no lock, no clone —
// rows are handed over by the emit contract) and publishes the shard
// with a single append-under-lock at Close.
type memCollector struct {
	f      *memOutputFactory
	taskID int
	rows   []datum.Row
	slab   []datum.Datum // the unused tail rows are cut from
}

func (m *memCollector) Collect(row datum.Row) error {
	m.rows = append(m.rows, row)
	return nil
}

// CollectBatch cuts the batch into rows of the collector's own, from a
// slab of datums the next batch continues: short batches share one, and
// a slab's tail (the allocator's rounding included) is not dropped
// between batches. No row handed out is written again.
func (m *memCollector) CollectBatch(b *datum.Batch) (bool, error) {
	w := len(b.Cols)
	for i := 0; i < b.Len; i++ {
		if len(m.slab) < w {
			m.slab = slices.Grow([]datum.Datum(nil), max((b.Len-i)*w, batchSlots))
			m.slab = m.slab[:cap(m.slab)]
		}
		m.rows = append(m.rows, b.RowInto(m.slab[:0:w], i))
		m.slab = m.slab[w:]
	}
	return false, nil
}

func (m *memCollector) Close() error {
	m.f.mu.Lock()
	m.f.shards[m.taskID] = append(m.f.shards[m.taskID], m.rows...)
	m.f.mu.Unlock()
	m.rows, m.slab = nil, nil
	return nil
}

// workerPool bounds real concurrency.
type workerPool struct {
	wg  sync.WaitGroup
	sem chan struct{}
}

func newWorkerPool(n int) *workerPool {
	return &workerPool{sem: make(chan struct{}, n)}
}

func (p *workerPool) submit(fn func()) {
	p.wg.Add(1)
	p.sem <- struct{}{}
	go func() {
		defer func() {
			<-p.sem
			p.wg.Done()
		}()
		fn()
	}()
}

func (p *workerPool) wait() { p.wg.Wait() }

// EOF is the sentinel a RecordReader returns at end of stream: io.EOF
// itself, so readers pass their source's end of stream through
// untranslated and every other error fails the task.
var EOF = io.EOF

// ---- Convenience implementations ----

// SliceSplit is an in-memory split over rows (used in tests and for
// small side inputs).
type SliceSplit struct {
	Rows    []datum.Row
	BaseID  uint64 // record IDs are BaseID + index
	SimSize int64
}

// Open returns a reader over the slice.
func (s *SliceSplit) Open(m *sim.Meter) (RecordReader, error) {
	m.DFSRead(s.SimSize)
	return &sliceReader{rows: s.Rows, base: s.BaseID}, nil
}

// Length returns the simulated size.
func (s *SliceSplit) Length() int64 { return s.SimSize }

type sliceReader struct {
	rows []datum.Row
	base uint64
	idx  int
}

func (r *sliceReader) Next() (datum.Row, RecordMeta, error) {
	if r.idx >= len(r.rows) {
		return nil, RecordMeta{}, EOF
	}
	r.idx++
	return r.rows[r.idx-1], RecordMeta{RecordID: r.base + uint64(r.idx-1)}, nil
}

func (r *sliceReader) Close() error { return nil }

// CombinedSplit is consecutive splits read as one task's input, one
// after another — Hive's CombineHiveInputFormat, for a job that writes
// one output per task. Each part is opened when the one before it ends,
// charging the task's meter as it would its own task's.
type CombinedSplit []InputSplit

// Length is the parts' total size.
func (s CombinedSplit) Length() int64 {
	var n int64
	for _, p := range s {
		n += p.Length()
	}
	return n
}

// Open returns a reader over the parts in order.
func (s CombinedSplit) Open(m *sim.Meter) (RecordReader, error) {
	r := &combinedReader{parts: s, m: m}
	return r, r.advance()
}

// combinedReader chains its parts' readers, in rows or, through each
// part's own batches (a row-only part lifted by rowBatcher), in batches.
type combinedReader struct {
	parts CombinedSplit
	m     *sim.Meter
	cur   RecordReader
	batch BatchRecordReader
}

// advance closes the current part and opens the next; with none left,
// cur stays nil.
func (r *combinedReader) advance() error {
	if err := r.Close(); err != nil {
		return err
	}
	if len(r.parts) == 0 {
		return nil
	}
	rr, err := r.parts[0].Open(r.m)
	if err != nil {
		return err
	}
	r.parts, r.cur = r.parts[1:], rr
	if br, ok := rr.(BatchRecordReader); ok {
		r.batch = br
	} else {
		r.batch = &rowBatcher{RecordReader: rr}
	}
	return nil
}

func (r *combinedReader) Next() (datum.Row, RecordMeta, error) {
	for r.cur != nil {
		row, meta, err := r.cur.Next()
		if !errors.Is(err, EOF) {
			return row, meta, err
		}
		if err := r.advance(); err != nil {
			return nil, RecordMeta{}, err
		}
	}
	return nil, RecordMeta{}, EOF
}

func (r *combinedReader) NextBatch(b *RecordBatch) error {
	for r.cur != nil {
		err := r.batch.NextBatch(b)
		if !errors.Is(err, EOF) {
			return err
		}
		if err := r.advance(); err != nil {
			return err
		}
	}
	return EOF
}

// Close closes the current part's reader.
func (r *combinedReader) Close() error {
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur, r.batch = nil, nil
	return err
}

// MapFunc adapts a per-record function to the Mapper interface (see
// MapBatch in batch.go). The row is reused between calls.
type MapFunc func(row datum.Row, meta RecordMeta, emit Emitter) error

// Flush is a no-op.
func (f MapFunc) Flush(emit Emitter) error { return nil }

// ReduceFunc adapts a function to the Reducer interface.
type ReduceFunc func(key []byte, rows []datum.Row, emit Emitter) error

// Reduce invokes the function.
func (f ReduceFunc) Reduce(key []byte, rows []datum.Row, emit Emitter) error {
	return f(key, rows, emit)
}

// Flush is a no-op.
func (f ReduceFunc) Flush(emit Emitter) error { return nil }
