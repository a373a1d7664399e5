package hive

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// Rows is a streaming result iterator in the database/sql idiom:
// Next/Scan/Close. For streamable queries (no aggregation, DISTINCT or
// ORDER BY) the result flows from the MapReduce output through a bounded
// channel while the job runs, so consuming a huge scan needs only
// O(channel buffer) memory; closing early (or canceling the query's
// context) aborts the job between batches. Queries that inherently
// materialize (aggregates, sorts) are executed eagerly and then
// iterated.
//
// Underneath, a result is a sequence of column batches, and the cursor
// Next moves is a position in the current one: the batches the scan's
// sink was handed for a streamed result, transpositions of at most
// orcfile.DefaultBatchRows rows at a time for a materialized one.
// NextBatch yields them whole.
type Rows struct {
	cols []string

	// Streaming mode.
	ch      <-chan *datum.Batch
	cancel  context.CancelFunc
	done    <-chan struct{}
	prodErr *error   // written by the producer before done closes
	prodSim *float64 // simulated seconds, same protocol
	closed  atomic.Bool

	// Materialized mode (ch == nil).
	static []datum.Row
	idx    int // first row not yet in a batch
	sim    float64

	// cur is borrowed from resultBatches; nil before the first batch and
	// after the last. Whoever swaps it out hands it back, so a Close from
	// another goroutine (a session's teardown) and the consumer's own
	// advance can never both return one batch — the consumer must still
	// not be reading a row while that Close runs.
	cur atomic.Pointer[datum.Batch]
	pos int // the current row in cur; cur.Len when NextBatch yielded it whole
	err error

	// closeHook, when set, runs exactly once when Close first
	// releases the iterator (session-teardown bookkeeping).
	closeHook func()
}

// SetCloseHook registers a function Close runs exactly once when the
// iterator is released. It must be set before the Rows is shared with
// other goroutines (the session sets it on the Query return path).
func (r *Rows) SetCloseHook(fn func()) { r.closeHook = fn }

// Columns returns the result column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, reporting false at the end of the
// result set or on error (check Err).
func (r *Rows) Next() bool {
	if b := r.cur.Load(); b != nil && r.pos+1 < b.Len {
		r.pos++
		return true
	}
	r.pos = 0
	return r.advance() != nil
}

// NextBatch advances to the next batch of the result and returns it
// whole, or nil at the end of the result set or on error (check Err).
// The batch is valid until the next Next, NextBatch or Close. It starts
// after the batch the cursor is in, whose remaining rows are passed
// over: a result is read through Next or through NextBatch.
func (r *Rows) NextBatch() *datum.Batch {
	b := r.advance()
	if b != nil {
		r.pos = b.Len
	}
	return b
}

// release hands the current batch, if any, back to the free list.
func (r *Rows) release() {
	if b := r.cur.Swap(nil); b != nil {
		resultBatches.Put(b)
	}
}

// advance hands the current batch back and makes the next one current,
// returning it; nil at the end of the result or on error.
func (r *Rows) advance() *datum.Batch {
	r.release()
	if r.err != nil || r.closed.Load() {
		return nil
	}
	var b *datum.Batch
	if r.ch == nil {
		if r.idx >= len(r.static) {
			return nil
		}
		end := min(r.idx+orcfile.DefaultBatchRows, len(r.static))
		b = resultBatches.Get()
		b.SetRows(r.static[r.idx:end], len(r.cols))
		r.idx = end
	} else if b = <-r.ch; b == nil { // closed: the producer is done
		<-r.done
		r.err = *r.prodErr
		r.sim = *r.prodSim
		return nil
	}
	r.cur.Store(b)
	if r.closed.Load() { // closed meanwhile: Close may have missed b
		r.release()
		return nil
	}
	return b
}

// row returns the batch and position of the current row; nil without a
// successful Next.
func (r *Rows) row() (*datum.Batch, int) {
	if b := r.cur.Load(); b != nil && r.pos < b.Len {
		return b, r.pos
	}
	return nil, 0
}

// Row returns the current row as raw datums, a row of its own that the
// caller may keep; nil without a successful Next.
func (r *Rows) Row() datum.Row {
	b, i := r.row()
	if b == nil {
		return nil
	}
	return b.Row(i)
}

// Scan copies the current row into dest pointers. Supported targets:
// *int64, *int, *float64, *string, *bool, *datum.Datum and *any.
func (r *Rows) Scan(dest ...any) error {
	b, pos := r.row()
	if b == nil {
		return fmt.Errorf("hive: Scan called without a successful Next")
	}
	if len(dest) != len(b.Cols) {
		return fmt.Errorf("hive: Scan expects %d destination(s), got %d", len(b.Cols), len(dest))
	}
	for i, d := range dest {
		v := b.Cols[i].Datum(pos)
		switch p := d.(type) {
		case *datum.Datum:
			*p = v
		case *any:
			switch v.K {
			case datum.KindNull:
				*p = nil
			case datum.KindInt:
				*p = v.I
			case datum.KindFloat:
				*p = v.F
			case datum.KindBool:
				*p = v.B
			default:
				*p = v.String()
			}
		case *int64:
			n, ok := v.AsInt()
			if !ok {
				return fmt.Errorf("hive: column %d (%v) is not an integer", i, v)
			}
			*p = n
		case *int:
			n, ok := v.AsInt()
			if !ok {
				return fmt.Errorf("hive: column %d (%v) is not an integer", i, v)
			}
			*p = int(n)
		case *float64:
			f, ok := v.AsFloat()
			if !ok {
				return fmt.Errorf("hive: column %d (%v) is not numeric", i, v)
			}
			*p = f
		case *string:
			*p = v.String()
		case *bool:
			*p = v.Truthy()
		default:
			return fmt.Errorf("hive: unsupported Scan destination %T", d)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A clean
// drain and an explicit early Close both leave Err nil.
func (r *Rows) Err() error { return r.err }

// SimSeconds returns the query's simulated cluster time; for a
// streaming result it is complete only after the rows are drained.
func (r *Rows) SimSeconds() float64 { return r.sim }

// Close releases the result. For a streaming result it cancels the
// underlying MapReduce job and drains the channel, handing back the
// batches it never delivered; closing before exhaustion is not an
// error.
func (r *Rows) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	if r.ch != nil {
		r.cancel()
		for b := range r.ch {
			resultBatches.Put(b)
		}
		<-r.done
	}
	r.release()
	if r.closeHook != nil {
		r.closeHook()
	}
	return nil
}

// QueryCtx parses one SELECT (through the plan cache) and returns a
// streaming row iterator.
func (e *Engine) QueryCtx(ec *ExecContext, sql string) (*Rows, error) {
	p, err := e.PrepareCtx(ec, sql)
	if err != nil {
		return nil, err
	}
	sel, ok := p.Stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hive: Query requires a SELECT, got %T (use Exec)", p.Stmt)
	}
	if p.NumParams > 0 {
		return nil, fmt.Errorf("hive: Query on a statement with placeholders requires Prepare/Bind")
	}
	return e.QueryStmtCtx(ec, sel)
}

// QueryStmtCtx runs a parsed SELECT as a row iterator: the plan's job
// streams into a channel when the plan is streamable, and is collected
// eagerly otherwise. The plan is compiled synchronously either way, so
// column names and compile errors surface before streaming starts.
func (e *Engine) QueryStmtCtx(ec *ExecContext, sel *sqlparser.SelectStmt) (*Rows, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	ledger := sim.NewLedger(&e.MR.Params)
	plan, err := e.planSelect(ec, sel, ledger)
	if err != nil {
		return nil, err
	}
	if !plan.streamable {
		rows, err := plan.collect(e, ec, ledger)
		plan.Release()
		if err != nil {
			return nil, err
		}
		return &Rows{cols: plan.names, static: rows, sim: ledger.Seconds()}, nil
	}
	// LIMIT 0 needs no scan at all.
	if plan.limit == 0 {
		plan.Release()
		return &Rows{cols: plan.names}, nil
	}

	ctx, cancel := context.WithCancel(ec.Context())
	ch := make(chan *datum.Batch, streamDepth)
	sink := &chanOutputFactory{ctx: ctx, cancel: cancel, ch: ch, limit: plan.limit}
	plan.job.Output = sink

	done := make(chan struct{})
	var prodErr error
	var prodSim float64
	rows := &Rows{cols: plan.names, ch: ch, cancel: cancel, done: done, prodErr: &prodErr, prodSim: &prodSim}
	go func() {
		defer close(done)
		defer close(ch)
		res, err := e.MR.RunContext(ctx, plan.job)
		// The job is done with the splits (success, cancel or error):
		// unpin the scanned snapshot.
		plan.Release()
		if res != nil {
			ledger.Add(res.Counts, res.SimSeconds)
		}
		prodSim = ledger.Seconds()
		// A job aborted because the sink hit LIMIT (or the consumer
		// closed early) finished cleanly from the caller's view.
		if err != nil && !sink.limitHit.Load() && !rows.closed.Load() {
			prodErr = err
		}
	}()
	return rows, nil
}

// streamDepth is how many finished batches a streamed result parks
// between the job and its consumer. A batch is up to
// orcfile.DefaultBatchRows rows, so a few keep every map task busy while
// the consumer encodes or scans one; more would only grow what an early
// Close throws away and what a slow consumer holds (depth + one per
// running task + the consumer's own, of resultBatches' freelist.Size).
const streamDepth = 4

// chanOutputFactory streams a job's result batches into a channel,
// stopping the job once LIMIT rows have been delivered.
type chanOutputFactory struct {
	ctx       context.Context
	cancel    context.CancelFunc
	ch        chan<- *datum.Batch
	limit     int64 // -1 = none
	reserved  atomic.Int64
	delivered atomic.Int64
	limitHit  atomic.Bool
}

func (f *chanOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &chanCollector{f: f}, nil
}

type chanCollector struct{ f *chanOutputFactory }

var _ mapred.BatchCollector = (*chanCollector)(nil)

// Collect is never reached: the one mapper a streamed plan runs emits
// batches.
func (c *chanCollector) Collect(datum.Row) error {
	return errors.New("hive: the streaming sink takes column batches")
}

func (c *chanCollector) CollectBatch(b *datum.Batch) (bool, error) {
	f := c.f
	n := int64(b.Len)
	if f.limit >= 0 {
		// Reserve slots first so concurrent map tasks cannot collectively
		// deliver more than LIMIT rows: this batch gets what was left of
		// the limit before it asked.
		left := f.limit - (f.reserved.Add(n) - n)
		if left <= 0 {
			return false, nil
		}
		if left < n {
			b.Truncate(int(left))
			n = left
		}
	}
	select {
	case f.ch <- b: // the consumer's from here on
	case <-f.ctx.Done():
		return false, f.ctx.Err()
	}
	// Abort the rest of the job on the batch that delivers the last row,
	// not on the last slot reserved: a task holding earlier slots may
	// still be in the select above, and a cancel would race its send.
	if f.limit >= 0 && f.delivered.Add(n) == f.limit {
		f.limitHit.Store(true)
		f.cancel()
	}
	return true, nil
}

func (c *chanCollector) Close() error { return nil }
