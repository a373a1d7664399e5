package hive

import (
	"context"
	"fmt"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// Rows is a streaming result iterator in the database/sql idiom:
// Next/Scan/Close. For streamable queries (no aggregation, DISTINCT or
// ORDER BY) rows flow from the MapReduce output through a bounded
// channel while the job runs, so consuming a huge scan needs only
// O(channel buffer) memory; closing early (or canceling the query's
// context) aborts the job between records. Queries that inherently
// materialize (aggregates, sorts) are executed eagerly and then
// iterated.
type Rows struct {
	cols []string

	// Streaming mode.
	ch      <-chan datum.Row
	cancel  context.CancelFunc
	done    <-chan struct{}
	prodErr *error   // written by the producer before done closes
	prodSim *float64 // simulated seconds, same protocol
	closed  atomic.Bool

	// Materialized mode (ch == nil).
	static []datum.Row
	idx    int
	sim    float64

	cur datum.Row
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
	if r.err != nil || r.closed.Load() {
		return false
	}
	if r.ch == nil {
		if r.idx >= len(r.static) {
			return false
		}
		r.cur = r.static[r.idx]
		r.idx++
		return true
	}
	row, ok := <-r.ch
	if !ok {
		<-r.done
		r.err = *r.prodErr
		r.sim = *r.prodSim
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row as raw datums (valid until the next
// call to Next).
func (r *Rows) Row() datum.Row { return r.cur }

// Scan copies the current row into dest pointers. Supported targets:
// *int64, *int, *float64, *string, *bool, *datum.Datum and *any.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("hive: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("hive: Scan expects %d destination(s), got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		v := r.cur[i]
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
// underlying MapReduce job and drains the channel; closing before
// exhaustion is not an error.
func (r *Rows) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	if r.ch != nil {
		r.cancel()
		for range r.ch {
		}
		<-r.done
	}
	r.cur = nil
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
	meter := sim.NewMeter(&e.MR.Params)
	plan, err := e.planSelect(ec, sel, meter)
	if err != nil {
		return nil, err
	}
	if !plan.streamable {
		rows, err := plan.collect(e, ec, meter)
		plan.Release()
		if err != nil {
			return nil, err
		}
		return &Rows{cols: plan.names, static: rows, sim: meter.Seconds()}, nil
	}
	// LIMIT 0 needs no scan at all.
	if plan.limit == 0 {
		plan.Release()
		return &Rows{cols: plan.names}, nil
	}

	ctx, cancel := context.WithCancel(ec.Context())
	ch := make(chan datum.Row, 64)
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
			meter.AddSeconds(res.SimSeconds)
		}
		prodSim = meter.Seconds()
		// A job aborted because the sink hit LIMIT (or the consumer
		// closed early) finished cleanly from the caller's view.
		if err != nil && !sink.limitHit.Load() && !rows.closed.Load() {
			prodErr = err
		}
	}()
	return rows, nil
}

// chanOutputFactory streams job output rows into a channel, stopping
// the job once LIMIT rows have been delivered.
type chanOutputFactory struct {
	ctx       context.Context
	cancel    context.CancelFunc
	ch        chan<- datum.Row
	limit     int64 // -1 = none
	reserved  atomic.Int64
	delivered atomic.Int64
	limitHit  atomic.Bool
}

func (f *chanOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &chanCollector{f: f}, nil
}

type chanCollector struct{ f *chanOutputFactory }

func (c *chanCollector) Collect(row datum.Row) error {
	f := c.f
	// Reserve a slot first so concurrent map tasks cannot collectively
	// deliver more than LIMIT rows.
	if f.limit >= 0 && f.reserved.Add(1) > f.limit {
		return nil
	}
	select {
	case f.ch <- row: // emit transfers ownership; no clone needed
	case <-f.ctx.Done():
		return f.ctx.Err()
	}
	// Abort the rest of the job on the last row delivered, not on the
	// last slot reserved: a task holding an earlier slot may still be in
	// the select above, and a cancel would race its send.
	if f.limit >= 0 && f.delivered.Add(1) == f.limit {
		f.limitHit.Store(true)
		f.cancel()
	}
	return nil
}

func (c *chanCollector) Close() error { return nil }
