package dualtable

import (
	"context"
	"fmt"
	"sync"

	"dualtable/internal/core"
	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/sqlparser"
)

// Rows re-exports the streaming result iterator (Next/Scan/Close, or
// NextBatch for a column batch at a time).
type Rows = hive.Rows

// Batch re-exports the column batch Rows.NextBatch yields.
type Batch = datum.Batch

// PlanDecision re-exports one cost-model decision record.
type PlanDecision = core.PlanDecision

// Session is an independent client of a DB: it owns the settings that
// used to be process-global knobs (force plan, following reads k,
// ratio hints, arbitrary SET key = value pairs) plus its own plan
// log, so concurrent sessions with conflicting settings are safe and
// race-free. Sessions are cheap; create one per logical client or
// goroutine. A Session itself may be used from multiple goroutines.
//
// A Session tracks the resources it hands out — streaming Rows pin
// table snapshots, Submit jobs run engine statements — and Close
// releases all of them: live Rows are closed (unpinning their
// snapshots), live jobs are canceled and awaited. Servers rely on
// this as the per-connection teardown path.
type Session struct {
	db        *DB
	vars      *hive.SessionVars
	planStats hive.PlanCacheStats

	// closeCtx is canceled by Close; every operation's context is a
	// child of both the caller's context and this one, so in-flight
	// statements abort when the session closes.
	closeCtx context.Context
	closeFn  context.CancelFunc

	mu      sync.Mutex
	planLog []PlanDecision
	closed  bool
	rows    map[*Rows]struct{}
	jobs    map[*Job]struct{}
}

// Session opens a new session over the database.
func (db *DB) Session() *Session {
	s := &Session{db: db, vars: hive.NewSessionVars()}
	s.closeCtx, s.closeFn = context.WithCancel(context.Background())
	return s
}

// begin gates an operation on the session being open and derives its
// context: the returned context cancels when the caller's ctx does or
// when the session closes, whichever first. The release func must be
// called when the operation (including any streaming result it
// produced) is finished.
func (s *Session) begin(ctx context.Context) (context.Context, context.CancelFunc, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, nil, ErrSessionClosed
	}
	octx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.closeCtx, cancel)
	return octx, func() { stop(); cancel() }, nil
}

// Close shuts the session down: it cancels and awaits every live
// Submit job, closes every live Rows (releasing their pinned
// snapshots and aborting their jobs), aborts in-flight synchronous
// statements, and fails all future calls with ErrSessionClosed.
// Idempotent: the second and later calls return nil immediately.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	rows := make([]*Rows, 0, len(s.rows))
	for r := range s.rows {
		rows = append(rows, r)
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	// Cancel every op context first so streaming producers and jobs
	// start unwinding before we wait on them.
	s.closeFn()
	for _, r := range rows {
		r.Close()
	}
	for _, j := range jobs {
		j.Cancel()
		<-j.done
	}
	return nil
}

// trackRows registers a streaming result with the session and arranges
// for its close hook to release the operation context.
func (s *Session) trackRows(r *Rows, release context.CancelFunc) {
	// The hook must be in place before the Rows becomes visible to
	// Close's teardown sweep (publication through s.mu orders it).
	r.SetCloseHook(func() {
		s.mu.Lock()
		delete(s.rows, r)
		s.mu.Unlock()
		release()
	})
	s.mu.Lock()
	closedEarly := s.closed
	if !closedEarly {
		if s.rows == nil {
			s.rows = map[*Rows]struct{}{}
		}
		s.rows[r] = struct{}{}
	}
	s.mu.Unlock()
	// The session closed between begin and registration: this Rows
	// missed the teardown sweep, so close it here.
	if closedEarly {
		r.Close()
	}
}

// ec builds the per-call execution context: the caller's cancellation
// context, this session's settings, and a plan observer feeding the
// session-local log.
func (s *Session) ec(ctx context.Context) *hive.ExecContext {
	return &hive.ExecContext{
		Ctx:       ctx,
		Vars:      s.vars,
		PlanStats: &s.planStats,
		PlanObserver: func(v any) {
			if d, ok := v.(core.PlanDecision); ok {
				s.mu.Lock()
				s.planLog = append(s.planLog, d)
				// Same retention bound as the handler-global log.
				if len(s.planLog) > 1024 {
					s.planLog = s.planLog[len(s.planLog)-1024:]
				}
				s.mu.Unlock()
			}
		},
	}
}

// Exec runs one SQL statement (including SET key = value).
func (s *Session) Exec(sql string) (*ResultSet, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext runs one SQL statement under a cancellation context.
// Long scans and DML abort between MapReduce records once ctx is
// canceled, returning ctx.Err(). A closed session returns
// ErrSessionClosed.
func (s *Session) ExecContext(ctx context.Context, sql string) (*ResultSet, error) {
	octx, release, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.db.Engine.ExecuteCtx(s.ec(octx), sql)
}

// ExecScript runs a semicolon-separated script, returning the last
// statement's result.
func (s *Session) ExecScript(sql string) (*ResultSet, error) {
	return s.ExecScriptContext(context.Background(), sql)
}

// ExecScriptContext runs a script under a cancellation context.
func (s *Session) ExecScriptContext(ctx context.Context, sql string) (*ResultSet, error) {
	octx, release, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.db.Engine.ExecuteScriptCtx(s.ec(octx), sql)
}

// MustExec runs a statement and panics on error (examples, tests).
func (s *Session) MustExec(sql string) *ResultSet {
	rs, err := s.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("dualtable: %s: %v", sql, err))
	}
	return rs
}

// Query runs a SELECT and returns a streaming row iterator.
func (s *Session) Query(sql string) (*Rows, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext runs a SELECT under a cancellation context. Streamable
// queries (no aggregation, DISTINCT or ORDER BY) deliver rows while
// the MapReduce job runs, in bounded memory; canceling ctx or closing
// the Rows early aborts the job. The returned Rows is tracked by the
// session: Session.Close closes it (and every other live handle).
func (s *Session) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	octx, release, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := s.db.Engine.QueryCtx(s.ec(octx), sql)
	if err != nil {
		release()
		return nil, err
	}
	s.trackRows(rows, release)
	return rows, nil
}

// Prepare compiles a statement with '?' placeholders once; the
// returned Stmt binds arguments per execution without reparsing.
// Compiled plans are shared through the engine's LRU plan cache, so
// preparing the same text across sessions parses it once.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	octx, release, err := s.begin(context.Background())
	if err != nil {
		return nil, err
	}
	defer release()
	p, err := s.db.Engine.PrepareCtx(s.ec(octx), sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, prep: p}, nil
}

// Set stores a session setting, as the SQL statement
// SET key = value does. Recognized keys: "dualtable.force.plan"
// (EDIT/OVERWRITE/empty) and "dualtable.following.reads" (float k).
func (s *Session) Set(key, value string) { s.vars.Set(key, value) }

// Unset removes a session setting, restoring the engine default.
func (s *Session) Unset(key string) { s.vars.Unset(key) }

// Settings returns the session's settings as sorted key/value pairs.
func (s *Session) Settings() [][2]string { return s.vars.All() }

// Setting looks up one session setting and whether it was ever set.
func (s *Session) Setting(key string) (string, bool) { return s.vars.Lookup(key) }

// ResetVars clears every session setting and ratio hint, restoring
// the session to its just-opened state. The serving layer calls it for
// the wire protocol's RESET frame so a pooled connection never leaks
// one borrower's SET state to the next.
func (s *Session) ResetVars() { s.vars.Reset() }

// SetForcePlan forces EDIT or OVERWRITE plans on DualTable DML for
// this session only ("" restores cost-model selection).
func (s *Session) SetForcePlan(plan string) { s.vars.Set(hive.VarForcePlan, plan) }

// SetFollowingReads sets the cost model's k for this session only.
func (s *Session) SetFollowingReads(k float64) {
	s.vars.Set(hive.VarFollowingReads, fmt.Sprintf("%g", k))
}

// SetReadEpoch pins every snapshot-capable table scan in this session
// at the given manifest epoch — the session-level equivalent of
// SELECT ... AS OF EPOCH n (and of the SQL statement
// SET read.epoch = n). An explicit AS OF clause on a table reference
// still wins. UPDATE/DELETE refuse to run while the pin is active.
func (s *Session) SetReadEpoch(epoch uint64) {
	s.vars.Set(hive.VarReadEpoch, fmt.Sprintf("%d", epoch))
}

// ClearReadEpoch restores current-epoch reads for this session.
func (s *Session) ClearReadEpoch() { s.vars.Unset(hive.VarReadEpoch) }

// SetRatioHint pins the modification-ratio estimate of a DML
// statement for this session only (the designer-given α/β of the
// paper's §IV).
func (s *Session) SetRatioHint(sql string, ratio float64) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	key, err := s.db.Handler.StatementKey(stmt)
	if err != nil {
		return err
	}
	s.vars.SetRatioHint(key, ratio)
	return nil
}

// PlanLog returns the cost-model decisions made on behalf of this
// session, oldest first.
func (s *Session) PlanLog() []PlanDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PlanDecision(nil), s.planLog...)
}

// PlanCacheStats returns this session's plan-cache outcomes: hits (a
// text the engine had already parsed, byte for byte) and misses.
// HitRate() on the result gives the session's hit rate.
func (s *Session) PlanCacheStats() *hive.PlanCacheStats { return &s.planStats }

// Stmt is a prepared statement bound to a session.
type Stmt struct {
	sess *Session
	prep *hive.Prepared
}

// NumParams returns the number of '?' placeholders.
func (st *Stmt) NumParams() int { return st.prep.NumParams }

// Exec binds the arguments and runs the statement.
func (st *Stmt) Exec(args ...any) (*ResultSet, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext binds the arguments and runs the statement under a
// cancellation context.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (*ResultSet, error) {
	bound, err := st.bind(args)
	if err != nil {
		return nil, err
	}
	octx, release, err := st.sess.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return st.sess.db.Engine.ExecuteStmtCtx(st.sess.ec(octx), bound)
}

// Query binds the arguments and runs the statement as a streaming
// SELECT.
func (st *Stmt) Query(args ...any) (*Rows, error) {
	return st.QueryContext(context.Background(), args...)
}

// QueryContext binds the arguments and streams the SELECT's rows.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	bound, err := st.bind(args)
	if err != nil {
		return nil, err
	}
	sel, ok := bound.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("dualtable: Query requires a SELECT, got %T (use Exec)", bound)
	}
	octx, release, err := st.sess.begin(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := st.sess.db.Engine.QueryStmtCtx(st.sess.ec(octx), sel)
	if err != nil {
		release()
		return nil, err
	}
	st.sess.trackRows(rows, release)
	return rows, nil
}

// Close releases the statement. The compiled plan stays in the
// engine's cache for future Prepare calls.
func (st *Stmt) Close() error { return nil }

// bind converts Go arguments to datums and substitutes placeholders.
func (st *Stmt) bind(args []any) (sqlparser.Statement, error) {
	ds := make([]datum.Datum, len(args))
	for i, a := range args {
		d, err := toDatum(a)
		if err != nil {
			return nil, fmt.Errorf("dualtable: argument %d: %w", i+1, err)
		}
		ds[i] = d
	}
	return st.prep.Bind(ds)
}

// toDatum converts a Go value to a datum.
func toDatum(a any) (datum.Datum, error) {
	switch v := a.(type) {
	case nil:
		return datum.Null, nil
	case datum.Datum:
		return v, nil
	case int:
		return datum.Int(int64(v)), nil
	case int32:
		return datum.Int(int64(v)), nil
	case int64:
		return datum.Int(v), nil
	case float32:
		return datum.Float(float64(v)), nil
	case float64:
		return datum.Float(v), nil
	case string:
		return datum.String_(v), nil
	case bool:
		return datum.Bool(v), nil
	default:
		return datum.Null, fmt.Errorf("unsupported argument type %T", a)
	}
}
