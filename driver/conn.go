package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/sqlparser"
	"dualtable/internal/wire"
)

// ErrResultUnknown reports a connection that died after a statement
// was fully sent but before its response arrived: the statement may
// or may not have executed. The driver never retries in this state —
// resending could double-apply a write — so the caller must decide
// (re-check state, or retry an idempotent statement). Send failures,
// by contrast, are retried transparently by the pool: the server only
// executes complete frames, so a partially written request never ran.
var ErrResultUnknown = errors.New("dualtable driver: connection failed mid-statement (result unknown)")

// cancelGrace bounds how long a cancelled operation waits for the
// server's acknowledging response before the pending read is forced
// to fail — a dead server must not wedge a cancelled statement.
const cancelGrace = 2 * time.Second

// conn is one wire connection. database/sql serializes all calls on a
// driver.Conn, so the request/response protocol needs no client-side
// demultiplexing: the issuing operation owns Recv until its response
// (or response stream) completes. The only concurrent writers are
// cancel and credit frames, which wire.Conn serializes internally.
type conn struct {
	wc        *wire.Conn
	cfg       Config
	sessionID uint64

	nextStmt atomic.Uint64
	nextOp   atomic.Uint64

	closed bool
	broken atomic.Bool // a mid-stream network error poisons the conn

	// dirty marks that a SET statement may have changed server-side
	// session state. ResetSession only pays the RESET round trip for
	// dirty connections, so pooled reuse of clean ones stays free.
	dirty bool
}

var _ sqldriver.Conn = (*conn)(nil)
var _ sqldriver.ExecerContext = (*conn)(nil)
var _ sqldriver.QueryerContext = (*conn)(nil)
var _ sqldriver.ConnPrepareContext = (*conn)(nil)
var _ sqldriver.Pinger = (*conn)(nil)
var _ sqldriver.Validator = (*conn)(nil)
var _ sqldriver.SessionResetter = (*conn)(nil)

// markBroken poisons the connection after an I/O failure so the pool
// retires it instead of reusing a desynchronized frame stream.
func (c *conn) markBroken() { c.broken.Store(true) }

// IsValid lets the pool drop poisoned connections.
func (c *conn) IsValid() bool { return !c.broken.Load() && !c.closed }

// ResetSession scrubs server-side session state before the pool hands
// this connection to a new borrower. Clean connections return
// immediately; dirty ones (a SET ran) do a RESET round trip and
// re-apply the DSN's base settings. Any failure retires the
// connection — a borrower must never inherit unknown session state.
func (c *conn) ResetSession(ctx context.Context) error {
	if c.closed || c.broken.Load() {
		return sqldriver.ErrBadConn
	}
	if !c.dirty {
		return nil
	}
	if err := c.wc.Send(wire.TypeReset, (&wire.OK{}).Encode()); err != nil {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	raw := c.wc.Raw()
	raw.SetReadDeadline(time.Now().Add(cancelGrace))
	t, _, err := c.wc.Recv()
	raw.SetReadDeadline(time.Time{})
	if err != nil || t != wire.TypeOK {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	if err := c.applyBaseVars(); err != nil {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	c.dirty = false
	return nil
}

// applyBaseVars pushes the DSN-derived session settings onto a fresh
// (or freshly reset) connection.
func (c *conn) applyBaseVars() error {
	if c.cfg.StatementTimeout <= 0 {
		return nil
	}
	m := wire.Set{Key: hive.VarStatementTimeout, Value: c.cfg.StatementTimeout.String()}
	if err := c.wc.Send(wire.TypeSet, m.Encode()); err != nil {
		return err
	}
	t, payload, err := c.wc.Recv()
	if err != nil {
		return err
	}
	switch t {
	case wire.TypeOK:
		return nil
	case wire.TypeError:
		return c.decodeError(payload)
	default:
		return fmt.Errorf("%w: SET answered with %v", dualtable.ErrProtocol, t)
	}
}

// sqlMutatesSession reports whether inline SQL holds a SET statement
// — the signal that the connection must be reset before pooled reuse.
// A SET behind a comment counts; one inside a string literal does not.
func sqlMutatesSession(sql string) bool {
	set := false
	// A script that does not lex runs nothing on the server; a SET seen
	// before its error costs one needless reset at worst.
	_ = sqlparser.StatementHeads(sql, func(head string) bool {
		set = head == "SET"
		return !set
	})
	return set
}

// Prepare compiles a statement server-side.
func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext compiles a statement server-side. The round trip is
// not cancelable mid-flight (prepare is parse-only and fast); ctx is
// checked up front.
func (c *conn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id := c.nextStmt.Add(1)
	req := wire.Prepare{StmtID: id, SQL: query}
	if err := c.wc.Send(wire.TypePrepare, req.Encode()); err != nil {
		// The server only acts on complete frames, so a send failure
		// means the prepare never ran: safe for the pool to retry on a
		// fresh connection.
		c.markBroken()
		return nil, sqldriver.ErrBadConn
	}
	t, payload, err := c.wc.Recv()
	if err != nil {
		c.markBroken()
		return nil, sqldriver.ErrBadConn // prepare is side-effect-free
	}
	switch t {
	case wire.TypePrepareOK:
		var ok wire.PrepareOK
		if err := ok.Decode(payload); err != nil {
			c.markBroken()
			return nil, err
		}
		return &stmt{c: c, id: ok.StmtID, numParams: int(ok.NumParams),
			mutatesSession: sqlMutatesSession(query)}, nil
	case wire.TypeError:
		return nil, c.decodeError(payload)
	default:
		c.markBroken()
		return nil, fmt.Errorf("%w: PREPARE answered with %v", dualtable.ErrProtocol, t)
	}
}

// Close sends an orderly Quit and closes the socket.
func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.wc.Send(wire.TypeQuit, nil) // best-effort
	return c.wc.Close()
}

// Begin is required by driver.Conn; the engine has no multi-statement
// transactions (statements are individually atomic via epoch
// manifests).
func (c *conn) Begin() (sqldriver.Tx, error) {
	return nil, errors.New("dualtable: transactions are not supported (statements are individually atomic)")
}

// Ping round-trips a liveness frame.
func (c *conn) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	op := c.nextOp.Add(1)
	if err := c.wc.Send(wire.TypePing, (&wire.OK{OpID: op}).Encode()); err != nil {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	t, payload, err := c.wc.Recv()
	if err != nil {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	if t != wire.TypeOK {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	var ok wire.OK
	if err := ok.Decode(payload); err != nil || ok.OpID != op {
		c.markBroken()
		return sqldriver.ErrBadConn
	}
	return nil
}

// ExecContext executes a statement (inline SQL; semicolon-separated
// scripts run server-side, returning the last result).
func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	ds, err := namedToDatums(args)
	if err != nil {
		return nil, err
	}
	if sqlMutatesSession(query) {
		c.dirty = true
	}
	return c.exec(ctx, 0, query, ds)
}

// QueryContext streams a SELECT (inline SQL).
func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	ds, err := namedToDatums(args)
	if err != nil {
		return nil, err
	}
	if sqlMutatesSession(query) {
		c.dirty = true
	}
	return c.query(ctx, 0, query, ds)
}

// exec runs an Exec round trip, transparently retrying busy sheds
// (which the server issues before the statement runs, so a retry can
// never double-apply) with jittered backoff.
func (c *conn) exec(ctx context.Context, stmtID uint64, sql string, args []datum.Datum) (sqldriver.Result, error) {
	attempts := c.cfg.retryAttempts()
	for attempt := 0; ; attempt++ {
		res, err := c.execOnce(ctx, stmtID, sql, args)
		if err == nil || attempt >= attempts || !c.retryableStatement(err) {
			return res, err
		}
		if serr := backoffSleep(ctx, attempt, c.cfg.retryBase()); serr != nil {
			return nil, err
		}
	}
}

// execOnce runs one Exec round trip. The response is awaited even
// after ctx cancels — the watcher sends a wire cancel frame and the
// server always answers, keeping the frame stream in sync for the next
// request.
func (c *conn) execOnce(ctx context.Context, stmtID uint64, sql string, args []datum.Datum) (sqldriver.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opID := c.nextOp.Add(1)
	req := wire.Exec{OpID: opID, StmtID: stmtID, SQL: sql, Args: args}
	if err := c.wc.Send(wire.TypeExec, req.Encode()); err != nil {
		// The server only acts on complete frames, so a send failure —
		// even one that flushed a prefix — means the statement never
		// ran. Safe for the pool to retry on a fresh connection.
		c.markBroken()
		return nil, sqldriver.ErrBadConn
	}
	stopWatch := c.watchCancel(ctx, opID)
	defer stopWatch()
	for {
		t, payload, err := c.wc.Recv()
		if err != nil {
			// The request was fully sent; the server may or may not
			// have executed it. Never ErrBadConn here — the pool would
			// silently resend and could double-apply a write.
			c.markBroken()
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("%w: %v", ErrResultUnknown, err)
		}
		switch t {
		case wire.TypeResult:
			var res wire.Result
			if err := res.Decode(payload); err != nil {
				c.markBroken()
				return nil, err
			}
			if res.OpID != opID {
				c.markBroken()
				return nil, fmt.Errorf("%w: result for op %d, want %d", dualtable.ErrProtocol, res.OpID, opID)
			}
			return execResult{affected: res.Affected}, nil
		case wire.TypeError:
			err := c.decodeError(payload)
			if ctx.Err() != nil && errors.Is(err, context.Canceled) {
				return nil, ctx.Err()
			}
			return nil, err
		default:
			c.markBroken()
			return nil, fmt.Errorf("%w: EXEC answered with %v", dualtable.ErrProtocol, t)
		}
	}
}

// query runs a Query request with the same busy-shed retry as exec
// (reads are idempotent besides).
func (c *conn) query(ctx context.Context, stmtID uint64, sql string, args []datum.Datum) (sqldriver.Rows, error) {
	attempts := c.cfg.retryAttempts()
	for attempt := 0; ; attempt++ {
		rs, err := c.queryOnce(ctx, stmtID, sql, args)
		if err == nil || attempt >= attempts || !c.retryableStatement(err) {
			return rs, err
		}
		if serr := backoffSleep(ctx, attempt, c.cfg.retryBase()); serr != nil {
			return nil, err
		}
	}
}

// queryOnce runs one Query request and returns the response stream.
func (c *conn) queryOnce(ctx context.Context, stmtID uint64, sql string, args []datum.Datum) (sqldriver.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opID := c.nextOp.Add(1)
	req := wire.Query{OpID: opID, StmtID: stmtID, SQL: sql, Args: args, Window: c.cfg.Window}
	if err := c.wc.Send(wire.TypeQuery, req.Encode()); err != nil {
		// Incomplete request frame: the query never started. The pool
		// may retry on a fresh connection.
		c.markBroken()
		return nil, sqldriver.ErrBadConn
	}
	// The watcher covers the whole stream, not just the planning
	// window: database/sql's ctx monitor cannot close a Rows whose
	// Next is blocked mid-Recv (Next holds the Rows lock), so the
	// driver itself must turn cancellation into a cancel frame plus a
	// read deadline that unblocks the pending read. On success the
	// watcher is handed to the rows, which stops it on Close.
	stopWatch := c.watchCancel(ctx, opID)
	t, payload, err := c.wc.Recv()
	if err != nil {
		stopWatch()
		c.markBroken()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: %v", ErrResultUnknown, err)
	}
	switch t {
	case wire.TypeRowHeader:
		var hdr wire.RowHeader
		if err := hdr.Decode(payload); err != nil {
			stopWatch()
			c.markBroken()
			return nil, err
		}
		if hdr.OpID != opID {
			stopWatch()
			c.markBroken()
			return nil, fmt.Errorf("%w: header for op %d, want %d", dualtable.ErrProtocol, hdr.OpID, opID)
		}
		return &rows{c: c, opID: opID, cols: hdr.Columns, stopWatch: stopWatch}, nil
	case wire.TypeError:
		stopWatch()
		err := c.decodeError(payload)
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			return nil, ctx.Err()
		}
		return nil, err
	default:
		stopWatch()
		c.markBroken()
		return nil, fmt.Errorf("%w: QUERY answered with %v", dualtable.ErrProtocol, t)
	}
}

// watchCancel propagates ctx cancellation as a wire cancel frame
// until the returned stop func runs. After the cancel frame it arms a
// read deadline of cancelGrace: the server normally answers a
// cancelled op promptly, but a dead or stalled server must not wedge
// the operation's pending Recv forever.
func (c *conn) watchCancel(ctx context.Context, opID uint64) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			c.wc.Send(wire.TypeCancel, (&wire.Cancel{OpID: opID}).Encode())
			c.wc.Raw().SetReadDeadline(time.Now().Add(cancelGrace))
		case <-stop:
		}
	}()
	var once atomic.Bool
	return func() {
		if !once.Swap(true) {
			close(stop)
			<-done
			if ctx.Err() != nil {
				// The watcher may have armed the grace deadline;
				// disarm it so the next request reads unbounded.
				c.wc.Raw().SetReadDeadline(time.Time{})
			}
		}
	}
}

// decodeError turns an error frame into its typed client-side error.
func (c *conn) decodeError(payload []byte) error {
	var ef wire.ErrorFrame
	if err := ef.Decode(payload); err != nil {
		c.markBroken()
		return err
	}
	return dualtable.CodeError(dualtable.ErrCode(ef.Code), ef.Msg)
}

// execResult implements driver.Result. The engine has no
// LastInsertId concept.
type execResult struct{ affected int64 }

func (r execResult) LastInsertId() (int64, error) {
	return 0, errors.New("dualtable: LastInsertId is not supported")
}
func (r execResult) RowsAffected() (int64, error) { return r.affected, nil }

// stmt is a server-side prepared statement.
type stmt struct {
	c         *conn
	id        uint64
	numParams int
	closed    bool

	// mutatesSession records that the prepared SQL contains a SET, so
	// every execution dirties the owning connection's session state.
	mutatesSession bool
}

var _ sqldriver.Stmt = (*stmt)(nil)
var _ sqldriver.StmtExecContext = (*stmt)(nil)
var _ sqldriver.StmtQueryContext = (*stmt)(nil)

// Close releases the server-side statement (fire-and-forget frame; no
// response, so it can never desynchronize an in-flight stream).
func (s *stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.c.wc.Send(wire.TypeCloseStmt, (&wire.CloseStmt{StmtID: s.id}).Encode())
	return nil
}

// NumInput returns the '?' placeholder count.
func (s *stmt) NumInput() int { return s.numParams }

// markDirty flags the owning conn when this statement mutates session
// state.
func (s *stmt) markDirty() {
	if s.mutatesSession {
		s.c.dirty = true
	}
}

// Exec runs the statement with bound arguments.
func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	ds, err := valuesToDatums(args)
	if err != nil {
		return nil, err
	}
	s.markDirty()
	return s.c.exec(context.Background(), s.id, "", ds)
}

// ExecContext runs the statement with bound arguments under ctx.
func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	ds, err := namedToDatums(args)
	if err != nil {
		return nil, err
	}
	s.markDirty()
	return s.c.exec(ctx, s.id, "", ds)
}

// Query streams the statement's SELECT result.
func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	ds, err := valuesToDatums(args)
	if err != nil {
		return nil, err
	}
	s.markDirty()
	return s.c.query(context.Background(), s.id, "", ds)
}

// QueryContext streams the statement's SELECT result under ctx.
func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	ds, err := namedToDatums(args)
	if err != nil {
		return nil, err
	}
	s.markDirty()
	return s.c.query(ctx, s.id, "", ds)
}

// ---- value conversion ----

func namedToDatums(args []sqldriver.NamedValue) ([]datum.Datum, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]datum.Datum, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, errors.New("dualtable: named parameters are not supported (use ? placeholders)")
		}
		d, err := valueToDatum(a.Value)
		if err != nil {
			return nil, fmt.Errorf("dualtable: argument %d: %w", a.Ordinal, err)
		}
		out[a.Ordinal-1] = d
	}
	return out, nil
}

func valuesToDatums(args []sqldriver.Value) ([]datum.Datum, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]datum.Datum, len(args))
	for i, a := range args {
		d, err := valueToDatum(a)
		if err != nil {
			return nil, fmt.Errorf("dualtable: argument %d: %w", i+1, err)
		}
		out[i] = d
	}
	return out, nil
}

func valueToDatum(v sqldriver.Value) (datum.Datum, error) {
	switch x := v.(type) {
	case nil:
		return datum.Null, nil
	case int64:
		return datum.Int(x), nil
	case float64:
		return datum.Float(x), nil
	case bool:
		return datum.Bool(x), nil
	case string:
		return datum.String_(x), nil
	case []byte:
		return datum.String_(string(x)), nil
	case time.Time:
		return datum.String_(x.Format(time.RFC3339Nano)), nil
	default:
		return datum.Null, fmt.Errorf("unsupported argument type %T", v)
	}
}

func datumToValue(d datum.Datum) sqldriver.Value {
	switch d.K {
	case datum.KindNull:
		return nil
	case datum.KindInt:
		return d.I
	case datum.KindFloat:
		return d.F
	case datum.KindBool:
		return d.B
	default:
		return d.S
	}
}
