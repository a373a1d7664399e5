package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/sqlparser"
	"dualtable/internal/wire"
)

// conn serves one client connection: its own *dualtable.Session, its
// prepared statements, and its in-flight operations. The read loop
// never blocks on statement execution — Exec/Query run on op
// goroutines so Cancel and Fetch frames keep flowing — and teardown
// (client disconnect or server Close) cancels every op and closes the
// session, which releases pinned snapshots and cancels jobs.
type conn struct {
	srv    *Server
	wc     *wire.Conn
	sess   *dualtable.Session
	gate   *gate
	tenant string
	id     uint64

	ctx    context.Context
	cancel context.CancelFunc
	opWG   sync.WaitGroup

	// lastActive is the unix-nano time of the last received frame or
	// retired op; the idle reaper compares it against IdleTimeout.
	lastActive atomic.Int64

	mu    sync.Mutex
	ops   map[uint64]*activeOp
	stmts map[uint64]*dualtable.Stmt
}

// activeOp is one in-flight Exec or Query.
type activeOp struct {
	ctxVal  context.Context
	cancel  context.CancelFunc
	credits chan uint32
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:   s,
		wc:    wire.NewConn(nc),
		ops:   map[uint64]*activeOp{},
		stmts: map[uint64]*dualtable.Stmt{},
	}
	c.ctx, c.cancel = context.WithCancel(s.baseCtx)
	c.wc.SetWriteTimeout(s.cfg.WriteTimeout)
	c.lastActive.Store(time.Now().UnixNano())
	return c
}

// shutdown force-closes the connection from outside the serve loop
// (server Close).
func (c *conn) shutdown() {
	c.cancel()
	c.wc.Close()
}

func (c *conn) serve() {
	defer c.teardown()
	// A panic in the read loop or dispatch must not take the process
	// (or sibling connections) down with it: recover, report, and let
	// teardown close just this connection.
	defer func() {
		if r := recover(); r != nil {
			c.srv.logf("conn %d: panic in read loop: %v", c.id, r)
			c.sendError(0, fmt.Errorf("internal error: %v", r))
		}
	}()
	if err := c.handshake(); err != nil {
		c.srv.logf("conn %d: handshake: %v", c.id, err)
		return
	}
	for {
		t, payload, err := c.wc.Recv()
		if err != nil {
			return // disconnect (clean EOF or otherwise)
		}
		c.lastActive.Store(time.Now().UnixNano())
		if err := c.dispatch(t, payload); err != nil {
			// Protocol violation: report and drop the connection.
			c.sendError(0, fmt.Errorf("%w: %v", dualtable.ErrProtocol, err))
			c.srv.logf("conn %d: protocol: %v", c.id, err)
			return
		}
		if t == wire.TypeQuit {
			return
		}
	}
}

// teardown cancels in-flight ops, waits for their goroutines, and
// closes the session — releasing every snapshot and job the
// connection held.
func (c *conn) teardown() {
	c.cancel()
	c.wc.Close()
	c.opWG.Wait()
	if c.sess != nil {
		c.sess.Close()
	}
}

// handshake enforces Hello-first within the configured timeout.
func (c *conn) handshake() error {
	raw := c.wc.Raw()
	raw.SetReadDeadline(time.Now().Add(c.srv.cfg.HandshakeTimeout))
	defer raw.SetReadDeadline(time.Time{})

	t, payload, err := c.wc.Recv()
	if err != nil {
		return err
	}
	if t != wire.TypeHello {
		c.sendError(0, fmt.Errorf("%w: expected HELLO, got %v", dualtable.ErrProtocol, t))
		return fmt.Errorf("expected HELLO, got %v", t)
	}
	var hello wire.Hello
	if err := hello.Decode(payload); err != nil {
		c.sendError(0, fmt.Errorf("%w: %v", dualtable.ErrProtocol, err))
		return err
	}
	if hello.Proto != wire.ProtoVersion {
		err := fmt.Errorf("%w: protocol version %d not supported (server speaks %d)",
			dualtable.ErrProtocol, hello.Proto, wire.ProtoVersion)
		c.sendError(0, err)
		return err
	}
	if auth := c.srv.cfg.Auth; auth != nil {
		if err := auth(hello.User, hello.Token); err != nil {
			c.sendError(0, err)
			return err
		}
	}
	c.tenant = hello.Tenant
	if c.tenant == "" {
		c.tenant = hello.User
	}
	if c.tenant == "" {
		c.tenant = "default"
	}
	c.gate = c.srv.gates.forTenant(c.tenant)
	c.sess = c.srv.db.Session()
	c.id = c.srv.nextSession.Add(1)
	ok := wire.HelloOK{Proto: wire.ProtoVersion, Server: serverName(), SessionID: c.id}
	return c.wc.Send(wire.TypeHelloOK, ok.Encode())
}

// dispatch routes one frame. A returned error is a protocol violation
// that drops the connection; statement-level errors are sent as error
// frames instead.
func (c *conn) dispatch(t wire.Type, payload []byte) error {
	switch t {
	case wire.TypeSet:
		var m wire.Set
		if err := m.Decode(payload); err != nil {
			return err
		}
		if err := validateSetting(m.Key, m.Value); err != nil {
			c.sendError(0, err)
			return nil
		}
		if m.Value == "" {
			c.sess.Unset(m.Key)
		} else {
			c.sess.Set(m.Key, m.Value)
		}
		return c.wc.Send(wire.TypeOK, (&wire.OK{}).Encode())

	case wire.TypeReset:
		var m wire.OK
		if err := m.Decode(payload); err != nil {
			return err
		}
		c.sess.ResetVars()
		return c.wc.Send(wire.TypeOK, (&wire.OK{OpID: m.OpID}).Encode())

	case wire.TypePing:
		var m wire.OK
		if err := m.Decode(payload); err != nil {
			return err
		}
		return c.wc.Send(wire.TypeOK, (&wire.OK{OpID: m.OpID}).Encode())

	case wire.TypePrepare:
		var m wire.Prepare
		if err := m.Decode(payload); err != nil {
			return err
		}
		if m.StmtID == 0 {
			return fmt.Errorf("PREPARE with reserved stmt id 0")
		}
		st, err := c.sess.Prepare(m.SQL)
		if err != nil {
			c.sendError(m.StmtID, err)
			return nil
		}
		c.mu.Lock()
		c.stmts[m.StmtID] = st
		c.mu.Unlock()
		ok := wire.PrepareOK{StmtID: m.StmtID, NumParams: uint32(st.NumParams())}
		return c.wc.Send(wire.TypePrepareOK, ok.Encode())

	case wire.TypeCloseStmt:
		var m wire.CloseStmt
		if err := m.Decode(payload); err != nil {
			return err
		}
		c.mu.Lock()
		if st, ok := c.stmts[m.StmtID]; ok {
			st.Close()
			delete(c.stmts, m.StmtID)
		}
		c.mu.Unlock()
		return nil // fire-and-forget

	case wire.TypeExec:
		var m wire.Exec
		if err := m.Decode(payload); err != nil {
			return err
		}
		op, err := c.registerOp(m.OpID)
		if err != nil {
			return err
		}
		c.opWG.Add(1)
		go func() {
			defer c.opWG.Done()
			reply := c.runExec(op, &m)
			c.unregisterOp(m.OpID)
			c.sendReply(reply)
		}()
		return nil

	case wire.TypeQuery:
		var m wire.Query
		if err := m.Decode(payload); err != nil {
			return err
		}
		op, err := c.registerOp(m.OpID)
		if err != nil {
			return err
		}
		c.opWG.Add(1)
		go func() {
			defer c.opWG.Done()
			reply := c.runQuery(op, &m)
			c.unregisterOp(m.OpID)
			c.sendReply(reply)
		}()
		return nil

	case wire.TypeFetch:
		var m wire.Fetch
		if err := m.Decode(payload); err != nil {
			return err
		}
		c.mu.Lock()
		op := c.ops[m.OpID]
		c.mu.Unlock()
		if op != nil {
			select {
			case op.credits <- m.Credits:
			default: // credit buffer full: the op is far behind anyway
			}
		}
		return nil // unknown op: finished already, drop silently

	case wire.TypeCancel, wire.TypeCloseQuery:
		// Both abort an in-flight op; CloseQuery is the explicit
		// client-side Rows.Close, Cancel the context path.
		var m wire.Cancel
		if err := m.Decode(payload); err != nil {
			return err
		}
		c.mu.Lock()
		op := c.ops[m.OpID]
		c.mu.Unlock()
		if op != nil {
			op.cancel()
		}
		return nil

	case wire.TypeQuit:
		return nil

	default:
		return fmt.Errorf("unexpected frame %v", t)
	}
}

func (c *conn) registerOp(opID uint64) (*activeOp, error) {
	opCtx, cancel := context.WithCancel(c.ctx)
	op := &activeOp{ctxVal: opCtx, cancel: cancel, credits: make(chan uint32, 128)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.ops[opID]; dup {
		cancel()
		return nil, fmt.Errorf("duplicate op id %d", opID)
	}
	c.ops[opID] = op
	return op, nil
}

func (c *conn) unregisterOp(opID uint64) {
	c.mu.Lock()
	op := c.ops[opID]
	delete(c.ops, opID)
	c.mu.Unlock()
	if op != nil {
		op.cancel()
	}
	// An op just retired means the client was (legitimately) waiting
	// on it; reset the idle clock so the reaper gives it a fresh grace
	// period to send its next request.
	c.lastActive.Store(time.Now().UnixNano())
}

func (c *conn) activeOpCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// opReply is the one frame that ends an op: Result or QueryEnd, or an
// Error. An op's life has five steps, in this order:
//
//   - admit: dispatch registers the op id in c.ops, and runExec or
//     runQuery takes an activeOps count and a gate slot;
//   - execute: the statement runs and the reply is built;
//   - retire: runExec's or runQuery's defers close the rows (dropping
//     snapshot pins), release the gate slot and the activeOps count;
//   - unregister: the op id leaves c.ops, so Fetch and Cancel frames
//     for it are dropped and the id may be reused;
//   - reply: the frame is sent, and the result bytes it reserved on
//     the tenant's gate are released.
//
// A client that has read the reply therefore sees the op gone from
// every count and list, and its next statement can never race the
// previous op's retirement. The zero value sends nothing (the peer is
// already gone).
type opReply struct {
	typ      wire.Type
	payload  []byte
	reserved int64 // tenant result-memory bytes held until the send returns
}

func errorReply(opID uint64, err error) opReply {
	ef := wire.ErrorFrame{OpID: opID, Code: uint32(dualtable.CodeOf(err)), Msg: err.Error()}
	return opReply{typ: wire.TypeError, payload: ef.Encode()}
}

// sendReply delivers a retired op's final frame; delivery is
// best-effort (the peer may already be gone).
func (c *conn) sendReply(r opReply) {
	if r.payload == nil {
		return
	}
	err := c.wc.Send(r.typ, r.payload)
	if r.reserved > 0 { // error replies also leave before the handshake set c.gate
		c.gate.releaseBytes(r.reserved)
	}
	if err != nil {
		c.srv.logf("conn %d: send %v: %v", c.id, r.typ, err)
	}
}

// recoverOpPanic turns a panicking statement into an Error reply on
// its op instead of a dead process. Deferred first in runExec/runQuery so
// it runs after the gate and counter defers — a panicked op must not
// leak its admission slot or wedge the activeOps count.
func (c *conn) recoverOpPanic(opID uint64, reply *opReply) {
	if r := recover(); r != nil {
		c.srv.logf("conn %d: op %d panic: %v", c.id, opID, r)
		*reply = errorReply(opID, fmt.Errorf("internal error: %v", r))
	}
}

// errDraining is the rejection handed to statements arriving during a
// graceful shutdown; it carries the busy code, which retry-enabled
// clients treat as transient.
func errDraining() error {
	return fmt.Errorf("%w: server draining", dualtable.ErrServerBusy)
}

// parseTimeout parses a statement.timeout value: a non-negative Go
// duration string; "" and "0" mean no session deadline.
func parseTimeout(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid statement.timeout %q: want a non-negative Go duration (e.g. \"500ms\")", v)
	}
	return d, nil
}

// validateSetting rejects SET values the serving layer itself
// interprets — storing a malformed statement.timeout would fail every
// later statement on the session, so it is refused up front.
func validateSetting(key, value string) error {
	if key == hive.VarStatementTimeout && value != "" {
		_, err := parseTimeout(value)
		return err
	}
	return nil
}

// sessionControlOnly reports whether every statement of a script is a
// SET, by the lexer alone: a script that does not parse runs nothing.
// Session-control statements are exempt from the session deadline: a
// statement.timeout short enough to kill the very SET that would raise
// it would otherwise brick the session permanently (the wire-level Set
// frame already bypasses the deadline; SQL-level SET must behave the
// same).
func sessionControlOnly(sql string) bool {
	only := false
	err := sqlparser.StatementHeads(sql, func(head string) bool {
		only = head == "SET"
		return only
	})
	return err == nil && only
}

// statementCtx derives a statement's execution context from its op
// context: the session's statement.timeout overrides the server
// default, and the server max (when set) clamps the result — a
// session may lower its deadline but never escape the cap, including
// by disabling it. The returned cancel must always be called.
func (c *conn) statementCtx(parent context.Context) (context.Context, context.CancelFunc, error) {
	d := c.srv.cfg.DefaultStatementTimeout
	if v, ok := c.sess.Setting(hive.VarStatementTimeout); ok {
		pd, err := parseTimeout(v)
		if err != nil {
			return nil, nil, err
		}
		d = pd
	}
	if max := c.srv.cfg.MaxStatementTimeout; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	if d <= 0 {
		return parent, func() {}, nil
	}
	cause := fmt.Errorf("%w: statement exceeded %v", dualtable.ErrStatementTimeout, d)
	ctx, cancel := context.WithTimeoutCause(parent, d, cause)
	return ctx, cancel, nil
}

// statementErr substitutes the typed cancellation cause when a
// statement died to its deadline: the engine reports a bare
// context.DeadlineExceeded, but the wire error must say why —
// statement timeout, not generic cancellation.
func statementErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		if cause := context.Cause(ctx); cause != nil &&
			!errors.Is(cause, context.Canceled) && !errors.Is(cause, context.DeadlineExceeded) {
			return cause
		}
	}
	return err
}

// runExec executes a statement to completion and returns its one
// Result or Error frame. Its defers retire the op, so the caller sends
// the reply after retirement.
func (c *conn) runExec(op *activeOp, m *wire.Exec) (reply opReply) {
	defer c.recoverOpPanic(m.OpID, &reply)
	if c.srv.draining.Load() {
		return errorReply(m.OpID, errDraining())
	}
	c.srv.activeOps.Add(1)
	defer c.srv.activeOps.Add(-1)
	ctx, cancel := op.ctxVal, context.CancelFunc(func() {})
	if m.StmtID != 0 || !sessionControlOnly(m.SQL) {
		var err error
		ctx, cancel, err = c.statementCtx(op.ctxVal)
		if err != nil {
			return errorReply(m.OpID, err)
		}
	}
	defer cancel()
	if err := c.gate.acquire(ctx); err != nil {
		return errorReply(m.OpID, statementErr(ctx, err))
	}
	defer c.gate.release()

	rs, err := c.execStatement(ctx, m)
	if err != nil {
		return errorReply(m.OpID, statementErr(ctx, err))
	}
	res := wire.Result{OpID: m.OpID}
	if rs != nil {
		res.Columns = rs.Columns
		res.Rows = rs.Rows
		res.Affected = rs.Affected
		res.SimSeconds = rs.SimSeconds
		res.Plan = rs.Plan
	}
	if max := c.srv.cfg.MaxRowsPerStatement; max > 0 && int64(len(res.Rows)) > max {
		return errorReply(m.OpID, fmt.Errorf("%w: statement returned %d rows (per-statement cap %d)",
			dualtable.ErrQuotaExceeded, len(res.Rows), max))
	}
	payload := res.Encode()
	if max := c.srv.cfg.MaxBytesPerStatement; max > 0 && int64(len(payload)) > max {
		return errorReply(m.OpID, fmt.Errorf("%w: result is %d bytes (per-statement cap %d)",
			dualtable.ErrQuotaExceeded, len(payload), max))
	}
	if err := c.gate.reserveBytes(int64(len(payload))); err != nil {
		return errorReply(m.OpID, err)
	}
	return opReply{typ: wire.TypeResult, payload: payload, reserved: int64(len(payload))}
}

func (c *conn) execStatement(ctx context.Context, m *wire.Exec) (*dualtable.ResultSet, error) {
	if h := c.srv.execHook; h != nil {
		h(m.SQL)
	}
	args := datumArgs(m.Args)
	switch {
	case m.StmtID != 0:
		st, err := c.stmt(m.StmtID)
		if err != nil {
			return nil, err
		}
		return st.ExecContext(ctx, args...)
	case len(args) > 0:
		st, err := c.sess.Prepare(m.SQL)
		if err != nil {
			return nil, err
		}
		return st.ExecContext(ctx, args...)
	default:
		// Scripts (semicolon-separated) and single statements share
		// this path; the last statement's result is returned.
		return c.sess.ExecScriptContext(ctx, m.SQL)
	}
}

// runQuery streams a SELECT: RowHeader, then RowBatch frames under
// credit-based flow control, then QueryEnd (clean, failed or
// canceled — the stream always terminates with QueryEnd once the
// header went out). The terminating frame is returned, not sent: the
// function's defers retire the op first, so snapshot pins are back
// before the client sees end-of-stream.
func (c *conn) runQuery(op *activeOp, m *wire.Query) (reply opReply) {
	defer c.recoverOpPanic(m.OpID, &reply)
	if c.srv.draining.Load() {
		return errorReply(m.OpID, errDraining())
	}
	c.srv.activeOps.Add(1)
	defer c.srv.activeOps.Add(-1)
	ctx, cancel, err := c.statementCtx(op.ctxVal)
	if err != nil {
		return errorReply(m.OpID, err)
	}
	defer cancel()
	if err := c.gate.acquire(ctx); err != nil {
		return errorReply(m.OpID, statementErr(ctx, err))
	}
	defer c.gate.release()

	rows, err := c.queryStatement(ctx, m)
	if err != nil {
		return errorReply(m.OpID, statementErr(ctx, err))
	}
	defer rows.Close()

	hdr := wire.RowHeader{OpID: m.OpID, Columns: rows.Columns()}
	if err := c.wc.Send(wire.TypeRowHeader, hdr.Encode()); err != nil {
		return opReply{}
	}

	credits := int64(m.Window)
	if credits < 1 {
		credits = 1
	}
	batchCap := c.srv.cfg.BatchRows
	maxRows := c.srv.cfg.MaxRowsPerStatement
	maxBytes := c.srv.cfg.MaxBytesPerStatement
	progress := c.srv.cfg.ProgressTimeout
	var sentRows, sentBytes int64
	var payload []byte // the statement's encode buffer, reused frame after frame
	// The progress watchdog: a client that neither grants credits nor
	// cancels is reaped so its op stops pinning snapshots and memory.
	// One timer per statement, rearmed for each wait.
	var watchdog *time.Timer
	defer func() {
		if watchdog != nil {
			watchdog.Stop()
		}
	}()
	// send streams rows [from, to) of b as one RowBatch frame, for one
	// credit.
	send := func(b *datum.Batch, from, to int) error {
		for credits == 0 {
			var fired <-chan time.Time
			if progress > 0 {
				if watchdog == nil {
					watchdog = time.NewTimer(progress)
				} else {
					watchdog.Reset(progress) // drops a fire from an earlier wait
				}
				fired = watchdog.C
			}
			select {
			case n := <-op.credits:
				credits += int64(n)
			case <-ctx.Done():
				return ctx.Err()
			case <-fired:
				return fmt.Errorf("%w: no flow-control credits granted in %v",
					dualtable.ErrSlowClient, progress)
			}
		}
		credits--
		sentRows += int64(to - from)
		if maxRows > 0 && sentRows > maxRows {
			return fmt.Errorf("%w: statement streamed more than %d rows (per-statement cap)",
				dualtable.ErrQuotaExceeded, maxRows)
		}
		payload = wire.AppendRowBatch(payload[:0], m.OpID, b, from, to)
		sentBytes += int64(len(payload))
		if maxBytes > 0 && sentBytes > maxBytes {
			return fmt.Errorf("%w: statement streamed more than %d bytes (per-statement cap)",
				dualtable.ErrQuotaExceeded, maxBytes)
		}
		if err := c.gate.reserveBytes(int64(len(payload))); err != nil {
			return err
		}
		err := c.wc.Send(wire.TypeRowBatch, payload)
		c.gate.releaseBytes(int64(len(payload)))
		return err
	}

	// Every frame but a result's last carries exactly batchCap rows. A
	// batch that long is cut into frames where it lies; what is left of
	// it, and every smaller batch — the few rows each split of a
	// selective scan yields — is gathered in pending, so that a small
	// result is one frame and one credit however many splits it came
	// from.
	var pending datum.Batch
	var streamErr error
	for streamErr == nil {
		b := rows.NextBatch()
		if b == nil {
			break
		}
		from := 0
		for pending.Len == 0 && b.Len-from >= batchCap && streamErr == nil {
			streamErr = send(b, from, from+batchCap)
			from += batchCap
		}
		for from < b.Len && streamErr == nil {
			if pending.Len == 0 {
				pending.Reset(len(b.Cols), 0)
			}
			to := min(b.Len, from+batchCap-pending.Len)
			pending.Append(b, from, to)
			from = to
			if pending.Len == batchCap {
				streamErr = send(&pending, 0, batchCap)
				pending.Truncate(0)
			}
		}
	}
	if streamErr == nil {
		streamErr = rows.Err()
	}
	if streamErr == nil && pending.Len > 0 {
		streamErr = send(&pending, 0, pending.Len)
	}
	if streamErr == nil && ctx.Err() != nil {
		streamErr = ctx.Err()
	}
	streamErr = statementErr(ctx, streamErr)
	end := wire.QueryEnd{OpID: m.OpID, SimSeconds: rows.SimSeconds()}
	if streamErr != nil {
		end.Code = uint32(dualtable.CodeOf(streamErr))
		end.Msg = streamErr.Error()
	}
	return opReply{typ: wire.TypeQueryEnd, payload: end.Encode()}
}

func (c *conn) queryStatement(ctx context.Context, m *wire.Query) (*dualtable.Rows, error) {
	if h := c.srv.execHook; h != nil {
		h(m.SQL)
	}
	args := datumArgs(m.Args)
	switch {
	case m.StmtID != 0:
		st, err := c.stmt(m.StmtID)
		if err != nil {
			return nil, err
		}
		return st.QueryContext(ctx, args...)
	case len(args) > 0:
		st, err := c.sess.Prepare(m.SQL)
		if err != nil {
			return nil, err
		}
		return st.QueryContext(ctx, args...)
	default:
		return c.sess.QueryContext(ctx, m.SQL)
	}
}

func (c *conn) stmt(id uint64) (*dualtable.Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stmts[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown prepared statement %d", dualtable.ErrProtocol, id)
	}
	return st, nil
}

// sendError reports a failed request with its stable code.
func (c *conn) sendError(opID uint64, err error) { c.sendReply(errorReply(opID, err)) }

// datumArgs widens wire datums to the session API's any-args.
func datumArgs(ds []datum.Datum) []any {
	if len(ds) == 0 {
		return nil
	}
	out := make([]any, len(ds))
	for i, d := range ds {
		out[i] = d
	}
	return out
}
