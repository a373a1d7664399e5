package server

import (
	"net"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dualtable"
	"dualtable/internal/wire"
)

// sendExec fires an Exec frame; the caller reads the response.
func sendExec(t *testing.T, nc net.Conn, opID uint64, sql string) {
	t.Helper()
	m := wire.Exec{OpID: opID, SQL: sql}
	if err := wire.WriteFrame(nc, wire.TypeExec, m.Encode()); err != nil {
		t.Fatal(err)
	}
}

// readResult expects a TypeResult frame for opID.
func readResult(t *testing.T, nc net.Conn, opID uint64) {
	t.Helper()
	ft, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if ft != wire.TypeError && ft != wire.TypeResult {
		t.Fatalf("expected RESULT, got %v", ft)
	}
	if ft == wire.TypeError {
		var ef wire.ErrorFrame
		ef.Decode(payload)
		t.Fatalf("expected RESULT, got error %q", ef.Msg)
	}
	var res wire.Result
	if err := res.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if res.OpID != opID {
		t.Fatalf("result for op %d, want %d", res.OpID, opID)
	}
}

// TestShutdownWaitsForInFlight drains while one statement is running;
// the statement finishes inside the deadline and counts as Finished.
func TestShutdownWaitsForInFlight(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{})
	s.execHook = func(sql string) {
		if strings.Contains(sql, "tb_block") {
			<-release
		}
	}

	nc := dialRaw(t, s)
	handshake(t, nc)
	sendExec(t, nc, 1, "CREATE TABLE tb_block (id BIGINT) STORED AS DUALTABLE")
	waitFor(t, func() bool { return s.Stats().ActiveOps == 1 })

	// Unblock the statement shortly after the drain begins.
	go func() {
		for !s.draining.Load() {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	ds := s.Shutdown(5 * time.Second)
	if ds.Finished != 1 || ds.HardCancelled != 0 {
		t.Fatalf("drain stats = %+v, want Finished=1 HardCancelled=0", ds)
	}
	readResult(t, nc, 1) // the in-flight statement completed and answered
}

// TestShutdownHardCancelsStragglers drains with a credit-starved query
// in flight: it can never finish without Fetch frames, so the deadline
// passes and the op is cancelled via its context.
func TestShutdownHardCancelsStragglers(t *testing.T) {
	s := newTestServer(t, Config{BatchRows: 1})
	nc := dialRaw(t, s)
	handshake(t, nc)
	sendExec(t, nc, 1,
		"CREATE TABLE ts (id BIGINT) STORED AS DUALTABLE; "+
			"INSERT INTO ts VALUES (1), (2), (3), (4), (5)")
	readResult(t, nc, 1)

	// Window 1, five one-row batches, no Fetch ever sent: the op wedges
	// in flow control after the first batch.
	q := wire.Query{OpID: 2, SQL: "SELECT id FROM ts", Window: 1}
	if err := wire.WriteFrame(nc, wire.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().ActiveOps == 1 })

	start := time.Now()
	ds := s.Shutdown(150 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("Shutdown returned in %v, before the drain deadline", elapsed)
	}
	if ds.HardCancelled != 1 || ds.Finished != 0 {
		t.Fatalf("drain stats = %+v, want Finished=0 HardCancelled=1", ds)
	}
}

// TestDrainingRejectsNewStatements verifies statements arriving during
// a drain are shed with the typed busy code — retryable by clients —
// while the in-flight statement still completes.
func TestDrainingRejectsNewStatements(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{})
	s.execHook = func(sql string) {
		if strings.Contains(sql, "tb_block") {
			<-release
		}
	}

	ncA := dialRaw(t, s)
	handshake(t, ncA)
	ncB := dialRaw(t, s)
	handshake(t, ncB)

	sendExec(t, ncA, 1, "CREATE TABLE tb_block (id BIGINT) STORED AS DUALTABLE")
	waitFor(t, func() bool { return s.Stats().ActiveOps == 1 })

	done := make(chan DrainStats, 1)
	go func() { done <- s.Shutdown(5 * time.Second) }()
	waitFor(t, func() bool { return s.draining.Load() })

	// A statement on the still-open second connection is rejected.
	sendExec(t, ncB, 7, "CREATE TABLE t2 (id BIGINT) STORED AS DUALTABLE")
	if code := readError(t, ncB); code != dualtable.CodeOf(dualtable.ErrServerBusy) {
		t.Fatalf("draining rejection code = %v, want server-busy", code)
	}

	close(release)
	ds := <-done
	if ds.Finished != 1 || ds.HardCancelled != 0 {
		t.Fatalf("drain stats = %+v, want Finished=1 HardCancelled=0", ds)
	}
	readResult(t, ncA, 1)
}

// TestOpPanicAnswersErrorFrame: a panicking statement must produce an
// Error frame on its op and leave the connection (and process) alive.
func TestOpPanicAnswersErrorFrame(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execHook = func(sql string) {
		if strings.Contains(sql, "tb_boom") {
			panic("injected statement panic")
		}
	}
	nc := dialRaw(t, s)
	handshake(t, nc)

	sendExec(t, nc, 3, "CREATE TABLE tb_boom (id BIGINT) STORED AS DUALTABLE")
	ft, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if ft != wire.TypeError {
		t.Fatalf("expected ERROR frame after panic, got %v", ft)
	}
	var ef wire.ErrorFrame
	if err := ef.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if ef.OpID != 3 || !strings.Contains(ef.Msg, "internal error") {
		t.Fatalf("panic error frame = %+v", ef)
	}

	// The gate slot and activeOps counter were not leaked and the
	// connection still serves.
	if n := s.Stats().ActiveOps; n != 0 {
		t.Fatalf("ActiveOps = %d after the error reply, want 0", n)
	}
	ping(t, nc)
	sendExec(t, nc, 4, "CREATE TABLE tb_fine (id BIGINT) STORED AS DUALTABLE")
	readResult(t, nc, 4)
}

// TestQueryPanicAnswersErrorFrame covers the query path too.
func TestQueryPanicAnswersErrorFrame(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execHook = func(sql string) {
		if strings.Contains(sql, "tb_boom") {
			panic("injected query panic")
		}
	}
	nc := dialRaw(t, s)
	handshake(t, nc)
	q := wire.Query{OpID: 9, SQL: "SELECT id FROM tb_boom", Window: 1}
	if err := wire.WriteFrame(nc, wire.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	if code := readError(t, nc); code != dualtable.CodeOf(nil) {
		// Any code is acceptable; the point is an Error frame arrived.
		_ = code
	}
	ping(t, nc)
}

// TestOpIDFreeOnReply: an op leaves the connection's op table before
// its reply is sent, so a client may reuse the id the moment it reads
// the reply. A reuse that raced the retirement would be a duplicate op
// id, which drops the connection.
func TestOpIDFreeOnReply(t *testing.T) {
	s := newTestServer(t, Config{})
	nc := dialRaw(t, s)
	handshake(t, nc)
	sendExec(t, nc, 9, "CREATE TABLE tb_reuse (id BIGINT) STORED AS DUALTABLE")
	readResult(t, nc, 9)
	for i := 0; i < 50; i++ {
		sendExec(t, nc, 9, "SELECT COUNT(*) FROM tb_reuse")
		readResult(t, nc, 9)
	}
}

// TestIdleReaper closes silent connections but spares one with an op
// in flight, however long the client stays quiet.
func TestIdleReaper(t *testing.T) {
	release := make(chan struct{})
	var blocked atomic.Bool
	s := newTestServer(t, Config{IdleTimeout: 80 * time.Millisecond})
	s.execHook = func(sql string) {
		if strings.Contains(sql, "tb_block") {
			blocked.Store(true)
			<-release
		}
	}

	idle := dialRaw(t, s)
	handshake(t, idle)
	busy := dialRaw(t, s)
	handshake(t, busy)
	sendExec(t, busy, 1, "CREATE TABLE tb_block (id BIGINT) STORED AS DUALTABLE")
	waitFor(t, func() bool { return blocked.Load() })

	// The idle connection is reaped...
	expectClosed(t, idle)
	waitFor(t, func() bool { return s.Stats().Conns == 1 })

	// ...while the busy one out-waits several idle periods.
	time.Sleep(250 * time.Millisecond)
	if got := s.Stats().Conns; got != 1 {
		t.Fatalf("busy connection reaped: %d conns live, want 1", got)
	}
	close(release)
	readResult(t, busy, 1)
	ping(t, busy)
}

// TestDeeplyNestedStatementAnswersError: a statement nested far past
// the parser's bound, sent as Exec, as Query, or after a SET (which is
// parsed before admission), gets an error reply, and the connection
// and server keep serving. Without the bound the parser or the
// engine's compiler overflowed the goroutine's stack, a fatal error no
// recover catches; the stack is capped at 64 MiB here so that failure
// shows at inputs of a few hundred kilobytes.
func TestDeeplyNestedStatementAnswersError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const n = 50_000
	deep := []string{
		"SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"SELECT " + strings.Repeat("NOT ", n) + "TRUE",
		"SELECT " + strings.Repeat("- ", n) + "1",
		"SELECT 1" + strings.Repeat("+1", n),
		"SELECT TRUE" + strings.Repeat(" OR TRUE", n),
		strings.Repeat("SELECT (", n) + "SELECT 1" + strings.Repeat(")", n),
		strings.Repeat("SELECT * FROM (", n) + "SELECT 1" + strings.Repeat(") d", n),
	}
	s := newTestServer(t, Config{})
	nc := dialRaw(t, s)
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	handshake(t, nc)
	expectNestingError := func(op uint64) {
		t.Helper()
		ft, payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		var ef wire.ErrorFrame
		if ft != wire.TypeError || ef.Decode(payload) != nil {
			t.Fatalf("op %d: got %v, want an ERROR frame", op, ft)
		}
		if ef.OpID != op || !strings.Contains(ef.Msg, "statement nests deeper than 1000 levels") {
			t.Fatalf("op %d: error frame %+v", op, ef)
		}
	}
	op := uint64(0)
	for _, sql := range deep {
		for _, text := range []string{sql, "SET a = 1; " + sql} {
			op++
			sendExec(t, nc, op, text)
			expectNestingError(op)
		}
		op++
		q := wire.Query{OpID: op, SQL: sql, Window: 1}
		if err := wire.WriteFrame(nc, wire.TypeQuery, q.Encode()); err != nil {
			t.Fatal(err)
		}
		expectNestingError(op)
		op++
		sendExec(t, nc, op, "SELECT 1")
		readResult(t, nc, op)
	}
}
