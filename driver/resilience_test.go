package driver_test

import (
	"context"
	sqldriver "database/sql/driver"
	"errors"
	"testing"
	"time"

	"dualtable"
	"dualtable/driver"
	"dualtable/internal/server"
)

// TestPooledConnSessionReset is the regression test for the pooled
// SET-state leak: a borrower that poisons its session (here with a
// 1ns statement timeout) must not hand that state to the next pool
// borrower. Before the RESET frame existed, the second borrow
// inherited the timeout and every statement on the pool failed.
func TestPooledConnSessionReset(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	db := openSQL(t, addr, "retries=0")
	db.SetMaxOpenConns(1) // force reuse of the one underlying conn
	ctx := context.Background()

	if _, err := db.Exec(`CREATE TABLE px (id BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO px VALUES (1, 1.0)`); err != nil {
		t.Fatal(err)
	}

	// A comment before the SET hides it from no one: the server runs
	// it, so the driver must reset it too.
	for _, set := range []string{
		`SET statement.timeout = '1ns'`,
		"-- note\nSET statement.timeout = '1ns'",
		`/* note */ SET statement.timeout = '1ns'`,
	} {
		t.Run(set, func(t *testing.T) {
			cn, err := db.Conn(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cn.ExecContext(ctx, set); err != nil {
				t.Fatal(err)
			}
			// Same borrow: the poisoned timeout applies (any statement
			// exceeds 1ns by the time the engine checks its deadline).
			var n int
			err = cn.QueryRowContext(ctx, `SELECT COUNT(*) FROM px`).Scan(&n)
			if !errors.Is(err, dualtable.ErrStatementTimeout) {
				t.Fatalf("same-borrow err = %v, want ErrStatementTimeout", err)
			}
			if err := cn.Close(); err != nil {
				t.Fatal(err)
			}

			// Next borrow reuses the same wire connection
			// (MaxOpenConns=1) but must see reset session state.
			if err := db.QueryRow(`SELECT COUNT(*) FROM px`).Scan(&n); err != nil {
				t.Fatalf("pooled reuse after reset: %v", err)
			}
			if n != 1 {
				t.Fatalf("count = %d, want 1", n)
			}
		})
	}
}

// TestDSNStatementTimeoutApplied checks the statement_timeout DSN key
// lands as server-side SET statement.timeout on every connection.
func TestDSNStatementTimeoutApplied(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	db := openSQL(t, addr, "statement_timeout=1ns&retries=0")
	_, err := db.Exec(`CREATE TABLE never (id BIGINT) STORED AS DUALTABLE`)
	if !errors.Is(err, dualtable.ErrStatementTimeout) {
		t.Fatalf("err = %v, want ErrStatementTimeout", err)
	}
}

// restartServer shuts srv down and starts a fresh server (over a fresh
// backing DB) on the same address, so pooled client connections go
// stale while the DSN keeps resolving.
func restartServer(t *testing.T, srv *server.Server, addr string) *server.Server {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	backing, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var srv2 *server.Server
	// The freed port can take a moment to rebind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv2 = server.New(backing, server.Config{Addr: addr})
		if _, err = srv2.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { srv2.Close() })
	return srv2
}

// TestPingHealsAfterServerRestart: Pinger is honored — a stale pooled
// connection fails its ping with ErrBadConn, database/sql removes it
// from the pool (per the Pinger contract the error is still returned),
// and the next ping dials fresh and reports healthy.
func TestPingHealsAfterServerRestart(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{})
	db := openSQL(t, addr, "retries=0")
	db.SetMaxOpenConns(1)
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	restartServer(t, srv, addr)
	if err := db.Ping(); err != nil && !errors.Is(err, sqldriver.ErrBadConn) {
		t.Fatalf("stale ping = %v, want nil or ErrBadConn", err)
	}
	if err := db.Ping(); err != nil {
		t.Fatalf("ping after pool retired stale conn = %v, want healthy", err)
	}
}

// TestRestartPoisonsStaleConns: a statement on a connection that went
// stale across a server restart either heals transparently (the send
// failed before the server saw a complete frame, so the pool safely
// retried on a fresh conn) or fails with the typed ErrResultUnknown —
// never a silent wrong answer, never a wedge. The next statement runs
// on a fresh connection and succeeds.
func TestRestartPoisonsStaleConns(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{})
	db := openSQL(t, addr, "retries=0")
	db.SetMaxOpenConns(1)
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	restartServer(t, srv, addr)

	_, err := db.Exec(`CREATE TABLE rs (id BIGINT) STORED AS DUALTABLE`)
	switch {
	case err == nil:
		// Send failed on the stale conn → ErrBadConn → pool retried on
		// a fresh conn against the new server.
	case errors.Is(err, driver.ErrResultUnknown):
		// Request was flushed before the stale conn collapsed; the
		// driver refuses to guess whether it executed.
	default:
		t.Fatalf("stale-conn exec err = %v, want nil or ErrResultUnknown", err)
	}

	// Either way the poisoned conn was retired: the pool serves the
	// next statement from a fresh connection.
	if _, err := db.Exec(`CREATE TABLE rs2 (id BIGINT) STORED AS DUALTABLE`); err != nil {
		t.Fatalf("post-restart exec on fresh conn: %v", err)
	}
}
