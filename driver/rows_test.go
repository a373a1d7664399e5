package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dualtable/driver"
	"dualtable/internal/server"
)

// TestStreamedValuesKeepTheirTypes: every kind, NULL, and a column whose
// rows do not share a kind arrive as the driver.Value they always were
// (int64, float64, string, bool, nil), across several frames.
func TestStreamedValuesKeepTheirTypes(t *testing.T) {
	_, _, addr := startServer(t, server.Config{BatchRows: 4})
	db := openSQL(t, addr, "")
	if _, err := db.Exec(`CREATE TABLE kinds (id BIGINT, f DOUBLE, s STRING, b BOOLEAN) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < 10; i++ {
		switch i % 5 {
		case 3:
			vals = append(vals, fmt.Sprintf("(%d, NULL, NULL, NULL)", i))
		case 4:
			vals = append(vals, fmt.Sprintf("(%d, %d.25, '', false)", i, i))
		default:
			vals = append(vals, fmt.Sprintf("(%d, %d.5, 'row-%d', true)", i, i, i))
		}
	}
	if _, err := db.Exec(`INSERT INTO kinds VALUES ` + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT id, f, s, b, CASE WHEN id < 5 THEN id ELSE s END, NULL FROM kinds`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := map[int64][]any{}
	for rows.Next() {
		row := make([]any, 6)
		ptrs := make([]any, len(row))
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		got[row[0].(int64)] = row
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("streamed %d rows, want 10", len(got))
	}
	for i := int64(0); i < 10; i++ {
		var want []any
		switch i % 5 {
		case 3:
			want = []any{i, nil, nil, nil, nil, nil}
		case 4:
			want = []any{i, float64(i) + 0.25, "", false, "", nil}
		default:
			want = []any{i, float64(i) + 0.5, fmt.Sprintf("row-%d", i), true, fmt.Sprintf("row-%d", i), nil}
		}
		if i < 5 {
			want[4] = i // the CASE's integer branch
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("row %d = %#v, want %#v", i, got[i], want)
		}
	}
}

// TestStreamedStringsOutliveTheirFrame: the driver decodes every frame
// over the column buffers of the last one, so what Scan handed out of
// frame k must not change when frame k+1 arrives.
func TestStreamedStringsOutliveTheirFrame(t *testing.T) {
	_, _, addr := startServer(t, server.Config{BatchRows: 8})
	db := openSQL(t, addr, "")
	if _, err := db.Exec(`CREATE TABLE strs (id BIGINT, s STRING) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	const n = 100
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, 'value-%03d-%s')", i, i, strings.Repeat("x", i%7))
	}
	if _, err := db.Exec(`INSERT INTO strs VALUES ` + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT id, s FROM strs`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	kept := make([]string, n) // every string held until the stream is over
	seen := 0
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id, &kept[seen]); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("value-%03d-%s", id, strings.Repeat("x", int(id)%7)); kept[seen] != want {
			t.Fatalf("row %d scanned %q, want %q", id, kept[seen], want)
		}
		seen++
	}
	if err := rows.Err(); err != nil || seen != n {
		t.Fatalf("streamed %d rows, err %v", seen, err)
	}
	ids := map[string]bool{}
	for _, s := range kept {
		var id int
		if _, err := fmt.Sscanf(s, "value-%03d-", &id); err != nil || s != fmt.Sprintf("value-%03d-%s", id, strings.Repeat("x", id%7)) {
			t.Fatalf("a string kept from an earlier frame now reads %q", s)
		}
		ids[s] = true
	}
	if len(ids) != n {
		t.Fatalf("%d distinct strings kept, want %d", len(ids), n)
	}
}

// failingWrites is a conn whose writes fail once armed.
type failingWrites struct {
	net.Conn
	armed *atomic.Bool
}

func (c failingWrites) Write(p []byte) (int, error) {
	if c.armed.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestFailedCreditGrantEndsTheStream: a credit grant that cannot be
// written leaves the server waiting for the credit and the client for the
// next frame. Next must report it on the frame whose grant failed — not
// deliver that frame and then block — and the connection must not go back
// to the pool.
func TestFailedCreditGrantEndsTheStream(t *testing.T) {
	_, _, addr := startServer(t, server.Config{BatchRows: 4})
	setup := openSQL(t, addr, "")
	if _, err := setup.Exec(`CREATE TABLE cg (id BIGINT) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(`INSERT INTO cg VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10)`); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	db := sql.OpenDB(driver.NewConnector(driver.Config{Addr: addr, Retries: -1, Window: 1,
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return failingWrites{c, &armed}, nil
		}}))
	defer db.Close()
	rows, err := db.Query(`SELECT id FROM cg`)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true) // the query and its header are through; the grants are not
	if rows.Next() {
		t.Error("Next delivered a row of the frame whose credit grant failed")
	}
	if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "grant stream credit") {
		t.Errorf("Err = %v, want the failed credit grant", err)
	}
	rows.Close()
	if open := db.Stats().OpenConnections; open != 0 {
		t.Errorf("%d connections still open: the broken one went back to the pool", open)
	}
}
