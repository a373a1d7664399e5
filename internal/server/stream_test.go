package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/wire"
)

// readStream reads one query's response stream off a raw connection
// without granting a credit: the row count of every RowBatch frame, in
// order, and the terminating QueryEnd.
func readStream(t *testing.T, nc net.Conn, opID uint64) (frames []int, end wire.QueryEnd) {
	t.Helper()
	for {
		ft, payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		switch ft {
		case wire.TypeRowHeader:
		case wire.TypeRowBatch:
			var b datum.Batch
			op, err := wire.DecodeRowBatch(payload, &b)
			if err != nil || op != opID {
				t.Fatalf("RowBatch for op %d: %v", op, err)
			}
			frames = append(frames, b.Len)
		case wire.TypeQueryEnd:
			if err := end.Decode(payload); err != nil {
				t.Fatal(err)
			}
			return frames, end
		default:
			t.Fatalf("unexpected %v in query stream", ft)
		}
	}
}

// TestStreamCoalescesSplitsIntoFrames: the engine hands the server one
// batch per split, and the server frames rows, not batches. A 48-row
// result that 8 splits produced is one RowBatch frame for one credit
// (window 1, no Fetch: a second frame would never leave), and a result
// longer than BatchRows is cut into frames of exactly BatchRows, whatever
// the sizes of the batches it arrived in.
func TestStreamCoalescesSplitsIntoFrames(t *testing.T) {
	s := newTestServer(t, Config{ProgressTimeout: 2 * time.Second})
	nc := dialRaw(t, s)
	handshake(t, nc)
	var script strings.Builder
	script.WriteString("CREATE TABLE sp (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	for f := 0; f < 8; f++ { // one master file, and so one split, per INSERT
		script.WriteString("; INSERT INTO sp VALUES ")
		for i := 0; i < 6; i++ {
			if i > 0 {
				script.WriteString(", ")
			}
			fmt.Fprintf(&script, "(%d, %d.5)", f*6+i, i)
		}
	}
	sendExec(t, nc, 1, script.String())
	readResult(t, nc, 1)
	desc, err := s.db.Engine.MS.Get("sp")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.db.Handler.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	files := len(snap.Files())
	snap.Release()
	if files != 8 {
		t.Fatalf("the table has %d master files, want 8 (one split each)", files)
	}

	q := wire.Query{OpID: 2, SQL: "SELECT id, v FROM sp WHERE v >= 0", Window: 1}
	if err := wire.WriteFrame(nc, wire.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	frames, end := readStream(t, nc, 2)
	if end.Code != 0 {
		t.Fatalf("stream ended with code %d: %s", end.Code, end.Msg)
	}
	if len(frames) != 1 || frames[0] != 48 {
		t.Fatalf("48 rows from 8 splits arrived as frames of %v rows, want one of 48", frames)
	}

	// The same 8 batches of 6 through a server whose BatchRows is 4.
	s4 := newTestServer(t, Config{BatchRows: 4})
	nc4 := dialRaw(t, s4)
	handshake(t, nc4)
	sendExec(t, nc4, 1, script.String())
	readResult(t, nc4, 1)
	q = wire.Query{OpID: 2, SQL: "SELECT id, v FROM sp WHERE id < 45", Window: 1000}
	if err := wire.WriteFrame(nc4, wire.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	frames, end = readStream(t, nc4, 2)
	if end.Code != 0 {
		t.Fatalf("stream ended with code %d: %s", end.Code, end.Msg)
	}
	if len(frames) != 12 {
		t.Fatalf("45 rows at BatchRows 4 arrived as %d frames %v, want 12", len(frames), frames)
	}
	for i, n := range frames {
		if want := min(4, 45-4*i); n != want {
			t.Fatalf("frame %d carries %d rows, want %d (%v)", i, n, want, frames)
		}
	}
}

// TestStreamCapsAndWatchdogAtFrameBoundaries: the per-statement row cap,
// the credit window and the progress watchdog act on frames exactly as
// they did when the server framed rows it pulled one by one — the cap
// refuses the frame that would cross it, a stream out of credits sends
// nothing more, and the watchdog ends it.
func TestStreamCapsAndWatchdogAtFrameBoundaries(t *testing.T) {
	s := newTestServer(t, Config{BatchRows: 4, MaxRowsPerStatement: 10, ProgressTimeout: 100 * time.Millisecond})
	nc := dialRaw(t, s)
	handshake(t, nc)
	seedRows(t, s, nc, "cap", 50)

	q := wire.Query{OpID: 2, SQL: "SELECT id, v FROM cap", Window: 1000}
	if err := wire.WriteFrame(nc, wire.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	frames, end := readStream(t, nc, 2)
	if dualtable.ErrCode(end.Code) != dualtable.CodeQuotaExceeded || len(frames) != 2 || frames[0] != 4 || frames[1] != 4 {
		t.Fatalf("cap of 10 rows at 4 a frame: frames %v, end code %d; want two frames of 4 and CodeQuotaExceeded", frames, end.Code)
	}

	q = wire.Query{OpID: 3, SQL: "SELECT id, v FROM cap LIMIT 9", Window: 2}
	if err := wire.WriteFrame(nc, wire.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	frames, end = readStream(t, nc, 3)
	if dualtable.ErrCode(end.Code) != dualtable.CodeSlowClient || len(frames) != 2 {
		t.Fatalf("window of 2 and no Fetch: frames %v, end code %d; want two frames and CodeSlowClient", frames, end.Code)
	}
	ping(t, nc)
}
