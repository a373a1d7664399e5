package driver

import (
	sqldriver "database/sql/driver"
	"fmt"
	"io"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/wire"
)

// drainTimeout bounds how long an abandoned stream waits for the
// server's terminal QueryEnd after CloseQuery — a dead server must not
// wedge rows.Close (and with it the pool's conn teardown).
const drainTimeout = 5 * time.Second

// rows consumes one query's response stream: RowBatch frames under
// credit-based flow control, terminated by QueryEnd. Each consumed
// batch grants one replacement credit, so at most Window batches are
// ever in flight — a huge scan streams in bounded client memory.
type rows struct {
	c    *conn
	opID uint64
	cols []string

	// batch holds the frame being delivered, column-major: the vectors
	// are the stream's own and each frame is decoded over the last. What
	// Next hands out of them stays valid all the same — numbers are
	// copied, and a string is a substring of the one string its column
	// was decoded as, which nothing writes to again.
	batch datum.Batch
	idx   int
	recv  []byte // the stream's receive buffer; DecodeRowBatch keeps none of it

	done bool  // QueryEnd received
	err  error // terminal stream error (from QueryEnd's code)

	// stopWatch ends the query's ctx-cancel watcher (armed in
	// queryOnce, alive for the stream's whole life so a cancelled ctx
	// can unblock a Next waiting on a dead server).
	stopWatch func()

	simSeconds float64
	closed     bool
}

var _ sqldriver.Rows = (*rows)(nil)

// Columns returns the result column names.
func (r *rows) Columns() []string { return r.cols }

// Next fills dest with the next row, or returns io.EOF at the end of
// the stream (or the stream's terminal error).
func (r *rows) Next(dest []sqldriver.Value) error {
	for {
		if r.idx < r.batch.Len {
			if len(r.batch.Cols) != len(dest) {
				return fmt.Errorf("dualtable: row has %d columns, want %d", len(r.batch.Cols), len(dest))
			}
			for j := range dest {
				dest[j] = datumToValue(r.batch.Cols[j].Datum(r.idx))
			}
			r.idx++
			return nil
		}
		if r.done {
			if r.err != nil {
				return r.err
			}
			return io.EOF
		}
		if err := r.recvFrame(); err != nil {
			return err
		}
	}
}

// broken ends the stream on a failure that leaves the connection
// unusable: nothing more is delivered, the pool retires the conn, and
// every later Next reports err.
func (r *rows) broken(err error) error {
	r.c.markBroken()
	r.done, r.err = true, err
	r.batch.Len = 0
	return err
}

// recvFrame consumes the next stream frame: a row batch (granting a
// replacement credit) or the terminal QueryEnd.
func (r *rows) recvFrame() error {
	t, payload, err := r.c.wc.RecvInto(r.recv)
	if err != nil {
		return r.broken(err)
	}
	r.recv = payload
	switch t {
	case wire.TypeRowBatch:
		r.idx = 0
		opID, err := wire.DecodeRowBatch(payload, &r.batch)
		if err != nil {
			return r.broken(err)
		}
		if opID != r.opID {
			return r.broken(fmt.Errorf("%w: batch for op %d, want %d", dualtable.ErrProtocol, opID, r.opID))
		}
		// Grant a replacement credit for the consumed batch. A grant that
		// cannot be written means the stream is dead: the server would
		// wait for the credit and this side for the next frame.
		if err := r.c.wc.Send(wire.TypeFetch, (&wire.Fetch{OpID: r.opID, Credits: 1}).Encode()); err != nil {
			return r.broken(fmt.Errorf("dualtable driver: grant stream credit: %w", err))
		}
		return nil
	case wire.TypeQueryEnd:
		var end wire.QueryEnd
		if err := end.Decode(payload); err != nil {
			return r.broken(err)
		}
		r.done = true
		r.simSeconds = end.SimSeconds
		r.err = dualtable.CodeError(dualtable.ErrCode(end.Code), end.Msg)
		return nil
	default:
		return r.broken(fmt.Errorf("%w: unexpected %v in query stream", dualtable.ErrProtocol, t))
	}
}

// Close abandons the stream: it tells the server to cancel the job
// and drains the remaining frames so the connection is clean for the
// next request. Closing a drained stream is free.
func (r *rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.stopWatch != nil {
		defer r.stopWatch()
	}
	if r.done {
		return nil
	}
	// Ask the server to stop, then drain to the QueryEnd. The server
	// always terminates the stream once the header was sent, and
	// cancellation unblocks its credit waits, so this converges.
	if err := r.c.wc.Send(wire.TypeCloseQuery, (&wire.CloseQuery{OpID: r.opID}).Encode()); err != nil {
		r.c.markBroken()
		return nil
	}
	raw := r.c.wc.Raw()
	raw.SetReadDeadline(time.Now().Add(drainTimeout))
	for !r.done {
		if err := r.recvFrame(); err != nil {
			break
		}
		r.batch.Len = 0 // discard undelivered rows
	}
	raw.SetReadDeadline(time.Time{})
	return nil
}

// SimSeconds reports the query's simulated cluster seconds (complete
// once the stream has ended). Driver-specific extension.
func (r *rows) SimSeconds() float64 { return r.simSeconds }
