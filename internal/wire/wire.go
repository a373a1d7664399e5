// Package wire implements the dtserver framed wire protocol: a
// length-prefixed binary framing with a small message vocabulary —
// handshake, SET session vars, prepare/bind/execute with '?'
// placeholders, streaming row batches with credit-based flow control,
// cancellation, and explicit close. Single values — statement
// arguments, the rows of a complete Result — reuse the engine's
// self-describing datum format (datum.AppendDatum), the bytes the
// storage layer already knows how to produce and parse. A streamed
// result travels as column batches (see rowbatch.go for the layout):
// the engine hands the server vectors, the ROW_BATCH payload is those
// vectors column by column, and the driver decodes it into column
// buffers it reads positionally, so no row is built on either side. A
// column whose values in one batch do not share a kind — SQL allows a
// CASE that — travels as tagged datums; that is decided per column per
// batch from the data. A decoded batch copies everything out of the
// payload: the receiver owns the batch, and may reuse the receive
// buffer for the next frame while values handed out of the batch stay
// valid.
//
// Frame layout:
//
//	uint32 big-endian  payload length (excludes the 9-byte header)
//	byte               frame type
//	uint32 big-endian  CRC-32C (Castagnoli) of the payload
//	payload            type-specific message encoding
//
// The checksum makes byte-level corruption on the wire a detectable,
// typed failure (the frame is rejected and the connection dropped)
// instead of a silently wrong row or a misparsed statement — TCP's
// own checksum is too weak to stake correctness on, and chaos tests
// corrupt frames on purpose.
//
// A single statement executes as one client request frame answered by
// one response frame (Exec → Result | Error) or a response stream
// (Query → RowHeader, RowBatch*, QueryEnd). Fetch, Cancel, CloseStmt
// and CloseQuery are fire-and-forget: they never get a reply, so they
// can be written while a response stream is in flight without
// interleaving ambiguity. Flow control is credit-based: a Query
// carries an initial window of row-batch credits and each Fetch
// grants more; the server never has more unacknowledged RowBatch
// frames in flight than the granted window.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// ProtoVersion is the protocol revision sent in the handshake. Both
// ends live in this tree, so a server refuses any Hello whose revision
// is not its own. Revision 2 added the per-frame payload checksum;
// revision 3 made the ROW_BATCH payload column-major.
const ProtoVersion = 3

// MaxFrame bounds a single frame's payload so a malformed or hostile
// length prefix cannot make either side allocate unbounded memory.
const MaxFrame = 16 << 20

const headerSize = 9

// castagnoli is the CRC-32C table shared by every frame writer and
// reader (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a frame whose payload bytes did not match the
// checksum in its header: corruption on the wire (or a desynchronized
// stream). The connection is unusable past this point.
var ErrChecksum = fmt.Errorf("wire: frame checksum mismatch")

// Type identifies a frame. Client-originated types have the high bit
// clear, server-originated types have it set.
type Type byte

// Frame types.
const (
	// TypeHello opens a connection: protocol version, user, tenant,
	// auth token (stub).
	TypeHello Type = 0x01
	// TypeSet stores one session variable (SET key = value).
	TypeSet Type = 0x02
	// TypePrepare compiles a statement server-side under a
	// client-assigned statement id.
	TypePrepare Type = 0x03
	// TypeExec runs a statement to completion (by stmt id or inline
	// SQL) and returns one Result frame.
	TypeExec Type = 0x04
	// TypeQuery runs a SELECT as a response stream: RowHeader,
	// RowBatch*, QueryEnd.
	TypeQuery Type = 0x05
	// TypeFetch grants row-batch credits to an in-flight query
	// (fire-and-forget).
	TypeFetch Type = 0x06
	// TypeCancel aborts an in-flight operation (fire-and-forget).
	TypeCancel Type = 0x07
	// TypeCloseStmt releases a prepared statement (fire-and-forget).
	TypeCloseStmt Type = 0x08
	// TypeCloseQuery abandons an in-flight query stream; the server
	// cancels the job and terminates the stream with QueryEnd
	// (fire-and-forget).
	TypeCloseQuery Type = 0x09
	// TypeQuit announces an orderly client disconnect.
	TypeQuit Type = 0x0A
	// TypePing asks for a TypeOK round trip (connection liveness).
	TypePing Type = 0x0B
	// TypeReset restores the connection's session to its
	// post-handshake state — every SET variable is cleared. Answered
	// with TypeOK; the driver's pool sends it before handing a reused
	// connection to a new borrower.
	TypeReset Type = 0x0C

	// TypeHelloOK accepts a handshake.
	TypeHelloOK Type = 0x81
	// TypeOK acknowledges a Set or Ping.
	TypeOK Type = 0x82
	// TypePrepareOK acknowledges a Prepare with its parameter count.
	TypePrepareOK Type = 0x83
	// TypeResult carries a complete statement result.
	TypeResult Type = 0x84
	// TypeRowHeader opens a query stream with its column names.
	TypeRowHeader Type = 0x85
	// TypeRowBatch carries up to one credit's worth of rows.
	TypeRowBatch Type = 0x86
	// TypeQueryEnd terminates a query stream (cleanly or with an
	// error code).
	TypeQueryEnd Type = 0x87
	// TypeError reports a failed request: stable code + message.
	TypeError Type = 0x88
)

// String names the frame type for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeSet:
		return "SET"
	case TypePrepare:
		return "PREPARE"
	case TypeExec:
		return "EXEC"
	case TypeQuery:
		return "QUERY"
	case TypeFetch:
		return "FETCH"
	case TypeCancel:
		return "CANCEL"
	case TypeCloseStmt:
		return "CLOSE_STMT"
	case TypeCloseQuery:
		return "CLOSE_QUERY"
	case TypeQuit:
		return "QUIT"
	case TypePing:
		return "PING"
	case TypeReset:
		return "RESET"
	case TypeHelloOK:
		return "HELLO_OK"
	case TypeOK:
		return "OK"
	case TypePrepareOK:
		return "PREPARE_OK"
	case TypeResult:
		return "RESULT"
	case TypeRowHeader:
		return "ROW_HEADER"
	case TypeRowBatch:
		return "ROW_BATCH"
	case TypeQueryEnd:
		return "QUERY_END"
	case TypeError:
		return "ERROR"
	default:
		return fmt.Sprintf("TYPE(0x%02x)", byte(t))
	}
}

// WriteFrame writes one frame (header + payload) to w.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	binary.BigEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, enforcing MaxFrame. A clean EOF
// at a frame boundary returns io.EOF; a partial header or payload
// returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Type, []byte, error) { return readFrame(r, nil) }

// readFrame is ReadFrame with the payload read into buf's storage when
// it is large enough (into a new slice otherwise); the payload returned
// is that storage, re-sliced.
func readFrame(r io.Reader, buf []byte) (Type, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrame)
	}
	t := Type(hdr[4])
	sum := binary.BigEndian.Uint32(hdr[5:9])
	if n == 0 {
		if sum != 0 {
			return 0, nil, ErrChecksum
		}
		return t, buf[:0], nil
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil, ErrChecksum
	}
	return t, payload, nil
}

// Conn wraps a net.Conn with buffered frame I/O. Send is safe for
// concurrent use (cancellation and credit frames are written from
// goroutines other than the request issuer); Recv must only be called
// from one goroutine at a time.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader

	wmu sync.Mutex
	w   *bufio.Writer
	// wt, when positive, bounds each Send with a per-frame write
	// deadline on the raw connection: a peer that stops draining its
	// receive buffer (or silently died) fails the write instead of
	// blocking the sender forever.
	wt time.Duration
}

// NewConn wraps a network connection for frame I/O.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		raw: c,
		r:   bufio.NewReaderSize(c, 64<<10),
		w:   bufio.NewWriterSize(c, 64<<10),
	}
}

// SetWriteTimeout installs a per-frame write deadline applied to
// every subsequent Send (0 disables). Safe to call concurrently with
// Send.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	c.wt = d
	c.wmu.Unlock()
}

// Send writes one frame and flushes it. Each frame is written
// atomically with respect to concurrent Send calls. With a write
// timeout set, a frame that cannot be flushed within the window fails
// with a deadline error and the connection is no longer usable.
func (c *Conn) Send(t Type, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wt > 0 {
		c.raw.SetWriteDeadline(time.Now().Add(c.wt))
	}
	if err := WriteFrame(c.w, t, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv reads the next frame.
func (c *Conn) Recv() (Type, []byte, error) { return ReadFrame(c.r) }

// RecvInto reads the next frame with its payload in buf's storage,
// grown when too small: for a receiver that decodes each payload
// before it reads the next and so needs one buffer, not one per frame.
// The payload is valid until its storage is passed in again.
func (c *Conn) RecvInto(buf []byte) (Type, []byte, error) { return readFrame(c.r, buf) }

// Close closes the underlying connection. Safe to call concurrently
// with Send/Recv (both then fail with a network error).
func (c *Conn) Close() error { return c.raw.Close() }

// Raw returns the underlying net.Conn (deadlines, addresses).
func (c *Conn) Raw() net.Conn { return c.raw }
