// Package netfault is the wire layer of the one fault schedule: it
// wraps net.Conn and net.Listener values and injects latency spikes,
// mid-frame truncation, connection resets, byte-level corruption, and
// read/write stalls. Which operation fails is internal/fault's
// schedule, shared with the DFS; this package keeps the wire's ops, its
// verdict, the seeded flavour draw, and what a verdict does to a read,
// a write or an accept.
//
// Faults fire at the I/O boundary, never inside it: an injected write
// fault either delivers a corrupted-but-complete buffer (checksums
// must catch it), a strict prefix followed by a closed connection
// (truncation), or no bytes at all (reset/stall). The wrapper never
// fabricates bytes the peer did not send.
package netfault

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"dualtable/internal/fault"
)

// Op classifies the I/O operation a fault decision applies to.
type Op uint8

const (
	// OpRead is a Read on a wrapped connection.
	OpRead Op = iota
	// OpWrite is a Write on a wrapped connection.
	OpWrite
	// OpAccept is an Accept on a wrapped listener; an injected fault
	// closes the just-accepted connection (the client sees an
	// immediate hangup) and the listener keeps accepting.
	OpAccept
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAccept:
		return "accept"
	}
	return fmt.Sprintf("op(%d)", o)
}

// Fault is an injector's verdict on one I/O operation. Exactly one of
// the failure modes should be set (Delay may accompany any of them,
// or stand alone as a pure latency spike).
type Fault struct {
	// Err is returned to the caller for reset/truncate/stall faults
	// (defaults to a wrapped fault.ErrInjected).
	Err error
	// Delay sleeps before the operation proceeds — injected latency.
	Delay time.Duration
	// Corrupt flips one byte of the buffer: on write, the peer
	// receives a complete but corrupted frame; on read, the caller
	// does. Frame checksums must turn this into a typed failure.
	Corrupt bool
	// TruncateBytes (write only), when positive, delivers at most that
	// many bytes of the buffer, then closes the connection — a peer
	// that died mid-frame.
	TruncateBytes int
	// Reset closes the connection before any bytes move.
	Reset bool
	// Stall blocks the operation until the connection is closed or its
	// deadline expires — a silently dead peer. Deadlines set via
	// SetDeadline and friends still fire (the local kernel enforces
	// them regardless of what the peer does), surfacing the same
	// os.ErrDeadlineExceeded a real dead peer would produce; a
	// close-unblocked stall fails with Err.
	Stall bool
}

// FaultInjector decides, per operation, whether to inject a failure.
// n is the buffer size in bytes (0 for Accept). Implementations must
// be safe for concurrent use; returning nil lets the op proceed.
type FaultInjector interface {
	Inject(op Op, n int) *Fault
}

// Conn wraps a net.Conn, consulting the injector on every Read and
// Write. Close is safe to call concurrently and unblocks stalled ops,
// as do read/write deadlines — a fault must never grant the peer a
// power (defeating local deadlines) it could not have in reality.
type Conn struct {
	net.Conn
	inj FaultInjector

	closeOnce sync.Once
	closed    chan struct{}

	dlmu  sync.Mutex
	rdl   time.Time     // read deadline, mirrored from SetDeadline calls
	wdl   time.Time     // write deadline
	rbump chan struct{} // wakes a stalled read when its deadline moves
	wbump chan struct{} // wakes a stalled write likewise
}

// WrapConn wraps nc with fault injection. A nil injector passes
// everything through.
func WrapConn(nc net.Conn, inj FaultInjector) *Conn {
	return &Conn{
		Conn:   nc,
		inj:    inj,
		closed: make(chan struct{}),
		rbump:  make(chan struct{}, 1),
		wbump:  make(chan struct{}, 1),
	}
}

// SetDeadline implements net.Conn, mirroring the deadline so stalled
// fault waits honor it — including deadlines set while a stall is
// already blocking, exactly as a kernel interrupts a blocked read.
func (c *Conn) SetDeadline(t time.Time) error {
	c.dlmu.Lock()
	c.rdl, c.wdl = t, t
	c.dlmu.Unlock()
	bump(c.rbump)
	bump(c.wbump)
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.dlmu.Lock()
	c.rdl = t
	c.dlmu.Unlock()
	bump(c.rbump)
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.dlmu.Lock()
	c.wdl = t
	c.dlmu.Unlock()
	bump(c.wbump)
	return c.Conn.SetWriteDeadline(t)
}

func bump(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// deadlineFor returns the mirrored deadline governing op.
func (c *Conn) deadlineFor(op Op) time.Time {
	c.dlmu.Lock()
	defer c.dlmu.Unlock()
	if op == OpRead {
		return c.rdl
	}
	return c.wdl
}

// Close unblocks any stalled operation, then closes the wrapped conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *Conn) errFor(op Op, f *Fault) error {
	if f.Err != nil {
		return f.Err
	}
	return fmt.Errorf("%w: net %s", fault.ErrInjected, op)
}

// apply handles the fault modes common to read and write: latency,
// reset, stall. It reports (err, done): done means the op must return
// err without touching the underlying conn.
func (c *Conn) apply(op Op, f *Fault) (error, bool) {
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-c.closed:
			t.Stop()
			return net.ErrClosed, true
		}
	}
	switch {
	case f.Reset:
		c.Close()
		return c.errFor(op, f), true
	case f.Stall:
		bumped := c.rbump
		if op != OpRead {
			bumped = c.wbump
		}
		for {
			var timeout <-chan time.Time
			var tm *time.Timer
			if dl := c.deadlineFor(op); !dl.IsZero() {
				d := time.Until(dl)
				if d <= 0 {
					return os.ErrDeadlineExceeded, true
				}
				tm = time.NewTimer(d)
				timeout = tm.C
			}
			select {
			case <-c.closed:
				if tm != nil {
					tm.Stop()
				}
				return c.errFor(op, f), true
			case <-timeout:
				return os.ErrDeadlineExceeded, true
			case <-bumped:
				// Deadline moved mid-stall: re-evaluate it.
				if tm != nil {
					tm.Stop()
				}
			}
		}
	}
	return nil, false
}

// Read implements net.Conn. A corrupt fault flips one byte of what
// the peer actually sent.
func (c *Conn) Read(b []byte) (int, error) {
	f := inject(c.inj, OpRead, len(b))
	if f == nil {
		return c.Conn.Read(b)
	}
	if err, done := c.apply(OpRead, f); done {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	if f.Corrupt && n > 0 {
		b[n/2] ^= 0x40
	}
	return n, err
}

// Write implements net.Conn. Corruption delivers a complete but
// altered buffer (the caller sees success — only checksums can tell);
// truncation delivers a strict prefix and closes the conn.
func (c *Conn) Write(b []byte) (int, error) {
	f := inject(c.inj, OpWrite, len(b))
	if f == nil {
		return c.Conn.Write(b)
	}
	if err, done := c.apply(OpWrite, f); done {
		return 0, err
	}
	if f.Corrupt && len(b) > 0 {
		mut := make([]byte, len(b))
		copy(mut, b)
		mut[len(mut)/2] ^= 0x40
		return c.Conn.Write(mut)
	}
	if f.TruncateBytes > 0 {
		pfx := b
		if f.TruncateBytes < len(pfx) {
			pfx = pfx[:f.TruncateBytes]
		}
		n, _ := c.Conn.Write(pfx)
		c.Close()
		return n, c.errFor(OpWrite, f)
	}
	return c.Conn.Write(b)
}

// Listener wraps a net.Listener: accepted connections are wrapped
// with the conn injector, and accept-op faults close the fresh
// connection instead of surfacing an error (an Accept error would
// kill a serve loop — a chaos harness wants flaky clients, not a dead
// server).
type Listener struct {
	net.Listener
	acceptInj FaultInjector
	connInj   FaultInjector
}

// WrapListener wraps ln. acceptInj governs OpAccept faults; connInj
// (may be the same injector) is installed on every accepted conn.
// Either may be nil.
func WrapListener(ln net.Listener, acceptInj, connInj FaultInjector) *Listener {
	return &Listener{Listener: ln, acceptInj: acceptInj, connInj: connInj}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if f := inject(l.acceptInj, OpAccept, 0); f != nil {
			if f.Delay > 0 {
				time.Sleep(f.Delay)
			}
			nc.Close()
			continue
		}
		if l.connInj == nil {
			return nc, nil
		}
		return WrapConn(nc, l.connInj), nil
	}
}

// inject consults an injector that may be nil.
func inject(fi FaultInjector, op Op, n int) *Fault {
	if fi == nil {
		return nil
	}
	return fi.Inject(op, n)
}

// FaultRule fires its Verdict on occurrences Nth..Nth+Times-1 of Op.
// A connection has no subject, so Subject stays empty.
type FaultRule = fault.Rule[Op, Fault]

// ScheduleInjector fires exactly the faults its rules name, in arrival
// order — the deterministic injector for regression tests.
type ScheduleInjector struct{ *fault.Schedule[Op, Fault] }

// NewScheduleInjector builds a deterministic injector from rules.
func NewScheduleInjector(rules ...FaultRule) ScheduleInjector {
	return ScheduleInjector{fault.NewSchedule(rules...)}
}

// Inject implements FaultInjector.
func (s ScheduleInjector) Inject(op Op, _ int) *Fault { return s.Schedule.Inject(op, "") }

// SeededInjector injects faults on a seeded fraction of operations,
// choosing a flavour per injection: latency (most common), corruption,
// truncation, reset, and stall (rarest).
type SeededInjector struct {
	seeded   *fault.Seeded
	noStalls bool
}

// NewSeededInjector injects on roughly prob of operations,
// deterministically from seed.
func NewSeededInjector(seed int64, prob float64) *SeededInjector {
	return &SeededInjector{seeded: fault.NewSeeded(seed, prob)}
}

// Injected reports how many faults the injector has fired.
func (si *SeededInjector) Injected() int64 { return si.seeded.Injected() }

// DisableStalls replaces stall faults with resets — for harnesses
// whose victims have no deadline that would ever unblock a stall. Call
// it before the injector is installed.
func (si *SeededInjector) DisableStalls() *SeededInjector {
	si.noStalls = true
	return si
}

// Inject implements FaultInjector.
func (si *SeededInjector) Inject(op Op, n int) *Fault {
	f := &Fault{}
	if !si.seeded.Fire("", func(r *rand.Rand) {
		roll := r.Float64()
		switch {
		case roll < 0.40: // latency spike of at most 3ms
			f.Delay = time.Duration(1 + r.Int63n(int64(3*time.Millisecond)))
		case roll < 0.60: // corruption (reads and writes; reset for accept)
			f.Corrupt = op != OpAccept
			f.Reset = op == OpAccept
		case roll < 0.75: // truncation (writes; reset elsewhere)
			if op == OpWrite && n > 1 {
				f.TruncateBytes = 1 + r.Intn(n-1)
			} else {
				f.Reset = true
			}
		case roll < 0.92 || si.noStalls: // reset
			f.Reset = true
		default: // stall — a silently dead peer
			f.Stall = true
		}
	}) {
		return nil
	}
	return f
}
