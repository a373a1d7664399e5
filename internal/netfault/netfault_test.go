package netfault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"dualtable/internal/fault"
)

// pipePair returns a wrapped client conn and the raw server end.
func pipePair(inj FaultInjector) (*Conn, net.Conn) {
	c, s := net.Pipe()
	return WrapConn(c, inj), s
}

func TestPassThroughNilInjector(t *testing.T) {
	c, s := pipePair(nil)
	defer c.Close()
	defer s.Close()
	go func() {
		c.Write([]byte("hello"))
	}()
	buf := make([]byte, 5)
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
}

func TestWriteCorruptionDeliversAlteredBytes(t *testing.T) {
	inj := NewScheduleInjector(FaultRule{Op: OpWrite, Verdict: Fault{Corrupt: true}})
	c, s := pipePair(inj)
	defer c.Close()
	defer s.Close()

	payload := []byte("abcdefgh")
	orig := append([]byte(nil), payload...)
	go func() {
		if _, err := c.Write(payload); err != nil {
			t.Errorf("corrupt write errored: %v", err)
		}
	}()
	buf := make([]byte, len(payload))
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, orig) {
		t.Fatal("corrupt fault delivered unaltered bytes")
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("corrupt fault mutated the caller's buffer")
	}
	if diff := countDiff(buf, orig); diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
}

func countDiff(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestWriteTruncationDeliversPrefixThenCloses(t *testing.T) {
	inj := NewScheduleInjector(FaultRule{Op: OpWrite, Verdict: Fault{TruncateBytes: 3}})
	c, s := pipePair(inj)
	defer s.Close()

	payload := []byte("abcdefgh")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err := c.Write(payload)
		if err == nil {
			t.Error("truncated write reported success")
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("truncation error = %v, want ErrInjected", err)
		}
		if n != 3 {
			t.Errorf("truncation wrote %d bytes, want 3", n)
		}
	}()
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(s)
	wg.Wait()
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("peer received %q, want the 3-byte prefix", got)
	}
}

func TestResetClosesBeforeBytesMove(t *testing.T) {
	inj := NewScheduleInjector(FaultRule{Op: OpWrite, Verdict: Fault{Reset: true}})
	c, s := pipePair(inj)
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("never arrives"))
		done <- err
	}()
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if got, _ := io.ReadAll(s); len(got) != 0 {
		t.Fatalf("reset fault still delivered %q", got)
	}
	if err := <-done; !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("reset error = %v, want ErrInjected", err)
	}
}

func TestStallBlocksUntilClose(t *testing.T) {
	inj := NewScheduleInjector(FaultRule{Op: OpRead, Verdict: Fault{Stall: true}})
	c, s := pipePair(inj)
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 8))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("stall error = %v, want ErrInjected", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read not unblocked by Close")
	}
}

// TestStallHonorsDeadline: a stalled peer cannot defeat local
// deadlines — including one set while the stall is already blocking,
// as a kernel interrupts a blocked read.
func TestStallHonorsDeadline(t *testing.T) {
	inj := NewScheduleInjector(
		FaultRule{Op: OpRead, Times: 2, Verdict: Fault{Stall: true}})
	c, s := pipePair(inj)
	defer c.Close()
	defer s.Close()

	// Deadline armed before the stalled read.
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("pre-armed deadline: err = %v, want os.ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stall ignored the pre-armed deadline")
	}

	// Deadline armed mid-stall.
	c.SetReadDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 8))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("undeadlined stall returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("mid-stall deadline: err = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stall not unblocked by a deadline set mid-stall")
	}
}

func TestDelayThenProceed(t *testing.T) {
	inj := NewScheduleInjector(FaultRule{Op: OpWrite, Verdict: Fault{Delay: 60 * time.Millisecond}})
	c, s := pipePair(inj)
	defer c.Close()
	defer s.Close()

	start := time.Now()
	go c.Write([]byte("late"))
	buf := make([]byte, 4)
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("delayed write arrived after %v, want >= 60ms-ish", elapsed)
	}
	if string(buf) != "late" {
		t.Fatalf("read %q", buf)
	}
}

// TestListenerAcceptFaultClosesConnNotLoop: an accept fault hangs up
// on the client; the listener survives and serves the next dial.
func TestListenerAcceptFaultClosesConnNotLoop(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewScheduleInjector(FaultRule{Op: OpAccept, Verdict: Fault{Reset: true}})
	ln := WrapListener(raw, inj, nil)
	defer ln.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			t.Errorf("accept loop died: %v", err)
			return
		}
		accepted <- nc
	}()

	// First dial is reset by the fault...
	first, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	first.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := first.Read(make([]byte, 1)); err == nil {
		t.Fatal("faulted accept still delivered bytes")
	}
	first.Close()

	// ...the second is served.
	second, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	select {
	case nc := <-accepted:
		nc.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("listener never accepted the second dial")
	}
}
