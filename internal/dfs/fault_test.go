package dfs

import (
	"errors"
	"testing"

	"dualtable/internal/fault"
)

func TestScheduleInjectorFailsNthOp(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20})
	if err := fs.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	inj := fault.NewSchedule(FaultRule{Op: OpCreate, Subject: "/t/", Nth: 2})
	fs.SetFaultInjector(inj)

	if err := fs.WriteFile("/t/a", []byte("x")); err != nil {
		t.Fatalf("first create should pass: %v", err)
	}
	err := fs.WriteFile("/t/b", []byte("x"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("second create: want ErrInjected, got %v", err)
	}
	if err := fs.WriteFile("/t/c", []byte("x")); err != nil {
		t.Fatalf("third create should pass: %v", err)
	}
	if fs.Exists("/t/b") {
		t.Fatal("failed create must not leave a namespace entry")
	}
	if got := inj.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestTornWriteLeavesAbandonedLease(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20})
	if err := fs.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	fs.SetFaultInjector(fault.NewSchedule(FaultRule{Op: OpWrite, Nth: 2, Verdict: Fault{TearBytes: 3}}))

	w, err := fs.Create("/t/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	n, err := w.Write([]byte("worlds"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("second write: want ErrInjected, got %v", err)
	}
	if n != 3 {
		t.Fatalf("torn write persisted %d bytes, want 3", n)
	}
	// The handle is poisoned and the lease abandoned.
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after tear: want ErrClosed, got %v", err)
	}
	if err := fs.DeleteDeferred("/t/f"); !errors.Is(err, ErrFileOpen) {
		t.Fatalf("delete of leased file: want ErrFileOpen, got %v", err)
	}
	// Recovery: seal the tail, then the torn prefix is readable and the
	// file deletable.
	if err := fs.RecoverLease("/t/f"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/t/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hellowor" {
		t.Fatalf("recovered contents %q, want %q", data, "hellowor")
	}
	if err := fs.DeleteDeferred("/t/f"); err != nil {
		t.Fatalf("delete after lease recovery: %v", err)
	}
}

func TestUnpinOfUnpinnedFileTyped(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20})
	if err := fs.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/t/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Never-pinned file.
	if err := fs.Unpin("/t/f"); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("unpin of never-pinned file: want ErrNotPinned, got %v", err)
	}
	// Double unpin.
	if err := fs.Pin("/t/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unpin("/t/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unpin("/t/f"); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unpin: want ErrNotPinned, got %v", err)
	}
	if got := fs.Pins("/t/f"); got != 0 {
		t.Fatalf("pin count corrupted to %d by failed unpins", got)
	}
	// Unknown path stays ErrNotFound, not ErrNotPinned.
	if err := fs.Unpin("/t/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unpin of unknown path: want ErrNotFound, got %v", err)
	}
}

func TestSeededInjectorMaxRunAllowsProgress(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20})
	if err := fs.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/t/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Even at p=1.0, MaxRun guarantees a bounded retry loop succeeds.
	fs.SetFaultInjector(NewSeededInjector(7, 1.0))
	var err error
	for i := 0; i < 5; i++ {
		if err = fs.Delete("/t/f", false); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("delete never succeeded within MaxRun+1 attempts: %v", err)
	}
}
