package dfs

// Fault injection: a hook consulted at the entry of every mutating
// namespace operation (Create/Write/Rename/Delete/Unpin). Injected
// faults fire *before* the operation mutates any state — with the
// single deliberate exception of torn writes, which persist a prefix
// of the payload and then kill the writer, leaving the file with an
// abandoned lease exactly as a crashed HDFS client would. Which
// operation fails is internal/fault's schedule, shared with the wire.

import (
	"errors"
	"fmt"
	"math/rand"

	"dualtable/internal/fault"
)

// ErrNotPinned is returned by Unpin when the file has no outstanding
// pins: a double-unpin would otherwise drive the count negative and
// silently corrupt deferred-deletion bookkeeping.
var ErrNotPinned = errors.New("dfs: unpin of unpinned file")

// Op classifies a mutating filesystem operation for fault matching.
type Op uint8

const (
	OpCreate Op = iota
	OpWrite
	OpRename
	OpDelete // Delete and DeleteDeferred
	OpUnpin
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpRename:
		return "rename"
	case OpDelete:
		return "delete"
	case OpUnpin:
		return "unpin"
	}
	return fmt.Sprintf("op(%d)", o)
}

// Fault is an injector's verdict on one operation. Err is returned to
// the caller (defaults to a wrapped fault.ErrInjected). TearBytes
// applies only to OpWrite: a prefix of that many bytes is persisted
// before the writer is killed, simulating a datanode pipeline that
// died mid-flush.
type Fault struct {
	Err       error
	TearBytes int
}

// FaultInjector decides, per operation, whether to inject a failure.
// Inject must be safe for concurrent use; returning nil lets the
// operation proceed normally.
type FaultInjector interface {
	Inject(op Op, path string) *Fault
}

// SetFaultInjector installs (or, with nil, removes) the fault hook.
func (fs *FileSystem) SetFaultInjector(fi FaultInjector) {
	if fi == nil {
		fs.injector.Store(nil)
		return
	}
	fs.injector.Store(&fi)
}

// inject consults the installed injector. Called at operation entry,
// before any lock is taken or state mutated.
func (fs *FileSystem) inject(op Op, p string) *Fault {
	fi := fs.injector.Load()
	if fi == nil {
		return nil
	}
	f := (*fi).Inject(op, p)
	if f != nil && f.Err == nil {
		f.Err = fmt.Errorf("%w: dfs %s %s", fault.ErrInjected, op, p)
	}
	return f
}

// FaultRule fails the operations matching (Op, Subject: a path
// substring) on occurrences Nth..Nth+Times-1 with its Verdict;
// fault.NewSchedule builds the deterministic injector from such rules.
type FaultRule = fault.Rule[Op, Fault]

// SeededInjector fails a seeded fraction of the operations on matching
// paths; half of the writes it fails are torn at a random prefix.
type SeededInjector struct{ seeded *fault.Seeded }

// NewSeededInjector fails roughly prob of the operations,
// deterministically from seed.
func NewSeededInjector(seed int64, prob float64) *SeededInjector {
	return &SeededInjector{fault.NewSeeded(seed, prob)}
}

// PathFilter limits injection to paths containing substr.
func (si *SeededInjector) PathFilter(substr string) *SeededInjector {
	si.seeded.Filter(substr)
	return si
}

// Injected reports how many faults the injector has fired.
func (si *SeededInjector) Injected() int64 { return si.seeded.Injected() }

// Inject implements FaultInjector.
func (si *SeededInjector) Inject(op Op, path string) *Fault {
	f := &Fault{}
	if !si.seeded.Fire(path, func(r *rand.Rand) {
		if op == OpWrite && r.Float64() < 0.5 {
			f.TearBytes = 1 + r.Intn(4096)
		}
	}) {
		return nil
	}
	return f
}
