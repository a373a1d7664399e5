// Fixture for the pinbalance analyzer: snapshot/pin acquisitions
// must reach Release/Unpin on every return path. Self-contained
// stand-ins for the core/dfs types — the analyzer is syntactic.
package fixture

import "errors"

var errTooBig = errors.New("too big")

type snapshot struct{ pinned []string }

func (s *snapshot) Release() {}

type handler struct{ fs *fsys }

func (h *handler) OpenSnapshot(name string) (*snapshot, error) { return &snapshot{}, nil }
func (h *handler) OpenSnapshotAt(name string, epoch uint64) (*snapshot, error) {
	return &snapshot{}, nil
}
func (h *handler) open(name string, asOf *uint64, withEntries bool) (*snapshot, error) {
	return &snapshot{}, nil
}

// selectPlan stands in for hive's compiled SELECT, which owns the
// pinned relation it scans.
type selectPlan struct{}

func (p *selectPlan) Release() {}

func (h *handler) planSelect(q string) (*selectPlan, error) { return &selectPlan{}, nil }

type fsys struct{}

func (f *fsys) Pin(p string) error   { return nil }
func (f *fsys) Unpin(p string) error { return nil }

func tooBig() bool { return false }

// --- violations ---

// The PR 7 bug class: an error return between acquisition and
// release leaks the snapshot's pins forever.
func leakOnErrorPath(h *handler) error {
	snap, err := h.OpenSnapshot("t")
	if err != nil {
		return err // legal: the acquisition failed, nothing is held
	}
	if tooBig() {
		return errTooBig // want `return leaks snapshot/relation .snap. from OpenSnapshot`
	}
	snap.Release()
	return nil
}

func leakPinOnErrorPath(f *fsys, p string) error {
	if err := f.Pin(p); err != nil {
		return err // legal: pin failed
	}
	if tooBig() {
		return errTooBig // want `return leaks pin on p`
	}
	return f.Unpin(p)
}

func leakHistorical(h *handler) error {
	snap, err := h.OpenSnapshotAt("t", 3)
	if err != nil {
		return err
	}
	if tooBig() {
		return nil // want `return leaks snapshot/relation .snap. from OpenSnapshotAt`
	}
	snap.Release()
	return nil
}

// The unexported protocol behind both is an acquisition like them (the
// cost model's metadata-only open calls it directly).
func leakMetadataOpen(h *handler) (int, error) {
	snap, err := h.open("t", nil, false)
	if err != nil {
		return 0, err
	}
	if tooBig() {
		return 0, errTooBig // want `return leaks snapshot/relation .snap. from open`
	}
	n := len(snap.pinned)
	snap.Release()
	return n, nil
}

// A plan built, then an error return before Release: the scanned
// snapshot stays pinned.
func leakPlanOnErrorPath(h *handler) error {
	plan, err := h.planSelect("SELECT 1 FROM t")
	if err != nil {
		return err
	}
	if tooBig() {
		return errTooBig // want `return leaks snapshot/relation .plan. from planSelect`
	}
	plan.Release()
	return nil
}

// --- legal patterns (must stay silent) ---

// Acquisitions return (value, error); a three-result open is another
// function that shares the name (acid's deltaSink.open).
func otherOpen(open func() (*snapshot, int, error)) error {
	w, _, err := open()
	if err != nil {
		return err
	}
	_ = w
	return nil
}

// The defer idiom releases on every path.
func deferRelease(h *handler) error {
	snap, err := h.OpenSnapshot("t")
	if err != nil {
		return err
	}
	defer snap.Release()
	if tooBig() {
		return errTooBig
	}
	return nil
}

// Returning the acquisition transfers ownership to the caller.
func transferToCaller(h *handler) (*snapshot, error) {
	snap, err := h.OpenSnapshot("t")
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Explicit release on each branch (the rows.go streaming idiom).
func branchRelease(h *handler) error {
	snap, err := h.OpenSnapshot("t")
	if err != nil {
		return err
	}
	if tooBig() {
		snap.Release()
		return errTooBig
	}
	snap.Release()
	return nil
}

// The snapshot accumulator idiom: a pinned path stored into a
// tracked pin set escapes — its owner's Release releases it.
func pinAccumulator(f *fsys, snap *snapshot, paths []string) error {
	for _, p := range paths {
		if err := f.Pin(p); err != nil {
			snap.Release()
			return err
		}
		snap.pinned = append(snap.pinned, p)
	}
	return nil
}

// A deferred closure releasing the snapshot counts.
func deferClosure(h *handler) error {
	snap, err := h.OpenSnapshot("t")
	if err != nil {
		return err
	}
	defer func() {
		snap.Release()
	}()
	if tooBig() {
		return errTooBig
	}
	return nil
}

// Capture by a goroutine closure transfers ownership to it.
func handOffToGoroutine(h *handler, done chan struct{}) error {
	snap, err := h.OpenSnapshot("t")
	if err != nil {
		return err
	}
	go func() {
		defer close(done)
		snap.Release()
	}()
	return nil
}
