package core

// Crash-consistent cleanup. Staged master files that never publish
// (aborted INSERT/OVERWRITE/COMPACT, a publish that lost its CAS, a
// simulated crash between staging and publish) must not leak: the
// discard path retries transient DFS faults with capped backoff,
// recovers abandoned write leases left by torn writes, and — when a
// path still cannot be removed — durably condemns it in a handler-side
// ledger that is re-driven on every later publish and by the startup
// recovery scan. RecoverOrphans is that scan: it sweeps each table's
// master directory for files no manifest in the chain (the retention
// window) names and routes them through deferred deletion, so a crash
// between staging and publish never leaks storage (the files were
// unpublished, so no acknowledged rows live in them and none can be
// resurrected).

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"dualtable/internal/dfs"
	"dualtable/internal/fault"
	"dualtable/internal/metastore"
)

// Cleanup retry policy. Test-tunable package knobs: a transient DFS
// fault on the cleanup path is retried cleanupRetries times with
// exponential backoff starting at cleanupBackoff.
var (
	cleanupRetries = 5
	cleanupBackoff = time.Millisecond
)

// retryableDFS classifies cleanup errors worth retrying: injected
// faults are transient; an open file becomes deletable after lease
// recovery.
func retryableDFS(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, dfs.ErrFileOpen)
}

// retryDFS runs fn, retrying transient failures with capped backoff.
func retryDFS(fn func() error) error {
	var err error
	backoff := cleanupBackoff
	for attempt := 0; attempt <= cleanupRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		}
		if err = fn(); err == nil || !retryableDFS(err) {
			return err
		}
	}
	return err
}

// removeMasterFile deletes one staged or orphaned master file through
// deferred deletion, recovering an abandoned write lease first (a torn
// write leaves the file open with no live writer) and retrying
// transient faults. A file already gone counts as removed.
func (h *Handler) removeMasterFile(p string) error {
	return retryDFS(func() error {
		err := h.e.FS.DeleteDeferred(p)
		switch {
		case err == nil, errors.Is(err, dfs.ErrNotFound):
			return nil
		case errors.Is(err, dfs.ErrFileOpen):
			// The writer died mid-write; seal the tail and retry.
			if rlErr := h.e.FS.RecoverLease(p); rlErr != nil && !errors.Is(rlErr, dfs.ErrNotFound) {
				return rlErr
			}
			return err
		default:
			return err
		}
	})
}

// condemn records paths whose removal exhausted its retries. The
// ledger survives until a later publish or recovery scan drains it, so
// a burst of faults can delay reclamation but never cancel it.
func (h *Handler) condemn(paths ...string) {
	if len(paths) == 0 {
		return
	}
	h.cleanupMu.Lock()
	defer h.cleanupMu.Unlock()
	if h.condemned == nil {
		h.condemned = map[string]bool{}
	}
	for _, p := range paths {
		h.condemned[p] = true
	}
}

// owePin records an Unpin that could not be delivered (transient fault
// exhausted its retries, or the call site could not afford to retry
// under a lock). Each owed count is one pending Unpin.
func (h *Handler) owePin(p string) {
	h.cleanupMu.Lock()
	defer h.cleanupMu.Unlock()
	if h.pinDebt == nil {
		h.pinDebt = map[string]int{}
	}
	h.pinDebt[p]++
}

// CondemnedPaths returns the files awaiting re-driven removal
// (observability for tests and leak checks).
func (h *Handler) CondemnedPaths() []string {
	h.cleanupMu.Lock()
	defer h.cleanupMu.Unlock()
	out := make([]string, 0, len(h.condemned))
	for p := range h.condemned {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// drainCleanup re-drives the condemned ledger and the pin debt. Called
// after every publish (outside the table locks) and by RecoverOrphans;
// the empty-ledger fast path is two map reads under a mutex.
func (h *Handler) drainCleanup() {
	h.cleanupMu.Lock()
	if len(h.condemned) == 0 && len(h.pinDebt) == 0 {
		h.cleanupMu.Unlock()
		return
	}
	condemned := make([]string, 0, len(h.condemned))
	for p := range h.condemned {
		condemned = append(condemned, p)
	}
	h.cleanupMu.Unlock()

	for _, p := range condemned {
		if err := h.removeMasterFile(p); err != nil {
			continue // still failing; stays in the ledger
		}
		h.cleanupMu.Lock()
		delete(h.condemned, p)
		h.cleanupMu.Unlock()
	}
	h.payPinDebt()
}

// payPinDebt delivers every owed Unpin it can.
func (h *Handler) payPinDebt() {
	h.cleanupMu.Lock()
	debt := make(map[string]int, len(h.pinDebt))
	for p, n := range h.pinDebt {
		debt[p] = n
	}
	h.cleanupMu.Unlock()
	for p, n := range debt {
		paid := 0
		for i := 0; i < n; i++ {
			err := retryDFS(func() error { return h.e.FS.Unpin(p) })
			if err == nil || errors.Is(err, dfs.ErrNotFound) || errors.Is(err, dfs.ErrNotPinned) {
				paid++
				continue
			}
			break
		}
		if paid > 0 {
			h.cleanupMu.Lock()
			if h.pinDebt[p] <= paid {
				delete(h.pinDebt, p)
			} else {
				h.pinDebt[p] -= paid
			}
			h.cleanupMu.Unlock()
		}
	}
}

// unpinRetry delivers one Unpin, retrying transient faults; on
// exhaustion the unpin is owed to the debt ledger instead of leaking a
// pin. Already-gone and already-unpinned files count as delivered.
// Must not be called with table locks held (it sleeps between
// retries); lock-holding call sites use unpinDeferred.
func (h *Handler) unpinRetry(p string) {
	err := retryDFS(func() error { return h.e.FS.Unpin(p) })
	if err == nil || errors.Is(err, dfs.ErrNotFound) || errors.Is(err, dfs.ErrNotPinned) {
		return
	}
	h.owePin(p)
}

// unpinDeferred delivers one Unpin with a single attempt — safe under
// the publish lock, where retry backoff would stall snapshot opens —
// deferring failures to the debt ledger.
func (h *Handler) unpinDeferred(p string) {
	err := h.e.FS.Unpin(p)
	if err == nil || errors.Is(err, dfs.ErrNotFound) || errors.Is(err, dfs.ErrNotPinned) {
		return
	}
	h.owePin(p)
}

// RecoverOrphans is the startup recovery scan: for every DUALTABLE
// table it sweeps the master directory for files no manifest in the
// chain names — every file outside what the retention window can serve
// is the residue of a crash (or fault) between staging and publish —
// and routes them through deferred deletion. It pays the pin debt
// first: a file whose last epoch left the window but whose expiry
// Unpin is still owed is no orphan, and the paid Unpin fires its
// deferred deletion. Unpublished files hold no acknowledged rows, so
// removing them cannot lose a write; and because every read resolves
// files through a manifest, the orphans were invisible anyway — this
// reclaims their storage and re-drives any condemned cleanup. It takes
// each table's writer lock, so it serializes with in-flight writes
// (whose staged-but-unpublished files must not be mistaken for
// orphans) but never blocks scans. Returns the orphan paths removed or
// condemned.
func (h *Handler) RecoverOrphans() ([]string, error) {
	h.payPinDebt()
	var recovered []string
	var firstErr error
	for _, name := range h.e.MS.List() {
		desc, err := h.e.MS.Get(name)
		if err != nil || desc.Storage != metastore.StorageDual {
			continue
		}
		orphans, err := h.recoverTable(desc)
		recovered = append(recovered, orphans...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	h.drainCleanup()
	sort.Strings(recovered)
	return recovered, firstErr
}

// recoverTable sweeps one table's master directory under its writer
// lock.
func (h *Handler) recoverTable(desc *metastore.TableDesc) ([]string, error) {
	st := h.state(desc.Name)
	st.writer.Lock()
	defer st.writer.Unlock()
	st.pub.Lock()
	dropped := st.dropped
	st.pub.Unlock()
	if dropped {
		return nil, nil // reclamation owns this incarnation's files
	}
	legit, ok := h.e.MS.ManifestHistoryFiles(desc.Name)
	if !ok {
		// CREATE publishes epoch 0 before the table becomes visible.
		return nil, fmt.Errorf("core: recover %s: %w", desc.Name, metastore.ErrNoManifest)
	}
	infos, err := h.e.FS.ListFiles(masterDir(desc))
	if errors.Is(err, dfs.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var orphans []string
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, ".") || legit[fi.Path] {
			continue
		}
		orphans = append(orphans, fi.Path)
		if err := h.removeMasterFile(fi.Path); err != nil {
			h.condemn(fi.Path)
		}
	}
	return orphans, nil
}
