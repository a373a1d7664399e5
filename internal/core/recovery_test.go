package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"dualtable/internal/dfs"
	"dualtable/internal/fault"
	"dualtable/internal/hive"
	"dualtable/internal/metastore"
)

// fastCleanup shrinks the cleanup backoff for the duration of a test.
func fastCleanup(t *testing.T) {
	t.Helper()
	oldBackoff := cleanupBackoff
	cleanupBackoff = 100 * time.Microsecond
	t.Cleanup(func() { cleanupBackoff = oldBackoff })
}

// masterDirFiles lists the table's master directory (empty on absent).
func masterDirFiles(t *testing.T, e *hive.Engine, table string) map[string]bool {
	t.Helper()
	desc, err := e.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	infos, err := e.FS.ListFiles(masterDir(desc))
	if errors.Is(err, dfs.ErrNotFound) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		out[fi.Path] = true
	}
	return out
}

// assertNoOrphans fails unless the master directory holds exactly the
// files of the manifests still in history (current + retained).
func assertNoOrphans(t *testing.T, e *hive.Engine, table string) {
	t.Helper()
	legit, ok := e.MS.ManifestHistoryFiles(table)
	if !ok {
		t.Fatalf("%s has no manifest chain", table)
	}
	for p := range masterDirFiles(t, e, table) {
		if !legit[p] {
			t.Errorf("orphan master file leaked: %s", p)
		}
	}
}

// TestCompactAbortReclaimsStagedFiles cancels a COMPACT between stage
// and publish: the staged files must be reclaimed, the epoch
// unchanged, and a follow-up COMPACT must succeed.
func TestCompactAbortReclaimsStagedFiles(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 1.5 WHERE day < 4")
	desc, _ := e.MS.Get("m")
	epochBefore, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}
	before := masterDirFiles(t, e, "m")
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)

	// Cancel between stage (rewrite job done) and publish.
	ctx, cancel := context.WithCancel(context.Background())
	h.SetCompactStagedHook(func(string) { cancel() })
	t.Cleanup(func() { h.SetCompactStagedHook(nil) })
	_, err = e.ExecuteCtx(&hive.ExecContext{Ctx: ctx}, "COMPACT TABLE m")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled COMPACT: want context.Canceled, got %v", err)
	}
	h.SetCompactStagedHook(nil)

	if epoch, _ := h.CurrentEpoch(desc); epoch != epochBefore {
		t.Fatalf("aborted COMPACT moved the epoch: %d -> %d", epochBefore, epoch)
	}
	after := masterDirFiles(t, e, "m")
	if len(after) != len(before) {
		t.Fatalf("aborted COMPACT leaked staged files: %d before, %d after", len(before), len(after))
	}
	for p := range after {
		if !before[p] {
			t.Errorf("staged file survived the abort: %s", p)
		}
	}
	if got := h.CondemnedPaths(); len(got) != 0 {
		t.Fatalf("clean abort left condemned paths: %v", got)
	}

	// The follow-up COMPACT succeeds and preserves the data.
	mustExec(t, e, "COMPACT TABLE m")
	got := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	assertSameScanRows(t, "post-abort COMPACT", ref, got)
	assertNoOrphans(t, e, "m")
}

// TestAbortCleanupRetriesTransientFaults injects transient delete
// faults under the abort path: the bounded-backoff retry must still
// reclaim every staged file.
func TestAbortCleanupRetriesTransientFaults(t *testing.T) {
	fastCleanup(t)
	e, h := testEngine(t)
	seedDual(t, e)
	before := masterDirFiles(t, e, "m")

	ctx, cancel := context.WithCancel(context.Background())
	h.SetCompactStagedHook(func(string) {
		// Fail the first two deletes of every staged file's reclaim.
		e.FS.SetFaultInjector(fault.NewSchedule(
			dfs.FaultRule{Op: dfs.OpDelete, Subject: "/warehouse/m/", Times: 2},
		))
		cancel()
	})
	t.Cleanup(func() {
		h.SetCompactStagedHook(nil)
		e.FS.SetFaultInjector(nil)
	})
	_, err := e.ExecuteCtx(&hive.ExecContext{Ctx: ctx}, "COMPACT TABLE m")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled COMPACT: want context.Canceled, got %v", err)
	}
	e.FS.SetFaultInjector(nil)

	after := masterDirFiles(t, e, "m")
	for p := range after {
		if !before[p] {
			t.Errorf("staged file survived a retried abort: %s", p)
		}
	}
	if got := h.CondemnedPaths(); len(got) != 0 {
		t.Fatalf("transient faults should not condemn: %v", got)
	}
}

// TestAbortCleanupCondemnsOnPersistentFault exhausts the cleanup
// retries: the staged files must land in the condemned ledger and be
// reclaimed by the recovery scan once the fault clears.
func TestAbortCleanupCondemnsOnPersistentFault(t *testing.T) {
	fastCleanup(t)
	e, h := testEngine(t)
	seedDual(t, e)
	before := masterDirFiles(t, e, "m")

	ctx, cancel := context.WithCancel(context.Background())
	h.SetCompactStagedHook(func(string) {
		e.FS.SetFaultInjector(fault.NewSchedule(
			dfs.FaultRule{Op: dfs.OpDelete, Subject: "/warehouse/m/", Times: 1 << 20},
		))
		cancel()
	})
	t.Cleanup(func() {
		h.SetCompactStagedHook(nil)
		e.FS.SetFaultInjector(nil)
	})
	_, err := e.ExecuteCtx(&hive.ExecContext{Ctx: ctx}, "COMPACT TABLE m")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled COMPACT: want context.Canceled, got %v", err)
	}

	condemned := h.CondemnedPaths()
	if len(condemned) == 0 {
		t.Fatal("persistent delete faults must condemn the staged files")
	}
	staged := masterDirFiles(t, e, "m")
	for p := range before {
		delete(staged, p)
	}
	if len(staged) == 0 {
		t.Fatal("expected staged files to survive while condemned")
	}

	// Fault clears; the recovery scan re-drives the condemned cleanup.
	e.FS.SetFaultInjector(nil)
	recovered, err := h.RecoverOrphans()
	if err != nil {
		t.Fatalf("RecoverOrphans: %v", err)
	}
	if len(recovered) == 0 {
		t.Fatal("recovery scan reported no orphans")
	}
	if got := h.CondemnedPaths(); len(got) != 0 {
		t.Fatalf("recovery left condemned paths: %v", got)
	}
	assertNoOrphans(t, e, "m")
	for p := range staged {
		if e.FS.Exists(p) {
			t.Errorf("condemned staged file survived recovery: %s", p)
		}
	}
}

// TestTornWriteDuringInsertAborts tears a write mid-INSERT: the
// statement fails, the torn file (left with an abandoned lease) is
// reclaimed via lease recovery, and a follow-up INSERT succeeds.
func TestTornWriteDuringInsertAborts(t *testing.T) {
	fastCleanup(t)
	e, h := testEngine(t)
	seedDual(t, e)
	before := masterDirFiles(t, e, "m")
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)

	e.FS.SetFaultInjector(fault.NewSchedule(
		dfs.FaultRule{Op: dfs.OpWrite, Subject: "/warehouse/m/", Verdict: dfs.Fault{TearBytes: 7}},
	))
	t.Cleanup(func() { e.FS.SetFaultInjector(nil) })
	if _, err := e.Execute("INSERT INTO m VALUES (9001, 1, 1.5, 'torn')"); err == nil {
		t.Fatal("INSERT over a torn write should fail")
	}
	e.FS.SetFaultInjector(nil)

	after := masterDirFiles(t, e, "m")
	for p := range after {
		if !before[p] {
			t.Errorf("torn staged file survived the abort: %s", p)
		}
	}
	got := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	assertSameScanRows(t, "post-torn-write scan", ref, got)

	mustExec(t, e, "INSERT INTO m VALUES (9002, 1, 2.5, 'ok')")
	got = runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	if len(got.rows) != len(ref.rows)+1 {
		t.Fatalf("follow-up INSERT: %d rows, want %d", len(got.rows), len(ref.rows)+1)
	}
	assertNoOrphans(t, e, "m")
}

// TestRecoverOrphansSweepsUnpublished plants unpublished files in the
// master directory — one sealed, one with an abandoned write lease —
// and expects the recovery scan to reclaim exactly those.
func TestRecoverOrphansSweepsUnpublished(t *testing.T) {
	fastCleanup(t)
	e, h := testEngine(t)
	seedDual(t, e)
	desc, _ := e.MS.Get("m")
	dir := masterDir(desc)

	sealed := dir + "/m-90000001.orc"
	if err := e.FS.WriteFile(sealed, []byte("staged but never published")); err != nil {
		t.Fatal(err)
	}
	torn := dir + "/m-90000002.orc"
	w, err := e.FS.Create(torn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	// Never closed: a crashed writer's abandoned lease.

	recovered, err := h.RecoverOrphans()
	if err != nil {
		t.Fatalf("RecoverOrphans: %v", err)
	}
	want := map[string]bool{sealed: true, torn: true}
	if len(recovered) != 2 || !want[recovered[0]] || !want[recovered[1]] {
		t.Fatalf("recovered %v, want %s and %s", recovered, sealed, torn)
	}
	if e.FS.Exists(sealed) || e.FS.Exists(torn) {
		t.Fatal("orphans survived the recovery scan")
	}
	// Legit files are untouched and the table still reads.
	assertNoOrphans(t, e, "m")
	if got := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false); len(got.rows) != 360 {
		t.Fatalf("post-recovery scan: %d rows, want 360", len(got.rows))
	}

	// Idempotent: a second scan finds nothing.
	recovered, err = h.RecoverOrphans()
	if err != nil || len(recovered) != 0 {
		t.Fatalf("second RecoverOrphans = %v, %v; want empty, nil", recovered, err)
	}
}

// TestRecoverOrphansPaysOwedExpiryUnpins fails every Unpin of a
// COMPACT's superseded files until they have left the retention window:
// their expiry Unpins are owed, so the files are still on disk but no
// manifest in the chain names them. Once the fault clears, the recovery
// scan pays the owed Unpins before it sweeps, so the files go through
// their deferred deletion and none is reported as an orphan.
func TestRecoverOrphansPaysOwedExpiryUnpins(t *testing.T) {
	fastCleanup(t)
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	old, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "COMPACT TABLE m")
	var rules []dfs.FaultRule
	for _, f := range old.Files {
		rules = append(rules, dfs.FaultRule{Op: dfs.OpUnpin, Subject: f.Path, Times: math.MaxInt})
	}
	e.FS.SetFaultInjector(fault.NewSchedule(rules...))
	t.Cleanup(func() { e.FS.SetFaultInjector(nil) })
	for i := 1; i <= metastore.RetentionEpochs; i++ {
		mustExec(t, e, fmt.Sprintf("UPDATE m SET v = %d.25 WHERE id = %d", i, i))
	}
	e.FS.SetFaultInjector(nil)
	for _, f := range old.Files {
		if !e.FS.Exists(f.Path) || e.FS.Pins(f.Path) != 1 {
			t.Fatalf("expired file %s: exists %v, %d pins; want it kept by its owed Unpin", f.Path, e.FS.Exists(f.Path), e.FS.Pins(f.Path))
		}
	}

	recovered, err := h.RecoverOrphans()
	if err != nil || len(recovered) != 0 {
		t.Fatalf("RecoverOrphans = %v, %v; want no orphans", recovered, err)
	}
	for _, f := range old.Files {
		if e.FS.Exists(f.Path) || e.FS.Pins(f.Path) != 0 {
			t.Errorf("expired file %s: exists %v, %d pins; want it gone", f.Path, e.FS.Exists(f.Path), e.FS.Pins(f.Path))
		}
	}
	assertNoOrphans(t, e, "m")
}

// TestUnpinFaultDoesNotLeakPins injects transient unpin faults at
// snapshot release: the retried delivery must bring every pin back to
// zero so deferred deletion is never stranded.
func TestUnpinFaultDoesNotLeakPins(t *testing.T) {
	fastCleanup(t)
	e, h := testEngine(t)
	seedDual(t, e)
	desc, _ := e.MS.Get("m")

	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	pinned := snap.Files()
	if len(pinned) == 0 {
		t.Fatal("snapshot pinned no files")
	}
	e.FS.SetFaultInjector(fault.NewSchedule(
		dfs.FaultRule{Op: dfs.OpUnpin, Subject: "/warehouse/m/", Times: 3},
	))
	t.Cleanup(func() { e.FS.SetFaultInjector(nil) })
	snap.Release()
	e.FS.SetFaultInjector(nil)

	for _, p := range pinned {
		if n := e.FS.Pins(p); n != 0 {
			t.Errorf("pin leaked on %s: %d", p, n)
		}
	}
}

// assertSameScanRows compares the data columns of two scans as sets,
// dropping the trailing record ID the scan helper appends (a COMPACT
// legitimately reassigns file IDs, and hence record IDs).
func assertSameScanRows(t *testing.T, label string, want, got scanResult) {
	t.Helper()
	if len(want.rows) != len(got.rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.rows), len(want.rows))
	}
	stripID := func(rows []string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			if j := strings.LastIndexByte(r, '\t'); j >= 0 {
				r = r[:j]
			}
			out[i] = r
		}
		return out
	}
	w, g := stripID(want.rows), stripID(got.rows)
	sort.Strings(w)
	sort.Strings(g)
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, g[i], w[i])
		}
	}
}
