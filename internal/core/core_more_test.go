package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
)

// Second-round coverage: locking, pushdown interaction with the
// attached table, statistics estimation, and edge cases.

// runPinnedScan executes one identity map-only job over pre-built
// pinned splits with the given parallelism, returning an error
// instead of failing the test (safe from worker goroutines).
func runPinnedScan(e *hive.Engine, splits []mapred.InputSplit, workers int) (scanResult, error) {
	mr := mapred.NewCluster(e.MR.Params)
	mr.Parallelism = workers
	job := &mapred.Job{
		Name:   "mvcc-scan",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
				out := row.Clone()
				out = append(out, datum.Int(int64(meta.RecordID)))
				return emit(nil, out)
			})
		},
	}
	res, err := mr.Run(job)
	if err != nil {
		return scanResult{}, err
	}
	out := scanResult{counts: res.Counters, simSecs: res.SimSeconds}
	for _, r := range res.Rows {
		out.rows = append(out.rows, r.String())
	}
	return out, nil
}

// TestCompactDoesNotBlockScans is the MVCC flip side of the old
// "COMPACT blocks everything" contract: a COMPACT held mid-flight
// (staged but not yet published) must not block concurrent scans —
// each scan pins the pre-compaction epoch and returns rows, Counters
// and SimSeconds byte-identical to a solo scan of that epoch — while
// concurrent *writers* still block until the compaction finishes. A
// scan pinned before the epoch swap completes after it, against the
// superseded files deferred deletion kept alive; the files go once the
// scan released them and the compaction's epoch left the retention
// window.
func TestCompactDoesNotBlockScans(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 9999.5 WHERE day < 6")
	mustExec(t, e, "DELETE FROM m WHERE day = 7")
	desc, _ := e.MS.Get("m")
	epochBefore, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: a solo scan of the pre-compaction epoch.
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	if len(ref.rows) == 0 {
		t.Fatal("reference scan returned no rows")
	}
	manBefore, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}

	// Gate the compaction between stage (rewrite job done) and
	// publish (epoch swap).
	staged := make(chan struct{})
	releaseGate := make(chan struct{})
	h.SetCompactStagedHook(func(string) { close(staged); <-releaseGate })
	t.Cleanup(func() { h.SetCompactStagedHook(nil) })
	compactDone := make(chan error, 1)
	go func() {
		_, err := e.Execute("COMPACT TABLE m")
		compactDone <- err
	}()
	<-staged

	// A writer issued mid-COMPACT must block until the compaction
	// releases the writer lock (the paper's blocking contract, now
	// scoped to writers only).
	dmlDone := make(chan error, 1)
	go func() {
		_, err := e.Execute("UPDATE m SET v = 1.0 WHERE id = 1")
		dmlDone <- err
	}()

	// One scan pins the pre-compaction epoch now and runs only after
	// the epoch swap: deferred deletion must keep its files alive.
	pinnedSplits, releasePin, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Four workers scan mid-COMPACT; all must run to completion while
	// the compaction is still in flight — no scan blocked on the
	// table lock.
	const scanners = 4
	results := make([]scanResult, scanners)
	errs := make([]error, scanners)
	var wg sync.WaitGroup
	for i := 0; i < scanners; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			splits, release, err := h.Splits(desc, ScanOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			defer release()
			results[i], errs[i] = runPinnedScan(e, splits, 4)
		}()
	}
	wg.Wait()
	select {
	case err := <-compactDone:
		t.Fatalf("compaction published before the gate opened: %v", err)
	case err := <-dmlDone:
		t.Fatalf("writer did not block on in-flight COMPACT: %v", err)
	default:
	}
	for i := 0; i < scanners; i++ {
		if errs[i] != nil {
			t.Fatalf("mid-compact scan %d: %v", i, errs[i])
		}
		assertSameScan(t, fmt.Sprintf("mid-compact scan %d", i), ref, results[i])
	}

	// Open the gate: the compaction publishes, the blocked writer
	// proceeds.
	close(releaseGate)
	if err := <-compactDone; err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := <-dmlDone; err != nil {
		t.Fatalf("update after compact: %v", err)
	}

	// The pre-swap pinned scan still reads its epoch byte-identically
	// — superseded masters survive until the pin drops.
	late, err := runPinnedScan(e, pinnedSplits, 4)
	if err != nil {
		t.Fatalf("post-swap pinned scan: %v", err)
	}
	assertSameScan(t, "post-swap pinned scan", ref, late)
	for _, f := range manBefore.Files {
		if !e.FS.Exists(f.Path) {
			t.Errorf("superseded master %s removed while still pinned", f.Path)
		}
	}
	releasePin()
	// The scan pin dropped, but the retention window still serves the
	// pre-compaction epochs from these files.
	for _, f := range manBefore.Files {
		if !e.FS.Exists(f.Path) {
			t.Errorf("superseded master %s removed inside the retention window", f.Path)
		}
	}
	// RetentionEpochs more publishes take the compaction's epoch out of
	// the window: deferred deletion reclaims every superseded master —
	// no leak.
	for i := 0; i < metastore.RetentionEpochs; i++ {
		mustExec(t, e, "UPDATE m SET v = 1.0 WHERE id = 1")
	}
	for _, f := range manBefore.Files {
		if e.FS.Exists(f.Path) {
			t.Errorf("superseded master %s leaked after last pin dropped", f.Path)
		}
		if n := e.FS.Pins(f.Path); n != 0 {
			t.Errorf("superseded master %s still has %d pins", f.Path, n)
		}
	}

	// Epoch advanced; attached table cleared up to the post-compact
	// UPDATE's single re-applied cell; row content preserved.
	epochAfter, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}
	if epochAfter <= epochBefore {
		t.Errorf("epoch did not advance: %d -> %d", epochBefore, epochAfter)
	}
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 9999.5")
	want := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE day < 6 AND id != 1")
	if rs.Rows[0][0].I != want.Rows[0][0].I {
		t.Errorf("post-compact content: %v updated rows, want %v", rs.Rows[0][0].I, want.Rows[0][0].I)
	}
}

func TestPushdownDisabledWithDirtyAttached(t *testing.T) {
	// Predicate pushdown must not prune stripes whose rows were
	// updated into matching: with a dirty attached table, stripe
	// stats are stale, so pushdown is skipped.
	e, h := testEngine(t)
	mustExec(t, e, "CREATE TABLE p (id BIGINT, v BIGINT) STORED AS DUALTABLE")
	var sb strings.Builder
	sb.WriteString("INSERT INTO p VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, e, sb.String())
	forcePlan(e, h, "EDIT")
	// Make one low-id row match a high-v predicate via the attached
	// table.
	mustExec(t, e, "UPDATE p SET v = 1000000 WHERE id = 3")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM p WHERE v >= 1000000")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("pushdown dropped an attached-table update: %v", rs.Rows[0])
	}
	// After COMPACT the stats are fresh and the row must still match.
	mustExec(t, e, "COMPACT TABLE p")
	rs = mustExec(t, e, "SELECT COUNT(*) FROM p WHERE v >= 1000000")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("post-compact pushdown lost the row: %v", rs.Rows[0])
	}
}

func TestStatsSelectivityEstimate(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e) // 360 rows, day = i%36
	desc, _ := e.MS.Get("m")
	files := snapshotFiles(t, h, desc)
	// WHERE day = 50 matches nothing: stripe stats prove it.
	stmt := "UPDATE m SET v = 0.0 WHERE day = 500"
	parsed := mustParseUpdate(t, stmt)
	est := h.statsSelectivity(desc, files, parsed.Where, "m")
	if est != 0 {
		t.Errorf("impossible predicate estimate = %v, want 0", est)
	}
	// WHERE with no pushable conjuncts yields no estimate (-1).
	parsed = mustParseUpdate(t, "UPDATE m SET v = 0.0 WHERE v * 2 > day")
	est = h.statsSelectivity(desc, files, parsed.Where, "m")
	if est != -1 {
		t.Errorf("non-pushable estimate = %v, want -1", est)
	}
	// No WHERE = ratio 1.
	est = h.statsSelectivity(desc, files, nil, "m")
	if est != 1 {
		t.Errorf("whereless estimate = %v, want 1", est)
	}
}

func TestAttachedTableGrowsAndCompactClears(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	desc, _ := e.MS.Get("m")
	var prev int64
	for i := 0; i < 3; i++ {
		mustExec(t, e, fmt.Sprintf("UPDATE m SET v = %d.0 WHERE day = %d", i, i))
		n, _ := h.AttachedEntryCount(desc)
		if n <= prev {
			t.Fatalf("attached table did not grow: %d -> %d", prev, n)
		}
		prev = n
	}
	mustExec(t, e, "COMPACT TABLE m")
	if n, _ := h.AttachedEntryCount(desc); n != 0 {
		t.Errorf("attached after compact = %d", n)
	}
}

func TestNoOpUpdateWritesNothing(t *testing.T) {
	// Setting a column to its current value is elided (no attached
	// cells, zero affected).
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	rs := mustExec(t, e, "UPDATE m SET day = day WHERE id < 100")
	if rs.Affected != 0 {
		t.Errorf("no-op update affected = %d", rs.Affected)
	}
	desc, _ := e.MS.Get("m")
	if n, _ := h.AttachedEntryCount(desc); n != 0 {
		t.Errorf("no-op update wrote %d cells", n)
	}
}

func TestUpdateToNullViaEdit(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET tag = NULL WHERE id = 11")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE tag IS NULL")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("null update = %v", rs.Rows[0])
	}
}

func TestManyMasterFilesUnionRead(t *testing.T) {
	e, h := testEngine(t)
	mustExec(t, e, "CREATE TABLE mm (id BIGINT, v BIGINT) STORED AS DUALTABLE")
	// Five separate inserts → five master files with distinct IDs.
	for f := 0; f < 5; f++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO mm VALUES ")
		for i := 0; i < 20; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", f*20+i, f)
		}
		mustExec(t, e, sb.String())
	}
	desc, _ := e.MS.Get("mm")
	files := snapshotFiles(t, h, desc)
	if len(files) != 5 {
		t.Fatalf("master files = %d", len(files))
	}
	forcePlan(e, h, "EDIT")
	// Update rows spanning several files.
	mustExec(t, e, "UPDATE mm SET v = 99 WHERE id % 20 = 7")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM mm WHERE v = 99")
	if rs.Rows[0][0].I != 5 {
		t.Errorf("cross-file update = %v", rs.Rows[0])
	}
	// Delete across files, then compact down to fresh files.
	mustExec(t, e, "DELETE FROM mm WHERE id % 20 = 3")
	mustExec(t, e, "COMPACT TABLE mm")
	rs = mustExec(t, e, "SELECT COUNT(*) FROM mm")
	if rs.Rows[0][0].I != 95 {
		t.Errorf("after compact = %v", rs.Rows[0])
	}
}

func TestConcurrentReadsDuringEdit(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := e.Execute("SELECT COUNT(*) FROM m"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Execute(fmt.Sprintf("UPDATE m SET v = %d.5 WHERE day = %d", i, i)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDescribeDualTable(t *testing.T) {
	e, _ := testEngine(t)
	seedDual(t, e)
	rs := mustExec(t, e, "DESCRIBE m")
	found := false
	for _, r := range rs.Rows {
		if strings.Contains(r.String(), "DUALTABLE") {
			found = true
		}
	}
	if !found {
		t.Errorf("describe should name the storage: %v", rs.Rows)
	}
}

func mustParseUpdate(t *testing.T, sql string) *updateStmtWrapper {
	t.Helper()
	stmt, err := parseUpdate(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// Small indirection to keep the sqlparser import local to this file's
// helper.
type updateStmtWrapper = updateAlias
