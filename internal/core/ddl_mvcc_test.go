package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dualtable/internal/kvstore"
	"dualtable/internal/metastore"
)

// MVCC-DDL coverage: pin-aware DROP TABLE (the headline bug of this
// PR — a scan racing a DROP used to fail on its next file open) and
// AS OF EPOCH time travel over the retained manifest history.

// TestDropReleasesRetentionPins drops a table whose chain still names a
// COMPACT's superseded files while a snapshot of the current epoch
// defers the reclamation: the superseded files lose their retention
// pins at the DROP and go at once, the current files stay for the
// snapshot, and its release reclaims the rest.
func TestDropReleasesRetentionPins(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	old, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "COMPACT TABLE m")
	cur, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	desc, _ := e.MS.Get("m")
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "DROP TABLE m")
	for _, f := range old.Files {
		if e.FS.Exists(f.Path) || e.FS.Pins(f.Path) != 0 {
			t.Errorf("superseded file %s after DROP: exists %v, %d pins; want its retention pin released and the file gone",
				f.Path, e.FS.Exists(f.Path), e.FS.Pins(f.Path))
		}
	}
	for _, f := range cur.Files {
		if !e.FS.Exists(f.Path) || e.FS.Pins(f.Path) != 1 {
			t.Errorf("current file %s after DROP: exists %v, %d pins; want it kept by the open snapshot",
				f.Path, e.FS.Exists(f.Path), e.FS.Pins(f.Path))
		}
	}
	snap.Release()
	if e.FS.Exists(masterDir(desc)) {
		t.Errorf("master directory %s survived the last release", masterDir(desc))
	}
}

// TestDropTableIsPinAware is the regression test for the headline bug:
// a gated scan pins a snapshot, a concurrent DROP TABLE runs, and the
// scan must complete byte-identical to a solo scan — while the table's
// files and KV namespace are fully reclaimed exactly when the last pin
// drops (mirrors the TestCompactDoesNotBlockScans structure).
func TestDropTableIsPinAware(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 123.5 WHERE day < 4")
	mustExec(t, e, "DELETE FROM m WHERE day = 9")
	desc, _ := e.MS.Get("m")

	// Reference: a solo scan of the pre-DROP epoch.
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	if len(ref.rows) == 0 {
		t.Fatal("reference scan returned no rows")
	}
	man, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	attName := attachedName(desc)
	if !e.KV.HasTable(attName) {
		t.Fatalf("attached table %s missing before drop", attName)
	}

	// Two pinned snapshots: A scans concurrently with the DROP, B
	// scans only after the DROP completed.
	splitsA, releaseA, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	splitsB, releaseB, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var resA scanResult
	var errA error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resA, errA = runPinnedScan(e, splitsA, 4)
	}()
	mustExec(t, e, "DROP TABLE m")
	wg.Wait()
	if errA != nil {
		t.Fatalf("scan racing DROP failed: %v", errA)
	}
	assertSameScan(t, "scan racing DROP", ref, resA)

	// Tombstone: new scans and writes fail with ErrTableNotFound
	// immediately, even though reclamation is still pending.
	if _, err := e.Execute("SELECT COUNT(*) FROM m"); !errors.Is(err, metastore.ErrTableNotFound) {
		t.Fatalf("post-drop scan error = %v, want ErrTableNotFound", err)
	}
	if _, err := e.Execute("INSERT INTO m VALUES (1, 1, 1.0, 'x')"); !errors.Is(err, metastore.ErrTableNotFound) {
		t.Fatalf("post-drop insert error = %v, want ErrTableNotFound", err)
	}
	if _, err := h.OpenSnapshot(desc); !errors.Is(err, metastore.ErrTableNotFound) {
		t.Fatalf("post-drop handler open error = %v, want ErrTableNotFound", err)
	}

	// Pinned files survive the DROP condemned-but-readable; the KV
	// namespace survives with them (reclaimed only at last pin).
	for _, f := range man.Files {
		if !e.FS.Exists(f.Path) {
			t.Fatalf("pinned master %s deleted by DROP", f.Path)
		}
		if !e.FS.Condemned(f.Path) {
			t.Errorf("master %s not condemned after DROP", f.Path)
		}
	}
	if !e.KV.HasTable(attName) {
		t.Fatal("attached table reclaimed before last pin dropped")
	}

	// First pin drops: still one snapshot alive, nothing reclaimed.
	releaseA()
	for _, f := range man.Files {
		if !e.FS.Exists(f.Path) {
			t.Fatalf("master %s reclaimed while snapshot B still pinned", f.Path)
		}
	}
	if !e.KV.HasTable(attName) {
		t.Fatal("attached table reclaimed while snapshot B still pinned")
	}

	// The post-DROP pinned scan still reads its epoch byte-identically.
	resB, errB := runPinnedScan(e, splitsB, 4)
	if errB != nil {
		t.Fatalf("post-drop pinned scan: %v", errB)
	}
	assertSameScan(t, "post-drop pinned scan", ref, resB)

	// Last pin drops: everything is reclaimed — files, KV namespace,
	// manifest chain, warehouse directory.
	releaseB()
	for _, f := range man.Files {
		if e.FS.Exists(f.Path) {
			t.Errorf("master %s leaked after last pin dropped", f.Path)
		}
		if n := e.FS.Pins(f.Path); n != 0 {
			t.Errorf("master %s still has %d pins", f.Path, n)
		}
	}
	if e.KV.HasTable(attName) {
		t.Error("attached table leaked after last pin dropped")
	}
	if _, err := e.MS.CurrentManifest("m"); err == nil {
		t.Error("manifest chain leaked after last pin dropped")
	}
	if e.FS.Exists("/warehouse/m") {
		t.Error("warehouse directory leaked after last pin dropped")
	}
}

// TestDropRecreatePendingReclamationStartsEmpty covers DROP TABLE IF
// EXISTS vs. tombstoned tables: a re-DROP or re-CREATE of a name whose
// reclamation is still pending must not resurrect old attached rows —
// CREATE after a pending DROP starts from an empty epoch-0 manifest.
func TestDropRecreatePendingReclamationStartsEmpty(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 5.5 WHERE day = 3")
	desc, _ := e.MS.Get("m")
	oldAtt := attachedName(desc)

	// Hold a pin so the DROP's reclamation stays pending.
	_, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "DROP TABLE m")
	if !e.KV.HasTable(oldAtt) {
		t.Fatal("old attached table should survive until the pin drops")
	}
	// Re-DROP of the tombstoned name: IF EXISTS is a clean no-op, a
	// bare DROP reports the table missing.
	mustExec(t, e, "DROP TABLE IF EXISTS m")
	if _, err := e.Execute("DROP TABLE m"); !errors.Is(err, metastore.ErrTableNotFound) {
		t.Fatalf("re-DROP error = %v, want ErrTableNotFound", err)
	}

	// Re-CREATE while reclamation is pending: empty epoch-0 manifest,
	// no resurrected rows.
	mustExec(t, e, "CREATE TABLE m (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	desc2, _ := e.MS.Get("m")
	if ep, err := h.CurrentEpoch(desc2); err != nil || ep != 0 {
		t.Fatalf("re-created table epoch = %d (%v), want 0", ep, err)
	}
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 0 {
		t.Fatalf("re-created table has %d rows, want 0", rs.Rows[0][0].I)
	}
	rs = mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 5.5")
	if rs.Rows[0][0].I != 0 {
		t.Fatalf("old attached rows resurrected: %v", rs.Rows[0])
	}
	mustExec(t, e, "INSERT INTO m VALUES (1, 1, 1.0, 'x')")
	if n, err := h.AttachedEntryCount(desc2); err != nil || n != 0 {
		t.Fatalf("new incarnation attached entries = %d (%v), want 0", n, err)
	}

	// Re-DROP the new incarnation (no pins: immediate reclaim) and
	// create a third one — all while incarnation 1 is still pending.
	mustExec(t, e, "DROP TABLE m")
	mustExec(t, e, "CREATE TABLE m (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	mustExec(t, e, "INSERT INTO m VALUES (7, 7, 7.0, 'y'), (8, 8, 8.0, 'z')")
	rs = mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 2 {
		t.Fatalf("third incarnation count = %v, want 2", rs.Rows[0])
	}

	// Dropping the first incarnation's pin reclaims only its storage;
	// the live table is untouched.
	release()
	if e.KV.HasTable(oldAtt) {
		t.Error("old attached table leaked after last pin dropped")
	}
	rs = mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 2 {
		t.Fatalf("live table damaged by deferred reclamation: %v", rs.Rows[0])
	}
}

// TestTimeTravelReadsHistoricalEpochs drives SELECT ... AS OF EPOCH n
// through the SQL stack and checks each historical epoch returns
// exactly the rows captured when that epoch was current — including
// epochs whose master files were since replaced by COMPACT and
// OVERWRITE (served by the retention window's pinned files and
// preserved attached cells).
func TestTimeTravelReadsHistoricalEpochs(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	desc, _ := e.MS.Get("m")
	const q = "SELECT id, day, v, tag FROM m ORDER BY id"
	capture := func(sql string) []string {
		t.Helper()
		rs := mustExec(t, e, sql)
		out := make([]string, len(rs.Rows))
		for i, r := range rs.Rows {
			out[i] = r.String()
		}
		return out
	}
	assertEqual := func(label string, want, got []string) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
			}
		}
	}
	epoch := func() uint64 {
		t.Helper()
		ep, err := h.CurrentEpoch(desc)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}

	epBase := epoch()
	base := capture(q)
	mustExec(t, e, "UPDATE m SET v = 777.5 WHERE day = 3")
	epUpd := epoch()
	afterUpd := capture(q)
	mustExec(t, e, "DELETE FROM m WHERE day = 5")
	mustExec(t, e, "COMPACT TABLE m")
	epCompact := epoch()
	afterCompact := capture(q)
	mustExec(t, e, "INSERT INTO m VALUES (1000, 40, 9.5, 'new')")
	epNow := epoch()
	now := capture(q)

	asOf := func(ep uint64) []string {
		return capture(fmt.Sprintf("SELECT id, day, v, tag FROM m AS OF EPOCH %d ORDER BY id", ep))
	}
	assertEqual("AS OF base epoch", base, asOf(epBase))
	assertEqual("AS OF post-update epoch (pre-compact attached cells)", afterUpd, asOf(epUpd))
	assertEqual("AS OF post-compact epoch", afterCompact, asOf(epCompact))
	assertEqual("AS OF current epoch", now, asOf(epNow))

	// Alias + qualified columns parse with the clause too.
	rs := mustExec(t, e, fmt.Sprintf(
		"SELECT t.v FROM m t AS OF EPOCH %d WHERE t.id = 3", epUpd))
	if len(rs.Rows) != 1 || rs.Rows[0][0].F != 777.5 {
		t.Fatalf("aliased AS OF read = %v", rs.Rows)
	}

	// A never-published epoch is a clean, distinct error.
	if _, err := e.Execute("SELECT COUNT(*) FROM m AS OF EPOCH 99999"); !errors.Is(err, metastore.ErrEpochFuture) {
		t.Fatalf("future epoch error = %v, want ErrEpochFuture", err)
	}
}

// TestTimeTravelRetentionExpiresEpochs checks the pin-last-N-epochs
// policy end to end: inside the window the superseded files stay
// condemned-but-pinned and AS OF reads work; once the window passes,
// the pins release (deferred deletion fires), the orphan attached
// cells purge, and the epoch reports ErrEpochExpired.
func TestTimeTravelRetentionExpiresEpochs(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	desc, _ := e.MS.Get("m")
	mustExec(t, e, "UPDATE m SET v = 99999.5 WHERE day = 1")
	epOld, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}
	manOld, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}

	mustExec(t, e, "COMPACT TABLE m") // supersedes manOld's files
	for _, f := range manOld.Files {
		if !e.FS.Exists(f.Path) || !e.FS.Condemned(f.Path) {
			t.Fatalf("superseded master %s should be retained (condemned but pinned)", f.Path)
		}
	}
	rs := mustExec(t, e, fmt.Sprintf("SELECT COUNT(*) FROM m AS OF EPOCH %d WHERE v = 99999.5", epOld))
	if rs.Rows[0][0].I != 10 {
		t.Fatalf("in-window AS OF read = %v, want 10", rs.Rows[0])
	}

	// Advance to the window's edge: each EDIT bumps the epoch by one,
	// and epOld is then exactly RetentionEpochs behind — still served.
	for i := 1; i < metastore.RetentionEpochs; i++ {
		mustExec(t, e, fmt.Sprintf("UPDATE m SET v = %d.0 WHERE id = %d", i, i))
	}
	rs = mustExec(t, e, fmt.Sprintf("SELECT COUNT(*) FROM m AS OF EPOCH %d WHERE v = 99999.5", epOld))
	if rs.Rows[0][0].I != 10 {
		t.Fatalf("AS OF read at the window's edge = %v, want 10", rs.Rows[0])
	}
	// One more publish takes it out of the window.
	mustExec(t, e, "UPDATE m SET v = 0.5 WHERE id = 9")
	for _, f := range manOld.Files {
		if e.FS.Exists(f.Path) {
			t.Errorf("superseded master %s survived past the retention window", f.Path)
		}
	}
	// The orphan attached cells for the superseded file IDs are purged.
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range manOld.Files {
		start, end := FileRange(f.FileID)
		sc := att.NewScanner(kvstore.Scan{Start: start, End: end})
		if _, ok := sc.Next(); ok {
			t.Errorf("attached cells for superseded file %d survived the purge", f.FileID)
		}
		sc.Close()
	}
	if _, err := e.Execute(fmt.Sprintf("SELECT COUNT(*) FROM m AS OF EPOCH %d", epOld)); !errors.Is(err, metastore.ErrEpochExpired) {
		t.Fatalf("out-of-window epoch error = %v, want ErrEpochExpired", err)
	}
	// Current reads are untouched throughout.
	rs = mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 360 {
		t.Fatalf("current read after expiry = %v", rs.Rows[0])
	}
}

// TestDropCreateRaceLeavesUsableTable hammers CREATE/DROP/INSERT on
// one name from concurrent sessions: whatever interleaving occurs, the
// final CREATE must yield a fully usable table (the engine's per-name
// DDL lock keeps a CREATE racing a DROP's tombstone window from having
// its fresh storage torn down).
func TestDropCreateRaceLeavesUsableTable(t *testing.T) {
	e, _ := testEngine(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Any of these may legitimately fail (the name appears
				// and disappears under us); what matters is the end
				// state below.
				e.Execute("CREATE TABLE r (id BIGINT) STORED AS DUALTABLE")
				e.Execute("INSERT INTO r VALUES (1)")
				e.Execute("DROP TABLE IF EXISTS r")
			}
		}()
	}
	wg.Wait()
	mustExec(t, e, "DROP TABLE IF EXISTS r")
	mustExec(t, e, "CREATE TABLE r (id BIGINT) STORED AS DUALTABLE")
	mustExec(t, e, "INSERT INTO r VALUES (7)")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM r")
	if rs.Rows[0][0].I != 1 {
		t.Fatalf("post-race table unusable: count = %v", rs.Rows[0])
	}
}

// TestTimeTravelExpiredEpochRejectedWhileFilesPinned: window expiry
// must be enforced explicitly, not inferred from pin failures — an
// expired epoch whose files happen to survive (another long scan still
// pins them) had its attached cells purged, so serving it would
// silently drop that epoch's EDIT effects.
func TestTimeTravelExpiredEpochRejectedWhileFilesPinned(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	desc, _ := e.MS.Get("m")
	mustExec(t, e, "UPDATE m SET v = 4242.5 WHERE day = 2")
	epOld, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}
	manOld, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	// A long-running scan keeps the pre-compact files pinned alive.
	_, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	mustExec(t, e, "COMPACT TABLE m")
	for i := 1; i <= metastore.RetentionEpochs; i++ { // window passed
		mustExec(t, e, fmt.Sprintf("UPDATE m SET v = %d.0 WHERE id = %d", i, i))
	}
	for _, f := range manOld.Files {
		if !e.FS.Exists(f.Path) {
			t.Fatalf("file %s should still be alive (scan pin)", f.Path)
		}
	}
	if _, err := e.Execute(fmt.Sprintf("SELECT COUNT(*) FROM m AS OF EPOCH %d", epOld)); !errors.Is(err, metastore.ErrEpochExpired) {
		t.Fatalf("expired epoch with live files = %v, want ErrEpochExpired", err)
	}
}

// TestTimeTravelServesExactlyTheWindow runs a history of 3×RetentionEpochs
// and more publishes — EDIT UPDATE and DELETE, INSERT, COMPACT and a forced
// OVERWRITE in turn — and records every epoch's rows. An epoch within
// RetentionEpochs of the current one must read back exactly as recorded,
// at every point of the history and at its end; an older one must report
// ErrEpochExpired. At the end the files only expired epochs used are gone
// with their attached cells, the retained ones hold just their retention
// pin, and no snapshot is left open.
func TestTimeTravelServesExactlyTheWindow(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	desc, _ := e.MS.Get("m")
	const n = metastore.RetentionEpochs
	sortedRows := func(sql string) []string {
		t.Helper()
		rs := mustExec(t, e, sql)
		rows := make([]string, len(rs.Rows))
		for i, r := range rs.Rows {
			rows[i] = r.String()
		}
		sort.Strings(rows)
		return rows
	}
	rows := map[uint64][]string{}
	files := map[uint64][]metastore.ManifestFile{}
	record := func() uint64 {
		t.Helper()
		man, err := e.MS.CurrentManifest("m")
		if err != nil {
			t.Fatal(err)
		}
		rows[man.Epoch] = sortedRows("SELECT id, day, v, tag FROM m")
		files[man.Epoch] = man.Files
		return man.Epoch
	}
	check := func(when string, epoch, cur uint64) {
		t.Helper()
		q := fmt.Sprintf("SELECT id, day, v, tag FROM m AS OF EPOCH %d", epoch)
		if cur-epoch <= n {
			if got := sortedRows(q); !reflect.DeepEqual(got, rows[epoch]) {
				t.Fatalf("%s: AS OF EPOCH %d (current %d) returned %d rows, not the %d recorded",
					when, epoch, cur, len(got), len(rows[epoch]))
			}
		} else if _, err := e.Execute(q); !errors.Is(err, metastore.ErrEpochExpired) {
			t.Fatalf("%s: AS OF EPOCH %d (current %d) = %v, want ErrEpochExpired", when, epoch, cur, err)
		}
	}

	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	// checkFiles holds every file recorded so far to what the window says
	// of it at cur: in the current manifest, present and unpinned; used by
	// an epoch in the window, present with its retention pin; else gone,
	// and its attached cells with it.
	checkFiles := func(when string, cur uint64) {
		t.Helper()
		live := map[string]bool{}
		for _, f := range files[cur] {
			live[f.Path] = true
		}
		retained := map[string]bool{}
		for epoch, fs := range files {
			if cur-epoch <= n {
				for _, f := range fs {
					retained[f.Path] = !live[f.Path]
				}
			}
		}
		// The chain names exactly the live and retained files.
		chain, _ := e.MS.ManifestHistoryFiles("m")
		if len(chain) != len(retained) {
			t.Errorf("%s: the chain names %d files, the window %d", when, len(chain), len(retained))
		}
		for p := range retained {
			if !chain[p] {
				t.Errorf("%s: the chain does not name window file %s", when, p)
			}
		}
		for _, fs := range files {
			for _, f := range fs {
				exists, pins := e.FS.Exists(f.Path), e.FS.Pins(f.Path)
				switch {
				case live[f.Path]:
					if !exists || pins != 0 {
						t.Errorf("%s: current file %s: exists %v, %d pins; want it present and unpinned", when, f.Path, exists, pins)
					}
				case retained[f.Path]:
					if !exists || pins != 1 {
						t.Errorf("%s: retained file %s: exists %v, %d pins; want it present with its retention pin", when, f.Path, exists, pins)
					}
				default:
					if exists || pins != 0 {
						t.Errorf("%s: expired file %s: exists %v, %d pins; want it gone", when, f.Path, exists, pins)
					}
					start, end := FileRange(f.FileID)
					sc := att.NewScanner(kvstore.Scan{Start: start, End: end})
					if _, ok := sc.Next(); ok {
						t.Errorf("%s: attached cells of expired file %s survived", when, f.Path)
					}
					sc.Close()
				}
			}
		}
	}

	last := record()
	for i := 0; i < 3*n+6; i++ {
		switch i % 5 {
		case 0:
			mustExec(t, e, fmt.Sprintf("UPDATE m SET v = v + 1.25 WHERE day = %d", i%36))
		case 1:
			mustExec(t, e, fmt.Sprintf("DELETE FROM m WHERE day = %d", (i*7)%36))
		case 2:
			mustExec(t, e, fmt.Sprintf("INSERT INTO m VALUES (%d, %d, %d.75, 'ins')", 1000+i, i%36, i))
		case 3:
			mustExec(t, e, "COMPACT TABLE m")
		case 4:
			forcePlan(e, h, "OVERWRITE")
			mustExec(t, e, fmt.Sprintf("UPDATE m SET tag = 'ow%d' WHERE day = %d", i, (i*5)%36))
			forcePlan(e, h, "EDIT")
		}
		cur := record()
		if cur != last+1 {
			t.Fatalf("step %d published epoch %d after %d: an epoch went unrecorded", i, cur, last)
		}
		last = cur
		// The window's oldest epoch is served, the one below it is not.
		for _, epoch := range []uint64{cur - n, cur - n - 1} {
			if _, ok := rows[epoch]; ok {
				check(fmt.Sprintf("step %d", i), epoch, cur)
			}
		}
		checkFiles(fmt.Sprintf("step %d", i), cur)
	}

	for epoch := range rows {
		check("end", epoch, last)
	}
	checkFiles("end", last)
	st := h.state("m")
	st.pub.Lock()
	snaps := st.snaps
	st.pub.Unlock()
	if snaps != 0 {
		t.Errorf("%d snapshots still open", snaps)
	}
}
