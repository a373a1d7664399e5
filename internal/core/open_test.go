package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

// Ordering tests for Handler.open: the onSnapshotLoaded hook runs a
// publish at the one point where it can matter — after an open loaded
// its epoch, before the open tests the retention window — so every
// interleaving below is constructed, not waited for.

// editedTable is seedDual plus one EDIT UPDATE: one master file, ten
// attached entries.
func editedTable(t *testing.T) (*hive.Engine, *Handler, *metastore.TableDesc, uint64) {
	t.Helper()
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 4242.5 WHERE day = 3")
	desc, err := e.MS.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}
	return e, h, desc, epoch
}

// duringOpens runs fn at every load the outermost open finishes outside
// the publish lock (the statements fn executes open snapshots of their
// own; those pass through) and returns the list of snapshots so loaded.
func duringOpens(t *testing.T, h *Handler, fn func(attempt int)) *[]*Snapshot {
	t.Helper()
	var loaded []*Snapshot
	nested := false
	h.onSnapshotLoaded = func(s *Snapshot) {
		if nested {
			return
		}
		nested = true
		defer func() { nested = false }()
		loaded = append(loaded, s)
		fn(len(loaded) - 1)
	}
	t.Cleanup(func() { h.onSnapshotLoaded = nil })
	return &loaded
}

// evict empties the table's resident epoch, so the next open is the
// full load an open of a never-read table is.
func evict(h *Handler) {
	st := h.state("m")
	st.pub.Lock()
	st.res = nil
	st.pub.Unlock()
}

// entryCount is the number of records the snapshot's overlays touch.
func entryCount(s *Snapshot) int {
	n := 0
	for _, ov := range s.entries {
		n += len(overlayRecords(ov))
	}
	return n
}

// overlayRecords returns the ordinals an overlay deletes or patches,
// ascending.
func overlayRecords(ov *hive.Overlay) []uint32 {
	ords := slices.Clone(ov.Deleted)
	for _, p := range ov.Patches {
		ords = append(ords, p.Ords...)
	}
	slices.Sort(ords)
	return slices.Compact(ords)
}

// wantGone checks that a discarded attempt left nothing behind.
func wantGone(t *testing.T, e *hive.Engine, s *Snapshot) {
	t.Helper()
	for _, p := range s.Files() {
		if n := e.FS.Pins(p); n != 0 {
			t.Errorf("%s still has %d pins", p, n)
		}
		if e.FS.Exists(p) {
			t.Errorf("%s survived its last pin", p)
		}
	}
}

// A COMPACT that lands mid-open inside the retention window keeps the
// superseded set's cells, so the open is exact at the epoch it pinned:
// one attempt, nothing thrown away.
func TestOpenRacingCompactKeepsPinnedEpoch(t *testing.T) {
	e, h, desc, epoch := editedTable(t)
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	evict(h) // the scan left the epoch resident, and a resident open has no load to race

	loaded := duringOpens(t, h, func(int) { mustExec(t, e, "COMPACT TABLE m") })
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if len(*loaded) != 1 {
		t.Errorf("open took %d attempts, want 1", len(*loaded))
	}
	if cur, _ := h.CurrentEpoch(desc); cur != epoch+1 {
		t.Fatalf("current epoch %d, want %d: the COMPACT did not land inside the open", cur, epoch+1)
	}
	if snap.Epoch != epoch {
		t.Errorf("snapshot epoch %d, want the pinned epoch %d", snap.Epoch, epoch)
	}
	if n := entryCount(snap); n != 10 {
		t.Errorf("snapshot holds %d attached entries, want 10", n)
	}
	got, err := runPinnedScan(e, snap.Splits(ScanOptions{}), 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScan(t, "scan that raced COMPACT", ref, got)
	// Its files left the manifest while it loaded: none may enter the memo.
	if memo := memoPaths(h); len(memo) != 0 {
		t.Errorf("an open that raced a replace memoised %v", memo)
	}
}

// leaveWindow publishes a COMPACT and then RetentionEpochs EDIT
// updates of one row each: the epoch current before it leaves the
// retention window, and the set the COMPACT superseded expires.
func leaveWindow(t *testing.T, e *hive.Engine) {
	t.Helper()
	mustExec(t, e, "COMPACT TABLE m")
	for i := 1; i <= metastore.RetentionEpochs; i++ {
		mustExec(t, e, fmt.Sprintf("UPDATE m SET v = %d.25 WHERE id = %d", i, i))
	}
}

// When the same COMPACT is followed by enough publishes that the loaded
// epoch leaves the retention window, its superseded set's cells are
// purged under the load: the window test fails and the open starts over
// on the new epoch.
func TestOpenRacingExpiryRetries(t *testing.T) {
	e, h, desc, epoch := editedTable(t)
	loaded := duringOpens(t, h, func(attempt int) {
		if attempt == 0 {
			leaveWindow(t, e)
		}
	})
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if len(*loaded) != 2 {
		t.Fatalf("open took %d attempts, want 2", len(*loaded))
	}
	if want := epoch + 1 + metastore.RetentionEpochs; snap != (*loaded)[1] || snap.Epoch != want {
		t.Errorf("snapshot epoch %d, want the second attempt's %d", snap.Epoch, want)
	}
	if n := entryCount(snap); n != metastore.RetentionEpochs {
		t.Errorf("post-COMPACT snapshot holds %d attached entries, want %d", n, metastore.RetentionEpochs)
	}
	wantGone(t, e, (*loaded)[0])
	if got, want := memoPaths(h), manifestPaths(t, e); !reflect.DeepEqual(got, want) {
		t.Errorf("memo holds %v, the current manifest is %v", got, want)
	}
}

// An open in flight when its table is dropped and re-created is served
// from the incarnation it pinned, however far past the old epoch the new
// incarnation's epochs run.
func TestOpenRacingDropRecreateKeepsPinnedEpoch(t *testing.T) {
	e, h, desc, epoch := editedTable(t)
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	evict(h)
	loaded := duringOpens(t, h, func(int) {
		mustExec(t, e, "DROP TABLE m")
		seedDual(t, e)
		for i := uint64(0); i <= epoch+metastore.RetentionEpochs; i++ {
			mustExec(t, e, fmt.Sprintf("INSERT INTO m VALUES (%d, 1, 1.5, 'new')", 1000+i))
		}
	})
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if len(*loaded) != 1 || snap.Epoch != epoch || entryCount(snap) != 10 {
		t.Errorf("the open took %d attempts, pinned epoch %d and holds %d entries, want 1, %d and 10",
			len(*loaded), snap.Epoch, entryCount(snap), epoch)
	}
	if cur, _, err := e.MS.CurrentEpoch("m"); err != nil || cur <= epoch+metastore.RetentionEpochs {
		t.Fatalf("the new incarnation is at epoch %d (%v): not past the old one's window", cur, err)
	}
	got, err := runPinnedScan(e, snap.Splits(ScanOptions{}), 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScan(t, "scan that raced DROP and re-CREATE", ref, got)
}

// A historical open has no newer epoch to become: when RetentionEpochs+1
// publishes expire its epoch mid-open, it reports so and lets go.
func TestOpenAtExpiringMidOpen(t *testing.T) {
	e, h, desc, epoch := editedTable(t)
	loaded := duringOpens(t, h, func(int) { leaveWindow(t, e) })
	snap, err := h.OpenSnapshotAt(desc, epoch)
	if !errors.Is(err, metastore.ErrEpochExpired) {
		if err == nil {
			snap.Release()
		}
		t.Fatalf("OpenSnapshotAt(%d) = %v, want ErrEpochExpired", epoch, err)
	}
	if len(*loaded) != 1 {
		t.Fatalf("open took %d attempts, want 1", len(*loaded))
	}
	wantGone(t, e, (*loaded)[0])
}

// An expiry inside every optimistic attempt cannot starve the open: the
// attempt after them loads under the publish lock, where nothing can
// land (the hook is not even fired).
func TestOpenBoundedUnderCompactionChurn(t *testing.T) {
	e, h, desc, epoch := editedTable(t)
	loaded := duringOpens(t, h, func(int) { leaveWindow(t, e) })
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	if len(*loaded) != optimisticAttempts {
		t.Errorf("%d optimistic attempts, want %d", len(*loaded), optimisticAttempts)
	}
	if want := epoch + optimisticAttempts*(1+metastore.RetentionEpochs); snap.Epoch != want {
		t.Errorf("snapshot epoch %d, want %d", snap.Epoch, want)
	}
	for _, s := range *loaded {
		wantGone(t, e, s)
	}
	got, err := runPinnedScan(e, snap.Splits(ScanOptions{}), 4)
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	h.onSnapshotLoaded = nil
	assertSameScan(t, "scan opened under the lock", runUnionScan(t, e, h, "m", ScanOptions{}, 4, false), got)
}

// Residency tests: what Handler.open keeps of the current epoch, when
// it replays it, and what empties it.

// slot returns a copy of the table's resident epoch (nil = empty).
func slot(h *Handler) *residentEpoch {
	st := h.state("m")
	st.pub.Lock()
	defer st.pub.Unlock()
	if st.res == nil {
		return nil
	}
	cp := *st.res
	return &cp
}

// loads counts the loads outermost opens run from here on: a resident
// open runs none.
func loads(t *testing.T, h *Handler) func() int {
	loaded := duringOpens(t, h, func(int) {})
	return func() int { return len(*loaded) }
}

// assertSameBits is assertSameScan with the simulated clock compared
// bit for bit.
func assertSameBits(t *testing.T, label string, want, got scanResult) {
	t.Helper()
	assertSameScan(t, label, want, got)
	if w, g := math.Float64bits(want.simSecs), math.Float64bits(got.simSecs); w != g {
		t.Fatalf("%s: sim seconds bits %#x != %#x", label, g, w)
	}
}

// scanResidentAndFresh scans the table twice — as the slot stands, then
// evicted — and requires the two to agree to the bit. It returns the
// scan and whether the first open loaded.
func scanResidentAndFresh(t *testing.T, e *hive.Engine, h *Handler, label string) (scanResult, bool) {
	t.Helper()
	n := loads(t, h)
	got := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	first := n()
	evict(h)
	fresh := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)
	if n() != first+1 {
		t.Fatalf("%s: the scan of an evicted table did not load", label)
	}
	assertSameBits(t, label, fresh, got)
	return got, first == 1
}

// Two consecutive opens of an untouched epoch share one overlay, and a
// scan through the second returns what a scan through a full load does:
// rows, Counters and the simulated clock to the bit.
func TestResidentOpenSharesOverlay(t *testing.T) {
	e, h := testEngine(t)
	desc := fourFileTable(t, e, h)
	n := loads(t, h)
	first, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Release()
	second, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Release()
	if n() != 1 {
		t.Fatalf("two opens of one epoch ran %d loads, want 1", n())
	}
	if entryCount(first) == 0 {
		t.Fatal("the table has no attached entries: nothing is being shared")
	}
	if reflect.ValueOf(first.entries).Pointer() != reflect.ValueOf(second.entries).Pointer() ||
		reflect.ValueOf(first.preScans).Pointer() != reflect.ValueOf(second.preScans).Pointer() ||
		&first.files[0] != &second.files[0] {
		t.Error("the second open did not share the first one's files and overlay")
	}
	for _, p := range first.Files() {
		if got := e.FS.Pins(p); got != 2 {
			t.Errorf("%s has %d pins under two snapshots, want 2", p, got)
		}
	}
	if _, loaded := scanResidentAndFresh(t, e, h, "resident scan"); loaded {
		t.Error("a scan of the resident epoch loaded")
	}
}

// A DUALTABLE UPDATE or DELETE plans from the snapshot it scans: one
// load per statement, cold or after an EDIT publish.
func TestEditLoadsOneSnapshot(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	n := loads(t, h)
	for _, sql := range []string{
		"UPDATE m SET v = 1.5 WHERE day = 3", // cold
		"UPDATE m SET v = 2.5 WHERE day = 4", // after an EDIT publish
		"DELETE FROM m WHERE day = 5",
	} {
		before := n()
		mustExec(t, e, sql)
		if got := n() - before; got != 1 {
			t.Errorf("%s loaded %d snapshots, want 1", sql, got)
		}
	}
}

// An EDIT that commits while an overwrite reads its source is not
// replaced away: the overwrite holds the table's writer from before its
// first open, so the EDIT waits and lands on the rewritten table.
func TestOverwriteHoldsWriterAcrossSourceRead(t *testing.T) {
	for name, sql := range map[string]string{
		"update":           "UPDATE m SET tag = 'x' WHERE day = 3", // forced OVERWRITE
		"insert-overwrite": "INSERT OVERWRITE TABLE m SELECT id, day, v, IF(day = 3, 'x', tag) FROM m",
	} {
		t.Run(name, func(t *testing.T) {
			e, h := testEngine(t)
			seedDual(t, e)
			forced := func(plan string) *hive.ExecContext {
				vars := hive.NewSessionVars()
				vars.Set(hive.VarForcePlan, plan)
				return &hive.ExecContext{Vars: vars}
			}
			st := h.state("m")
			var fired atomic.Bool
			edit := make(chan error, 1)
			h.onSnapshotLoaded = func(*Snapshot) {
				if fired.Swap(true) {
					return // the EDIT's own opens
				}
				if st.writer.TryLock() {
					st.writer.Unlock()
					t.Error("the overwrite opened the table without holding its writer")
				}
				go func() {
					_, err := e.ExecuteCtx(forced("EDIT"), "UPDATE m SET v = 9999.5 WHERE id = 7")
					edit <- err
				}()
			}
			t.Cleanup(func() { h.onSnapshotLoaded = nil })
			evict(h)
			if _, err := e.ExecuteCtx(forced("OVERWRITE"), sql); err != nil {
				t.Fatal(err)
			}
			if !fired.Load() {
				t.Fatal("the overwrite loaded no snapshot")
			}
			if err := <-edit; err != nil {
				t.Fatal(err)
			}
			if rs := mustExec(t, e, "SELECT v FROM m WHERE id = 7"); len(rs.Rows) != 1 || rs.Rows[0][0].F != 9999.5 {
				t.Errorf("id 7 reads %v after the EDIT, want 9999.5", rs.Rows)
			}
			if rs := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE tag = 'x'"); rs.Rows[0][0].I != 10 {
				t.Errorf("%v rows tagged by the overwrite, want 10", rs.Rows[0][0])
			}
		})
	}
}

// Flush and minor compaction leave every attached cell as it was and
// move what scanning them costs. Each must be a miss, and the miss must
// charge what a load of a never-read table charges.
func TestResidentOverlayMissesWhenLSMMoves(t *testing.T) {
	cases := []struct {
		name   string
		before func(t *testing.T, e *hive.Engine, att *kvstore.Table) // set-up, before the epoch goes resident
		move   func(t *testing.T, att *kvstore.Table)
	}{
		{"flush", nil, func(t *testing.T, att *kvstore.Table) {
			if err := att.Flush(nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"minor compaction", func(t *testing.T, e *hive.Engine, att *kvstore.Table) {
			// Two store files to merge.
			if err := att.Flush(nil); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, "UPDATE m SET v = 1.5 WHERE day = 7")
			if err := att.Flush(nil); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, att *kvstore.Table) {
			if err := att.Compact(false, nil); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, h := testEngine(t)
			desc := fourFileTable(t, e, h)
			att, err := h.attached(desc)
			if err != nil {
				t.Fatal(err)
			}
			if tc.before != nil {
				tc.before(t, e, att)
			}
			before, _ := scanResidentAndFresh(t, e, h, "before")
			if res := slot(h); res == nil || res.entries == nil {
				t.Fatal("the epoch is not resident before the move")
			}
			tc.move(t, att)
			after, loaded := scanResidentAndFresh(t, e, h, "after")
			if !loaded {
				t.Error("the open after the move replayed the overlay loaded before it")
			}
			if len(after.rows) != len(before.rows) {
				t.Fatalf("the move changed the table: %d rows, were %d", len(after.rows), len(before.rows))
			}
			for i := range after.rows {
				if after.rows[i] != before.rows[i] {
					t.Fatalf("the move changed row %d", i)
				}
			}
			if after.simSecs == before.simSecs {
				t.Errorf("the move left the scan's charge at %v: the case does not tell a replay from a load", after.simSecs)
			}
		})
	}
}

// A split replays exactly what a fresh scan of its file's attached
// range counts — memtable cells, store-file blocks and the seek — so
// keeping only a pre-scan's four kinds drops nothing.
func TestPreScanReplaysTheRangeScansCounts(t *testing.T) {
	e, h := testEngine(t)
	desc := fourFileTable(t, e, h)
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := att.Flush(nil); err != nil { // store files, and a memtable on top
		t.Fatal(err)
	}
	mustExec(t, e, "UPDATE m SET v = 1.5 WHERE day = 7")
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	var blocks int64
	for i, sp := range snap.Splits(ScanOptions{}) {
		replay := sim.NewMeter(nil)
		if _, err := sp.(*hive.ORCSplit).LoadOverlay(replay); err != nil {
			t.Fatal(err)
		}
		start, end := FileRange(snap.files[i].fileID)
		fresh := sim.NewMeter(nil)
		sc := att.NewScanner(kvstore.Scan{Start: start, End: end, Meter: fresh, MaxVersions: math.MaxInt32})
		for _, ok := sc.Next(); ok; _, ok = sc.Next() {
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if replay.Counts() != fresh.Counts() {
			t.Errorf("file %d: the split replays %v, a fresh range scan counts %v", i, replay.Counts(), fresh.Counts())
		}
		blocks += fresh.Counts()[sim.DFSOpens]
	}
	if blocks == 0 {
		t.Error("no range scan read a store-file block: the case does not cover them")
	}
}

// Every publish invalidates exactly its share of the slot: footers
// survive a watermark or append publish and the overlay does not,
// nothing survives a replace, nothing crosses an incarnation, and reads
// that are not scans of the current epoch neither use nor fill the
// overlay.
func TestResidentEpochInvalidation(t *testing.T) {
	e, h := testEngine(t)
	desc := fourFileTable(t, e, h)
	footersOf := func(res *residentEpoch) map[string]*orcfile.Reader {
		out := map[string]*orcfile.Reader{}
		for _, f := range res.files {
			out[f.path] = f.reader
		}
		return out
	}
	scan := func() { runUnionScan(t, e, h, "m", ScanOptions{}, 4, false) }
	opens := func(fn func()) int64 {
		before := e.FS.Metrics().OpensForRead
		fn()
		return e.FS.Metrics().OpensForRead - before
	}
	wantOverlay := func(when string) *residentEpoch {
		t.Helper()
		res := slot(h)
		if res == nil || res.entries == nil {
			t.Fatalf("%s: the epoch is not resident with its overlay", when)
		}
		if epoch, _ := h.CurrentEpoch(desc); res.epoch != epoch {
			t.Fatalf("%s: the slot holds epoch %d, current is %d", when, res.epoch, epoch)
		}
		return res
	}
	wantFootersOnly := func(when string, footers map[string]*orcfile.Reader) {
		t.Helper()
		res := slot(h)
		if res == nil {
			t.Fatalf("%s: the slot is empty, want its footers kept", when)
		}
		if res.entries != nil || res.preScans != nil {
			t.Errorf("%s: the overlay survived", when)
		}
		if got := footersOf(res); !reflect.DeepEqual(got, footers) {
			t.Errorf("%s: footers %v, were %v", when, got, footers)
		}
	}

	scan()
	footers := footersOf(wantOverlay("after a scan"))

	// EDIT publish (watermark only).
	mustExec(t, e, "UPDATE m SET v = 1.5 WHERE day = 7")
	wantFootersOnly("after an EDIT publish", footers)
	if n := opens(scan); n != 4 {
		t.Errorf("the scan after an EDIT publish opened %d files, want 4 (one per split, no footer)", n)
	}
	if got := footersOf(wantOverlay("after an EDIT publish and a scan")); !reflect.DeepEqual(got, footers) {
		t.Error("the scan after an EDIT publish parsed footers again")
	}

	// A historical read leaves the slot alone.
	held := h.state("m").res
	epoch, _ := h.CurrentEpoch(desc)
	mustExec(t, e, fmt.Sprintf("SELECT COUNT(*) FROM m AS OF EPOCH %d", epoch-1))
	if h.state("m").res != held || slot(h).entries == nil {
		t.Error("a historical read replaced the resident epoch")
	}

	// INSERT publish (append).
	mustExec(t, e, "INSERT INTO m VALUES (1000, 1, 1.5, 'x')")
	wantFootersOnly("after an INSERT publish", footers)
	if n := opens(scan); n != 6 {
		t.Errorf("the scan after an INSERT opened %d files, want 6 (five splits and the new file's footer)", n)
	}
	res := wantOverlay("after an INSERT publish and a scan")
	if len(res.files) != 5 {
		t.Fatalf("%d resident files after the INSERT, want 5", len(res.files))
	}
	for p, rd := range footers {
		if footersOf(res)[p] != rd {
			t.Errorf("the scan after an INSERT parsed %s again", p)
		}
	}

	wantOverlay("before COMPACT")

	// COMPACT and OVERWRITE (replace).
	mustExec(t, e, "COMPACT TABLE m")
	if res := slot(h); res != nil {
		t.Errorf("after COMPACT the slot holds %+v", res)
	}
	mustExec(t, e, "UPDATE m SET v = 2.5 WHERE day = 9") // EDIT again: a delta for the OVERWRITE to read
	scan()
	wantOverlay("before OVERWRITE")
	forcePlan(e, h, "OVERWRITE")
	mustExec(t, e, "UPDATE m SET v = 3.5 WHERE day = 11")
	if res := slot(h); res != nil {
		t.Errorf("after an OVERWRITE update the slot holds %+v", res)
	}

	// DROP + re-CREATE: the old incarnation's state is emptied and the new
	// one starts empty.
	oldState := h.state("m")
	mustExec(t, e, "DROP TABLE m")
	if oldState.res != nil {
		t.Errorf("after DROP the slot holds %+v", oldState.res)
	}
	fourFileTable(t, e, h)
	if h.state("m") == oldState {
		t.Fatal("the re-created table shares the dropped one's state")
	}
	if res := slot(h); res != nil && res.entries != nil {
		t.Errorf("a re-created table that was never scanned holds an overlay: %+v", res)
	}
	scan()
	wantOverlay("re-created table after a scan")
	if oldState.res != nil {
		t.Error("a scan of the new incarnation filled the old one's slot")
	}
}

// A load that a Put lands inside of is served to its own open and kept
// for nobody: the next open loads again.
func TestLoadOverlappingPutIsNotResident(t *testing.T) {
	e, h, desc, _ := editedTable(t)
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	orphan := &kvstore.Cell{Row: NewRecordID(snapshotFileID(t, h, desc), 0).Key(), Family: attachedFamily,
		Qualifier: []byte("2"), Type: kvstore.TypePut, Value: datum.AppendDatum(nil, datum.Float(999.5))}
	evict(h)
	loaded := duringOpens(t, h, func(attempt int) {
		if attempt == 0 {
			if err := att.Put([]*kvstore.Cell{orphan}, nil); err != nil {
				t.Error(err)
			}
		}
	})
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	if n := entryCount(snap); n != 10 {
		t.Errorf("the overlapped open holds %d entries, want 10", n)
	}
	snap.Release()
	if len(*loaded) != 1 {
		t.Fatalf("open took %d attempts, want 1: a Put does not invalidate the open it overlaps", len(*loaded))
	}
	res := slot(h)
	if res == nil || len(res.files) != 1 {
		t.Fatalf("the overlapped open did not keep its footers: %+v", res)
	}
	if res.entries != nil {
		t.Fatal("a load that a Put overlapped is resident")
	}
	if _, loaded := scanResidentAndFresh(t, e, h, "after the overlapped open"); !loaded {
		t.Error("the open after the overlapped one did not load")
	}
}

// snapshotFileID returns the file ID of the table's first master file.
func snapshotFileID(t *testing.T, h *Handler, desc *metastore.TableDesc) uint32 {
	t.Helper()
	return snapshotFiles(t, h, desc)[0].fileID
}

// The cell a failed EDIT left above the watermark is invisible until
// the table's next publish, however often the epoch is opened in
// between — from a load or from the slot.
func TestOrphanCellNeverServedBeforePublish(t *testing.T) {
	e, h, desc, _ := editedTable(t)
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	rid := NewRecordID(snapshotFileID(t, h, desc), 0)
	if err := att.Put([]*kvstore.Cell{{Row: rid.Key(), Family: attachedFamily, Qualifier: []byte("2"),
		Type: kvstore.TypePut, Value: datum.AppendDatum(nil, datum.Float(999.5))}}, nil); err != nil {
		t.Fatal(err)
	}
	n := loads(t, h)
	const q = "SELECT v FROM m WHERE id = 0"
	for i := 0; i < 3; i++ {
		if rs := mustExec(t, e, q); len(rs.Rows) != 1 || rs.Rows[0][0].F != 0.5 {
			t.Fatalf("read %d before the publish: %v, want 0.5", i, rs.Rows)
		}
		res := slot(h)
		if res == nil || res.entries == nil {
			t.Fatalf("read %d left nothing resident", i)
		}
		if ov := res.entries[rid.FileID()]; ov != nil && slices.Contains(overlayRecords(ov), rid.RowNumber()) {
			t.Fatalf("read %d: the orphan of record %s is resident", i, rid)
		}
	}
	if n() != 1 {
		t.Errorf("three reads of one epoch loaded %d times, want 1", n())
	}
	scanResidentAndFresh(t, e, h, "with an orphan above the watermark")
	// The table's next writer publishes it.
	if err := h.publish(desc, nil, false); err != nil {
		t.Fatal(err)
	}
	if rs := mustExec(t, e, q); len(rs.Rows) != 1 || rs.Rows[0][0].F != 999.5 {
		t.Fatalf("after the publish: %v, want 999.5", rs.Rows)
	}
}

// The slot never outlives what it describes: an open in flight when a
// replace or a DROP lands is served and not kept.
func TestResidentSlotEmptyAfterReplaceAndDrop(t *testing.T) {
	for _, stmt := range []string{"COMPACT TABLE m", "DROP TABLE m"} {
		t.Run(stmt, func(t *testing.T) {
			e, h, desc, _ := editedTable(t)
			st := h.state("m")
			loaded := duringOpens(t, h, func(int) { mustExec(t, e, stmt) })
			snap, err := h.OpenSnapshot(desc)
			if err != nil {
				t.Fatal(err)
			}
			if len(*loaded) != 1 || entryCount(snap) != 10 {
				t.Errorf("the open took %d attempts and holds %d entries, want 1 and 10", len(*loaded), entryCount(snap))
			}
			if st.res != nil {
				t.Errorf("an open that %s overtook is resident: %+v", stmt, st.res)
			}
			snap.Release()
			if st.res != nil {
				t.Errorf("after %s and the last release the slot holds %+v", stmt, st.res)
			}
		})
	}
}

// BenchmarkOpenSnapshot measures one open + release of a table of 8
// master files × 64 rows with one EDIT update (64 entries) in the
// attached table: hit is a scan's open of an epoch nothing touched since
// the last one, miss the same open after a watermark publish (footers
// resident, the overlay materialised again).
func BenchmarkOpenSnapshot(b *testing.B) {
	e, h := testEngine(b)
	mustExec(b, e, "CREATE TABLE m (id BIGINT, grp BIGINT, v DOUBLE) STORED AS DUALTABLE")
	for f := 0; f < 8; f++ {
		sql := "INSERT INTO m VALUES "
		for i := f * 64; i < (f+1)*64; i++ {
			if i > f*64 {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d, %d.5)", i, i%8, i)
		}
		mustExec(b, e, sql)
	}
	forcePlan(e, h, "EDIT")
	mustExec(b, e, "UPDATE m SET v = 0.5 WHERE grp = 3")
	desc, err := e.MS.Get("m")
	if err != nil {
		b.Fatal(err)
	}
	st := h.state("m")
	for _, bc := range []struct {
		name   string
		before func()
	}{
		{"hit", func() {}},
		{"miss", func() {
			st.pub.Lock()
			st.dropOverlayLocked()
			st.pub.Unlock()
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.before()
				snap, err := h.open(desc, nil)
				if err != nil {
					b.Fatal(err)
				}
				snap.Release()
			}
		})
	}
}
