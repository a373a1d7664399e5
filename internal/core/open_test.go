package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dualtable/internal/hive"
	"dualtable/internal/metastore"
)

// Ordering tests for Handler.open: the onSnapshotLoaded hook runs a
// publish at the one point where it can matter — after an open loaded
// its epoch, before the open tests the purge floor — so every
// interleaving below is constructed, not waited for.

// editedTable is seedDual plus one EDIT UPDATE: one master file, ten
// attached entries.
func editedTable(t *testing.T, retention int) (*hive.Engine, *Handler, *metastore.TableDesc, uint64) {
	t.Helper()
	e, h := testEngine(t)
	seedDual(t, e)
	e.MS.SetRetentionEpochs("m", retention)
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

func entryCount(s *Snapshot) int {
	n := 0
	for _, mods := range s.entries {
		n += len(mods)
	}
	return n
}

// wantGone checks that a discarded attempt left nothing behind.
func wantGone(t *testing.T, e *hive.Engine, s *Snapshot) {
	t.Helper()
	for _, p := range s.pinned {
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
	e, h, desc, epoch := editedTable(t, metastore.DefaultRetentionEpochs)
	ref := runUnionScan(t, e, h, "m", ScanOptions{}, 4, false)

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

// Without retention the same COMPACT truncates the attached table under
// the load: the floor test fails and the open starts over on the new
// epoch.
func TestOpenRacingTruncateRetries(t *testing.T) {
	e, h, desc, epoch := editedTable(t, 0)
	loaded := duringOpens(t, h, func(attempt int) {
		if attempt == 0 {
			mustExec(t, e, "COMPACT TABLE m")
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
	if snap != (*loaded)[1] || snap.Epoch != epoch+1 {
		t.Errorf("snapshot epoch %d, want the second attempt's %d", snap.Epoch, epoch+1)
	}
	if n := entryCount(snap); n != 0 {
		t.Errorf("post-COMPACT snapshot holds %d attached entries, want 0", n)
	}
	wantGone(t, e, (*loaded)[0])
	if got, want := memoPaths(h), manifestPaths(t, e); !reflect.DeepEqual(got, want) {
		t.Errorf("memo holds %v, the current manifest is %v", got, want)
	}
}

// A historical open has no newer epoch to become: when retention+1
// publishes expire its epoch mid-open, it reports so and lets go.
func TestOpenAtExpiringMidOpen(t *testing.T) {
	const retention = 2
	e, h, desc, epoch := editedTable(t, retention)
	loaded := duringOpens(t, h, func(int) {
		mustExec(t, e, "COMPACT TABLE m")
		for i := 0; i < retention; i++ {
			mustExec(t, e, fmt.Sprintf("UPDATE m SET v = %d.5 WHERE id = %d", i, i))
		}
	})
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

// A replace inside every optimistic attempt cannot starve the open: the
// attempt after them loads under the publish lock, where nothing can
// land (the hook is not even fired).
func TestOpenBoundedUnderCompactionChurn(t *testing.T) {
	e, h, desc, epoch := editedTable(t, 0)
	loaded := duringOpens(t, h, func(int) { mustExec(t, e, "COMPACT TABLE m") })
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	if len(*loaded) != optimisticAttempts {
		t.Errorf("%d optimistic attempts, want %d", len(*loaded), optimisticAttempts)
	}
	if want := epoch + optimisticAttempts; snap.Epoch != want {
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

// BenchmarkOpenSnapshot measures one open + release of a table of 8
// master files × 64 rows with one EDIT update in the attached table:
// as a scan opens it, and as the cost model does (no entries).
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
	for _, withEntries := range []bool{true, false} {
		b.Run(fmt.Sprintf("entries=%v", withEntries), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				snap, err := h.open(desc, nil, withEntries)
				if err != nil {
					b.Fatal(err)
				}
				snap.Release()
			}
		})
	}
}
