package core

import (
	"runtime"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
)

// A snapshot load's bytes grow with the values of the delta it folds,
// not with a boxed entry per record: each extra single-column cell costs
// its patch's ordinal, value and NULL flag, and the memtable scanner
// that draws it and the allocator's size classes add next to nothing.
func TestLoadBytesScaleWithDelta(t *testing.T) {
	const (
		n         = 2000
		patchCell = 4 + 8 + 1 // uint32 ordinal, float64 value, NULL flag
		slack     = 3         // the scanner and size-class rounding: 0.3 B measured
	)
	small, large := loadBytes(t, n), loadBytes(t, 2*n)
	perCell := (large - small) / n
	t.Logf("a load of %d cells allocates %.0f B, of %d cells %.0f B: %.1f B per extra cell", n, small, 2*n, large, perCell)
	if perCell > patchCell+slack {
		t.Errorf("a load allocates %.1f B per extra cell, want at most %d", perCell, patchCell+slack)
	}
}

// loadBytes returns the bytes one loadEntries allocates over
// fourFileTable with n more single-column cells, spread over its four
// files at ordinals past their rows.
func loadBytes(t *testing.T, n int) float64 {
	t.Helper()
	e, h := testEngine(t)
	desc := fourFileTable(t, e, h)
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	files := snapshotFiles(t, h, desc)
	cells := make([]*kvstore.Cell, n)
	for i := range cells {
		rid := NewRecordID(files[i%len(files)].fileID, uint32(100+i/len(files)))
		cells[i] = &kvstore.Cell{Row: rid.Key(), Family: attachedFamily, Qualifier: []byte("2"),
			Type: kvstore.TypePut, Value: datum.AppendDatum(nil, datum.Float(float64(i)+0.5))}
	}
	if err := att.Put(cells, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.publish(desc, nil, false); err != nil { // the cells fall below the watermark
		t.Fatal(err)
	}
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	base := entryCount(snap) - n
	if base <= 0 {
		t.Fatalf("the snapshot holds %d entries, want more than the %d cells put", base+n, n)
	}
	if err := snap.loadEntries(); err != nil { // a warm load: its scratch is listed
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := snap.loadEntries(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := entryCount(snap); got != base+n {
		t.Fatalf("a reload holds %d entries, want %d", got, base+n)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}
