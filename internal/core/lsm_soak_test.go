package core

import (
	"errors"
	"fmt"
	"path"
	"testing"

	"dualtable/internal/dfs"
	"dualtable/internal/metastore"
)

// dfsFiles counts the plain files under dir and the pins they hold.
func dfsFiles(t *testing.T, fs *dfs.FileSystem, dir string) (files, pins int) {
	t.Helper()
	infos, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if fi.IsDir {
			f, p := dfsFiles(t, fs, fi.Path)
			files, pins = files+f, pins+p
			continue
		}
		files++
		pins += fs.Pins(fi.Path)
	}
	return files, pins
}

// TestAttachedLSMPlateaus runs the write path's steady state for many
// cycles — EDIT UPDATE, EDIT DELETE of one row, COMPACT, each a publish,
// so superseded file sets leave the retention window and their attached
// ranges are purged — with an attached flush every cycle. Once the first
// purges have run, the attached table's size, entry count and file count
// and the DFS file and pin counts must stay within half again their
// warm-up peak, and no cleanup may stay condemned. A minor compaction
// that keeps every purge tombstone and the cells it masks fails this:
// the attached table grows by each purge.
func TestAttachedLSMPlateaus(t *testing.T) {
	const warmup, cycles = 16, 64
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	desc, err := e.MS.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	attDir := path.Join("/hbase", att.Name())
	type sample struct{ size, entries, attFiles, files, pins int64 }
	var peak sample
	peakChain := 0
	oldest := 0
	for cycle := 0; cycle < cycles; cycle++ {
		mustExec(t, e, fmt.Sprintf("UPDATE m SET v = v + 1 WHERE day = %d", cycle%36))
		mustExec(t, e, fmt.Sprintf("DELETE FROM m WHERE id = %d", oldest))
		oldest++
		mustExec(t, e, "COMPACT TABLE m")
		if err := att.Flush(nil); err != nil {
			t.Fatal(err)
		}
		attFiles, _ := dfsFiles(t, e.FS, attDir)
		files, pins := dfsFiles(t, e.FS, "/")
		s := sample{att.Size(), att.EntryCount(), int64(attFiles), int64(files), int64(pins)}
		if c := h.CondemnedPaths(); len(c) > 0 {
			t.Fatalf("cycle %d: cleanup left condemned: %v", cycle, c)
		}
		// The manifest chain is the window: its oldest epoch resolves,
		// the one below it is expired, and the files it names stay
		// within half again their warm-up peak.
		cur, _, err := e.MS.CurrentEpoch("m")
		if err != nil {
			t.Fatal(err)
		}
		if cur > metastore.RetentionEpochs {
			edge := cur - metastore.RetentionEpochs
			if _, err := e.MS.ManifestAt("m", edge); err != nil {
				t.Fatalf("cycle %d: the window's oldest epoch %d (current %d): %v", cycle, edge, cur, err)
			}
			if _, err := e.MS.ManifestAt("m", edge-1); !errors.Is(err, metastore.ErrEpochExpired) {
				t.Fatalf("cycle %d: epoch %d below the window (current %d) = %v, want ErrEpochExpired", cycle, edge-1, cur, err)
			}
		}
		chain, _ := e.MS.ManifestHistoryFiles("m")
		if cycle < warmup {
			peakChain = max(peakChain, len(chain))
		} else if len(chain) > peakChain+peakChain/2 {
			t.Fatalf("cycle %d: the chain names %d files, more than half again the warm-up peak %d", cycle, len(chain), peakChain)
		}
		if cycle < warmup {
			peak = sample{max(peak.size, s.size), max(peak.entries, s.entries), max(peak.attFiles, s.attFiles),
				max(peak.files, s.files), max(peak.pins, s.pins)}
			continue
		}
		bound := func(v, peak int64) bool { return v > peak+peak/2 }
		if bound(s.size, peak.size) || bound(s.entries, peak.entries) || bound(s.attFiles, peak.attFiles) ||
			bound(s.files, peak.files) || bound(s.pins, peak.pins) {
			t.Fatalf("cycle %d: {size entries attachedFiles dfsFiles pins} = %v, more than half again the warm-up peak %v", cycle, s, peak)
		}
	}
	if rs := mustExec(t, e, "SELECT COUNT(*) FROM m"); rs.Rows[0][0].I != 360-cycles {
		t.Fatalf("table holds %v rows, want %d", rs.Rows[0], 360-cycles)
	}
}
