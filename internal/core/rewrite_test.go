package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
)

// rewriteOutput renders the current manifest of m and the bytes of
// every file it names.
func rewriteOutput(t *testing.T, e *hive.Engine) string {
	t.Helper()
	man, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range man.Files {
		data, err := e.FS.ReadFile(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s id=%d rows=%d size=%d %x\n", f.Path, f.FileID, f.Rows, f.Size, data)
	}
	return b.String()
}

// TestRewriteOutputIsDeterministic: a rewrite's files and manifest are
// a function of its input and plan. On a 4-file table with 4 workers,
// COMPACT and a forced OVERWRITE give the same manifest and the same
// file bytes on every repeat, however their tasks finish.
func TestRewriteOutputIsDeterministic(t *testing.T) {
	var want [2]string
	for rep := range 100 {
		e, h := testEngine(t)
		if e.MR.Parallelism != 4 {
			t.Fatalf("%d workers", e.MR.Parallelism)
		}
		fourFileTable(t, e, h)
		mustExec(t, e, "COMPACT TABLE m")
		compacted := rewriteOutput(t, e)
		forcePlan(e, h, "OVERWRITE")
		mustExec(t, e, "UPDATE m SET tag = 'ow' WHERE day < 9")
		got := [2]string{compacted, rewriteOutput(t, e)}
		if rep == 0 {
			if strings.Count(compacted, "\n") != 4 || strings.Count(got[1], "\n") != 1 {
				t.Fatalf("COMPACT wrote %q, OVERWRITE %q", compacted, got[1])
			}
			want = got
			continue
		}
		if got != want {
			t.Fatalf("repeat %d: COMPACT equal %v, OVERWRITE equal %v", rep, got[0] == want[0], got[1] == want[1])
		}
	}
}

// TestOverwriteStreamsItsRows: a forced OVERWRITE UPDATE of a
// 200 000-row table writes from the map tasks of the one job that reads
// the table, so the statement allocates a fraction of the rows it
// rewrites: 7.6 MB where collecting the rows first and copying them
// through a second job allocated 81 MB.
func TestOverwriteStreamsItsRows(t *testing.T) {
	e, h := testEngine(t)
	mustExec(t, e, "CREATE TABLE m (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	for f := 0; f < 4; f++ {
		rows := make([]datum.Row, 50000)
		for i := range rows {
			id := int64(f*50000 + i)
			rows[i] = datum.Row{datum.Int(id), datum.Int(id % 36), datum.Float(float64(id)), datum.String_(fmt.Sprintf("tag%d", id%4))}
		}
		if _, err := e.BulkLoad("m", rows); err != nil {
			t.Fatal(err)
		}
	}
	forcePlan(e, h, "OVERWRITE")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs := mustExec(t, e, "UPDATE m SET tag = 'ow' WHERE day < 9")
	runtime.ReadMemStats(&after)
	if rs.Plan != "OVERWRITE" || rs.Affected != 200000 {
		t.Fatalf("plan %s, %d rows", rs.Plan, rs.Affected)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("OVERWRITE of 200000 rows allocated %.1f MB", float64(alloc)/(1<<20))
	if alloc > 24<<20 {
		t.Errorf("OVERWRITE of 200000 rows allocated %.1f MB, over the 24 MB bound", float64(alloc)/(1<<20))
	}
}
