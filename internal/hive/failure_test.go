package hive

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/fault"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
)

// Failure injection: storage-layer faults must surface as errors and
// never corrupt committed table state. "Safe mode" in the test names
// is a DFS on which every file create fails.

// failCreates makes every file create on the engine's DFS fail until
// the returned function removes the schedule.
func failCreates(e *Engine) (restore func()) {
	e.FS.SetFaultInjector(fault.NewSchedule(dfs.FaultRule{Op: dfs.OpCreate, Times: math.MaxInt}))
	return func() { e.FS.SetFaultInjector(nil) }
}

func TestInsertFailsInSafeModeLeavesTableIntact(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	before := mustExec(t, e, "SELECT COUNT(*) FROM emp")

	restore := failCreates(e)
	if _, err := e.Execute("INSERT INTO emp VALUES (9, 'x', 'y', 1.0)"); err == nil {
		t.Fatal("insert with failing creates should fail")
	}
	if _, err := e.Execute("INSERT OVERWRITE TABLE emp SELECT * FROM emp"); err == nil {
		t.Fatal("overwrite with failing creates should fail")
	}
	restore()

	after := mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if before.Rows[0][0].I != after.Rows[0][0].I {
		t.Errorf("table changed across failed writes: %v -> %v", before.Rows[0], after.Rows[0])
	}
	// Engine still fully functional afterwards.
	mustExec(t, e, "UPDATE emp SET salary = salary + 1 WHERE id = 1")
}

func TestUpdateFailsInSafeModeORC(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	defer failCreates(e)()
	if _, err := e.Execute("UPDATE emp SET salary = 0"); err == nil {
		t.Fatal("rewrite update with failing creates should fail")
	}
}

func TestReadsSurviveSafeMode(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	defer failCreates(e)()
	rs := mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if rs.Rows[0][0].I != 5 {
		t.Errorf("read with failing creates = %v", rs.Rows[0])
	}
}

func TestStagingCleanupAfterFailedOverwrite(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	// Fail mid-statement: the SELECT side references a bogus column,
	// so the overwrite must abort before commit.
	if _, err := e.Execute("INSERT OVERWRITE TABLE emp SELECT nosuch FROM emp"); err == nil {
		t.Fatal("bogus select should fail")
	}
	// Data intact and readable.
	rs := mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if rs.Rows[0][0].I != 5 {
		t.Errorf("count after failed overwrite = %v", rs.Rows[0])
	}
	// A later overwrite still succeeds (no stale staging in the way).
	mustExec(t, e, "INSERT OVERWRITE TABLE emp SELECT * FROM emp WHERE id <= 2")
	rs = mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if rs.Rows[0][0].I != 2 {
		t.Errorf("count after real overwrite = %v", rs.Rows[0])
	}
}

func TestKVTableSurvivesFailedStatement(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "HBASE")
	for _, sql := range []string{
		"UPDATE emp SET salary = nosuch + 1",
		"INSERT OVERWRITE TABLE emp SELECT nosuch FROM emp",
	} {
		if _, err := e.Execute(sql); err == nil {
			t.Fatalf("%s: a bogus column should fail", sql)
		}
		rs := mustExec(t, e, "SELECT SUM(salary) FROM emp")
		if rs.Rows[0][0].F != 400 {
			t.Errorf("kv table corrupted by failed %s: %v", sql, rs.Rows[0])
		}
	}
}

func TestCorruptBlockDetectedOnVerifyingRead(t *testing.T) {
	e := testEngine(t)
	// Rebuild the engine's FS with verification enabled is not
	// possible post-hoc; instead verify via the explicit checker.
	seedEmployees(t, e, "ORC")
	infos, err := e.FS.ListFiles("/warehouse/emp")
	if err != nil || len(infos) == 0 {
		t.Fatalf("list: %v %v", infos, err)
	}
	if err := e.FS.VerifyChecksums(infos[0].Path); err != nil {
		t.Fatalf("clean file: %v", err)
	}
	if err := e.FS.CorruptBlock(infos[0].Path, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.FS.VerifyChecksums(infos[0].Path); err == nil {
		t.Error("corruption not detected")
	}
}

// TestORCScanSurfacesReadFault corrupts a stripe block of a plain-ORC
// table on a checksum-verifying DFS: the footer (last block) still
// opens, the stripe read faults mid-scan, and the statement must fail
// instead of returning the rows read so far — in batch and in row mode.
func TestORCScanSurfacesReadFault(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 4096, VerifyOnRead: true})
	kv, err := kvstore.NewCluster(fs, "/hbase")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{FS: fs, KV: kv, MR: mapred.NewCluster(sim.GridCluster())})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE big (id BIGINT, s STRING) STORED AS ORC")
	rows := make([]datum.Row, 4000)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i) * 2654435761), datum.String_(fmt.Sprintf("v%d", i*i))}
	}
	if _, err := e.BulkLoad("big", rows); err != nil {
		t.Fatal(err)
	}
	if rs := mustExec(t, e, "SELECT COUNT(*) FROM big"); rs.Rows[0][0].I != 4000 {
		t.Fatalf("clean count = %v", rs.Rows[0])
	}
	infos, err := fs.ListFiles("/warehouse/big")
	if err != nil || len(infos) != 1 || infos[0].Size <= 2*4096 {
		t.Fatalf("want one multi-block file, have %v (%v)", infos, err)
	}
	if err := fs.CorruptBlock(infos[0].Path, 0); err != nil {
		t.Fatal(err)
	}
	for _, rowScan := range []bool{false, true} {
		e.MR.DisableBatchScan = rowScan
		if rs, err := e.Execute("SELECT COUNT(s), SUM(id) FROM big"); !errors.Is(err, dfs.ErrCorruptBlock) {
			t.Fatalf("rowScan=%v: scan over a corrupt stripe = %v, %v; want dfs.ErrCorruptBlock", rowScan, rs, err)
		}
	}
}
