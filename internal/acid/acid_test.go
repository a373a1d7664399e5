package acid

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dualtable/internal/core"
	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
)

func testEngine(t *testing.T) (*hive.Engine, *Handler) {
	t.Helper()
	return testEngineOn(t, dfs.Config{BlockSize: 1 << 20})
}

func testEngineOn(t *testing.T, cfg dfs.Config) (*hive.Engine, *Handler) {
	t.Helper()
	fs := dfs.New(cfg)
	kv, err := kvstore.NewCluster(fs, "/hbase")
	if err != nil {
		t.Fatal(err)
	}
	mr := mapred.NewCluster(sim.GridCluster())
	mr.Parallelism = 4
	e, err := hive.NewEngine(hive.Config{FS: fs, KV: kv, MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Register(e); err != nil {
		t.Fatal(err)
	}
	h, err := Register(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, h
}

func mustExec(t *testing.T, e *hive.Engine, sql string) *hive.ResultSet {
	t.Helper()
	rs, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%s): %v", sql, err)
	}
	return rs
}

func seed(t *testing.T, e *hive.Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE a (id BIGINT, grp BIGINT, v DOUBLE) STORED AS ACID")
	var sb strings.Builder
	sb.WriteString("INSERT INTO a VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.0)", i, i%10, i)
	}
	mustExec(t, e, sb.String())
}

func TestAcidCreateInsertSelect(t *testing.T) {
	e, _ := testEngine(t)
	seed(t, e)
	rs := mustExec(t, e, "SELECT COUNT(*) FROM a")
	if rs.Rows[0][0].I != 200 {
		t.Errorf("count = %v", rs.Rows[0])
	}
}

func TestAcidUpdateWritesDelta(t *testing.T) {
	e, h := testEngine(t)
	seed(t, e)
	rs := mustExec(t, e, "UPDATE a SET v = 999.0 WHERE grp = 3")
	if rs.Plan != "DELTA" || rs.Affected != 20 {
		t.Fatalf("update = %+v", rs)
	}
	desc, _ := e.MS.Get("a")
	n, err := h.DeltaFileCount(desc)
	if err != nil || n == 0 {
		t.Errorf("delta files = %d, %v", n, err)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM a WHERE v = 999.0")
	if got.Rows[0][0].I != 20 {
		t.Errorf("merged view = %v", got.Rows[0])
	}
	// Untouched rows stay.
	got = mustExec(t, e, "SELECT v FROM a WHERE id = 0")
	if got.Rows[0][0].F != 0 {
		t.Errorf("untouched = %v", got.Rows[0])
	}
}

func TestAcidLastTransactionWins(t *testing.T) {
	e, _ := testEngine(t)
	seed(t, e)
	mustExec(t, e, "UPDATE a SET v = 1.0 WHERE id = 7")
	mustExec(t, e, "UPDATE a SET v = 2.0 WHERE id = 7")
	rs := mustExec(t, e, "SELECT v FROM a WHERE id = 7")
	if rs.Rows[0][0].F != 2 {
		t.Errorf("latest delta lost: %v", rs.Rows[0])
	}
}

func TestAcidDeleteHidesRows(t *testing.T) {
	e, _ := testEngine(t)
	seed(t, e)
	rs := mustExec(t, e, "DELETE FROM a WHERE grp = 5")
	if rs.Affected != 20 {
		t.Fatalf("delete affected = %d", rs.Affected)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM a")
	if got.Rows[0][0].I != 180 {
		t.Errorf("count after delete = %v", got.Rows[0])
	}
}

func TestAcidUpdateThenDelete(t *testing.T) {
	e, _ := testEngine(t)
	seed(t, e)
	mustExec(t, e, "UPDATE a SET v = 5.0 WHERE id = 3")
	mustExec(t, e, "DELETE FROM a WHERE id = 3")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM a WHERE id = 3")
	if rs.Rows[0][0].I != 0 {
		t.Errorf("deleted row visible: %v", rs.Rows[0])
	}
}

func TestAcidCompactFoldsDeltas(t *testing.T) {
	e, h := testEngine(t)
	seed(t, e)
	mustExec(t, e, "UPDATE a SET v = 1000.5 WHERE grp = 1")
	mustExec(t, e, "DELETE FROM a WHERE grp = 2")
	desc, _ := e.MS.Get("a")
	if n, _ := h.DeltaFileCount(desc); n == 0 {
		t.Fatal("expected deltas before compact")
	}
	mustExec(t, e, "COMPACT TABLE a")
	if n, _ := h.DeltaFileCount(desc); n != 0 {
		t.Errorf("deltas after compact = %d", n)
	}
	rs := mustExec(t, e, "SELECT COUNT(*) FROM a")
	if rs.Rows[0][0].I != 180 {
		t.Errorf("count after compact = %v", rs.Rows[0])
	}
	rs = mustExec(t, e, "SELECT COUNT(*) FROM a WHERE v = 1000.5")
	if rs.Rows[0][0].I != 20 {
		t.Errorf("updates lost in compact: %v", rs.Rows[0])
	}
}

// TestAcidVsDualTableAgreement: identical DML on ACID and DUALTABLE
// tables produces identical visible contents.
func TestAcidVsDualTableAgreement(t *testing.T) {
	e, _ := testEngine(t)
	for _, stor := range []string{"ACID", "DUALTABLE"} {
		name := map[string]string{"ACID": "x1", "DUALTABLE": "x2"}[stor]
		mustExec(t, e, fmt.Sprintf("CREATE TABLE %s (id BIGINT, grp BIGINT, v DOUBLE) STORED AS %s", name, stor))
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		for i := 0; i < 100; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d.0)", i, i%8, i)
		}
		mustExec(t, e, sb.String())
		mustExec(t, e, fmt.Sprintf("UPDATE %s SET v = v * 2 WHERE grp = 4", name))
		mustExec(t, e, fmt.Sprintf("DELETE FROM %s WHERE grp = 6", name))
		mustExec(t, e, fmt.Sprintf("UPDATE %s SET v = -1.0 WHERE id < 5", name))
	}
	a := mustExec(t, e, "SELECT id, grp, v FROM x1 ORDER BY id")
	b := mustExec(t, e, "SELECT id, grp, v FROM x2 ORDER BY id")
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].String() != b.Rows[i].String() {
			t.Errorf("row %d: acid %v vs dual %v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestAcidReadAmplification: reads get slower as deltas pile up —
// the §V-C argument for DualTable's random-access attached table.
func TestAcidReadAmplification(t *testing.T) {
	e, _ := testEngine(t)
	seed(t, e)
	before := mustExec(t, e, "SELECT COUNT(*) FROM a")
	for i := 0; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf("UPDATE a SET v = %d.5 WHERE grp = %d", i, i))
	}
	after := mustExec(t, e, "SELECT COUNT(*) FROM a")
	if after.SimSeconds <= before.SimSeconds {
		t.Errorf("merge-on-read should slow down with deltas: %.3f vs %.3f",
			after.SimSeconds, before.SimSeconds)
	}
}

// TestAcidScanSurfacesReadFaults corrupts the first (stripe) block of a
// base file, then of a delta file, on a checksum-verifying DFS. Both
// footers still open; the faulting stripe read must fail the statement
// rather than end the base scan or the delta load early — in batch and
// in row mode.
func TestAcidScanSurfacesReadFaults(t *testing.T) {
	for _, dir := range []string{"base", "deltas"} {
		e, _ := testEngineOn(t, dfs.Config{BlockSize: 128, VerifyOnRead: true})
		seed(t, e)
		mustExec(t, e, "UPDATE a SET v = v + 0.5 WHERE grp < 5")
		if rs := mustExec(t, e, "SELECT COUNT(v), SUM(id) FROM a"); rs.Rows[0][0].I != 200 {
			t.Fatalf("clean scan = %v", rs.Rows[0])
		}
		infos, err := e.FS.ListFiles("/warehouse/a/" + dir)
		if err != nil || len(infos) == 0 || infos[0].Size <= 2*128 {
			t.Fatalf("%s: want a multi-block file, have %v (%v)", dir, infos, err)
		}
		if err := e.FS.CorruptBlock(infos[0].Path, 0); err != nil {
			t.Fatal(err)
		}
		for _, rowScan := range []bool{false, true} {
			e.MR.DisableBatchScan = rowScan
			if rs, err := e.Execute("SELECT COUNT(v), SUM(id) FROM a"); !errors.Is(err, dfs.ErrCorruptBlock) {
				t.Errorf("rowScan=%v: scan over a corrupt %s stripe = %v, %v; want dfs.ErrCorruptBlock", rowScan, dir, rs, err)
			}
		}
	}
}
