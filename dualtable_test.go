package dualtable_test

import (
	"fmt"
	"strings"
	"testing"

	"dualtable"
	"dualtable/internal/sim"
)

func openDB(t *testing.T) *dualtable.DB {
	t.Helper()
	cfg := dualtable.DefaultConfig()
	cfg.Parallelism = 4
	db, err := dualtable.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openDB(t)
	if db.Engine == nil || db.FS == nil || db.KV == nil || db.MR == nil || db.Handler == nil {
		t.Fatal("incomplete DB")
	}
	if db.MR.Params.Nodes != 26 {
		t.Errorf("default cluster nodes = %d", db.MR.Params.Nodes)
	}
}

func TestOpenTPCHCluster(t *testing.T) {
	cfg := dualtable.DefaultConfig()
	cfg.Cluster = sim.TPCHCluster()
	db, err := dualtable.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.MR.Params.Nodes != 10 {
		t.Errorf("tpch cluster nodes = %d", db.MR.Params.Nodes)
	}
}

func TestEndToEndLifecycle(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	db.MustExec("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)")
	rs := db.MustExec("UPDATE t SET v = 99.0 WHERE id = 2")
	if rs.Plan != "EDIT" && rs.Plan != "OVERWRITE" {
		t.Errorf("plan = %q", rs.Plan)
	}
	rs = db.MustExec("SELECT v FROM t WHERE id = 2")
	if rs.Rows[0][0].F != 99 {
		t.Errorf("updated value = %v", rs.Rows[0])
	}
	db.MustExec("DELETE FROM t WHERE id = 1")
	db.MustExec("COMPACT TABLE t")
	rs = db.MustExec("SELECT COUNT(*) FROM t")
	if rs.Rows[0][0].I != 2 {
		t.Errorf("final count = %v", rs.Rows[0])
	}
	if len(db.PlanLog()) < 2 {
		t.Errorf("plan log = %v", db.PlanLog())
	}
}

func TestACIDStorageAvailable(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE a (id BIGINT) STORED AS ACID")
	db.MustExec("INSERT INTO a VALUES (1), (2)")
	rs := db.MustExec("UPDATE a SET id = 9 WHERE id = 2")
	if rs.Plan != "DELTA" {
		t.Errorf("acid plan = %q", rs.Plan)
	}
	rs = db.MustExec("SELECT COUNT(*) FROM a WHERE id = 9")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("acid update lost: %v", rs.Rows[0])
	}
}

func TestForcePlanAndHints(t *testing.T) {
	sess := openDB(t).Session()
	sess.MustExec("CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	sess.MustExec("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
	sess.SetForcePlan("OVERWRITE")
	rs := sess.MustExec("UPDATE t SET v = 0.0 WHERE id = 1")
	if rs.Plan != "OVERWRITE" {
		t.Errorf("forced plan = %q", rs.Plan)
	}
	sess.SetForcePlan("EDIT")
	rs = sess.MustExec("UPDATE t SET v = 5.0 WHERE id = 1")
	if rs.Plan != "EDIT" {
		t.Errorf("forced plan = %q", rs.Plan)
	}
	sess.SetForcePlan("")
	if err := sess.SetRatioHint("UPDATE t SET v = 1.0 WHERE id = 2", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetRatioHint("SELECT 1", 0.5); err == nil {
		t.Error("hint on SELECT should fail")
	}
	sess.SetFollowingReads(3)
}

func TestExecScriptAndErrors(t *testing.T) {
	db := openDB(t)
	rs, err := db.ExecScript(`
		CREATE TABLE s (a BIGINT);
		INSERT INTO s VALUES (1), (2);
		SELECT COUNT(*) FROM s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != 2 {
		t.Errorf("script result = %v", rs.Rows[0])
	}
	if _, err := db.Exec("SELEC bogus"); err == nil {
		t.Error("bad SQL should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustExec should panic on error")
		}
	}()
	db.MustExec("SELECT * FROM nonexistent_table")
}

func TestCostModelExposed(t *testing.T) {
	db := openDB(t)
	if db.CostModel() == nil {
		t.Fatal("nil cost model")
	}
	if !strings.Contains(db.MR.Params.Name, "grid") {
		t.Errorf("params name = %q", db.MR.Params.Name)
	}
}

// Example demonstrates the end-to-end API: create a DualTable, load,
// update through the cost model, read through UNION READ, compact.
func Example() {
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		panic(err)
	}
	db.MustExec(`CREATE TABLE readings (meter BIGINT, kwh DOUBLE) STORED AS DUALTABLE`)
	db.MustExec(`INSERT INTO readings VALUES (1, 10.5), (2, 20.0), (3, 0.0)`)
	db.MustExec(`UPDATE readings SET kwh = 7.25 WHERE meter = 3`)
	db.MustExec(`DELETE FROM readings WHERE meter = 2`)
	rs := db.MustExec(`SELECT meter, kwh FROM readings ORDER BY meter`)
	for _, row := range rs.Rows {
		fmt.Println(row)
	}
	db.MustExec(`COMPACT TABLE readings`)
	fmt.Println("rows:", len(db.MustExec(`SELECT * FROM readings`).Rows))
	// Output:
	// 1	10.5
	// 3	7.25
	// rows: 2
}
